"""Span tracing of squeezesim's layers from outside the package.

:class:`Tracer` wraps every public function of each layer module, and every
public method of the classes those modules define, then rebinds each name
wherever the package looks it up.  ``sequence`` imports ``probe_measure``
by name, so ``squeezesim.sequence.probe_measure`` is rebound as well as
``squeezesim.state.probe_measure``.  Nothing inside ``src/`` changes.

Each call records one span: name, start, end and the index of the span
that was open when it began (its parent).  Spans stay in flat arrays in
memory until :meth:`Tracer.save` writes them out.  :func:`layer_metrics`
derives self times (span minus the time its child spans cover), call
counts, and per-trial and per-window ratios from the spans alone.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("physics", "noise", "state", "sequence", "experiments", "records",
          "config", "cli")
# every module whose globals may hold a layer function under some name
_MODULES = ("squeezesim",) + tuple(f"squeezesim.{m}" for m in LAYERS)


class Tracer:
    """Installs span-recording wrappers; ``with tracer:`` traces a region."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"squeezesim.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(
                                f"{layer}.{obj.__name__}.{meth}", fn))
        for modname in _MODULES:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: Path) -> None:
        """Write every span, plus the name table, as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 **self.spans())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times derived from the recorded spans.

    Trials are ``sequence.run_trial`` spans and probe windows are
    ``state.probe_measure`` spans.  The per-window physics and noise
    figures count only spans nested inside a trial, so the noise fit and
    the analytic tuners do not enter them.  A metric whose function was
    never called is left out.
    """
    sp = tracer.spans()
    nid, parent = sp["name_id"], sp["parent"]
    dur = sp["end"] - sp["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    index = {name: i for i, name in enumerate(tracer.names)}
    layer_of = np.array([name.split(".", 1)[0] for name in tracer.names])

    def mask(name: str) -> np.ndarray:
        return nid == index.get(name, -1)

    # a span lies inside a trial if any ancestor is a run_trial span
    is_trial = mask("sequence.run_trial")
    in_trial = np.zeros(len(nid), dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        in_trial[live] |= is_trial[anc[live]]
        anc[live] = parent[anc[live]]

    trials = int(np.count_nonzero(is_trial))
    windows = int(np.count_nonzero(mask("state.probe_measure")))
    out: dict[str, float] = {}
    if trials:
        for fn in ("probe_measure", "rotate"):
            m = mask(f"state.{fn}")
            out[f"state.{fn}.calls_per_trial"] = np.count_nonzero(m) / trials
            if np.any(m):
                out[f"state.{fn}.self_us"] = (
                    1e6 * self_t[m].sum() / np.count_nonzero(m))
        out["sequence.run_trial.self_us"] = (
            1e6 * self_t[is_trial].sum() / trials)
        out["sequence.trial_seed.us"] = (
            1e6 * dur[mask("sequence.trial_seed")].sum() / trials)
        out["sequence.run_trials.s"] = dur[mask("sequence.run_trials")].sum()
    if windows:
        for layer in ("physics", "noise"):
            m = in_trial & (layer_of[nid] == layer)
            out[f"{layer}.calls_per_window"] = np.count_nonzero(m) / windows
            out[f"{layer}.self_us_per_window"] = (
                1e6 * self_t[m].sum() / windows)
    budget = mask("noise.budget_report")
    if np.any(budget):
        out["noise.budget_report.us"] = 1e6 * dur[budget].mean()
    for name in ("noise.fit_r", "records.read_records",
                 "records.write_records", "config.load_config",
                 "config.echo_config"):
        m = mask(name)
        if np.any(m):
            out[f"{name}.s"] = dur[m].sum()
    for layer in ("experiments", "records", "cli"):
        m = layer_of[nid] == layer
        if np.any(m):
            out[f"{layer}.self_s"] = self_t[m].sum()
    return {k: float(v) for k, v in out.items()}
