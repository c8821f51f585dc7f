"""Every name the benchmark reads from squeezesim resolves.

The benchmark (``perfbench/``) changes only with a revision of the
benchmark itself, so a refactor that moves or renames a name one of its
files reads would break a workload that no other test runs.  Each
``perfbench/*.py`` file is parsed: every name imported from squeezesim and
every ``<module>.<name>`` read of an imported squeezesim module must
resolve, and every module that the tracer wraps must import.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def package_reads(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, module, name) of each name a parsed file imports from
    squeezesim, and of each attribute it reads of a squeezesim module."""
    reads, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "squeezesim":
                    bound = alias.asname or alias.name.split(".")[0]
                    modules[bound] = alias.name if alias.asname else bound
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "squeezesim"):
            for alias in node.names:
                reads.append((node.lineno, node.module, alias.name))
                name = f"{node.module}.{alias.name}"
                try:  # a submodule, whose attributes are checked as well
                    modules[alias.asname or alias.name] = (
                        importlib.import_module(name).__name__)
                except ImportError:
                    pass
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.append((node.lineno, modules[node.value.id], node.attr))
    return reads


def missing(reads) -> list[str]:
    return [f"line {line}: {module}.{name}" for line, module, name in reads
            if not hasattr(importlib.import_module(module), name)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_package_name_the_benchmark_reads_resolves(path):
    reads = package_reads(ast.parse(path.read_text(), str(path)))
    assert not missing(reads), f"{path.name}: {missing(reads)}"


def test_the_reads_are_found():
    # the parse is not vacuous: the reads of two workloads' calls
    reads = {(module, name) for path in SOURCES for _, module, name
             in package_reads(ast.parse(path.read_text()))}
    assert {("squeezesim.noise", "fit_r"), ("squeezesim.noise", "model_r"),
            ("squeezesim.sequence", "RecordSet"),
            ("squeezesim.sequence", "trial_seed")} <= reads


def test_a_missing_name_is_named():
    tree = ast.parse("from squeezesim import noise\nnoise.fit_gone(1)\n")
    assert missing(package_reads(tree)) == [
        "line 2: squeezesim.noise.fit_gone"]


def test_every_traced_layer_imports():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["LAYERS"])
    assert layers
    for layer in layers:
        importlib.import_module(f"squeezesim.{layer}")
