import math

import pytest
from hypothesis import given, strategies as st

from squeezesim.physics import (
    TWO_PI,
    CavityParams,
    EnsembleParams,
    alpha_per_atom,
    dressed_shift,
    effective_atom_number,
    invert_dressed_shift,
    qpn_frequency_fluctuation,
    scattered_ratio,
)

CAV = CavityParams()
ENS = EnsembleParams()


class TestDressedShift:
    def test_empty_cavity(self):
        assert dressed_shift(0.0, CAV) == 0.0

    def test_operating_point(self):
        # direct evaluation: (sqrt(200^2 + 4*0.447^2*2.4e5) - 200)/2 MHz
        assert dressed_shift(2.4e5, CAV) == pytest.approx(
            TWO_PI * 140.8e6, rel=1e-2)

    def test_single_atom_linear_regime(self):
        # first-order expansion g^2/delta, cross-checked against exact form
        assert dressed_shift(1.0, CAV) == pytest.approx(
            CAV.g ** 2 / CAV.delta, rel=1e-3)
        assert dressed_shift(1.0, CAV) == pytest.approx(TWO_PI * 999.0,
                                                        rel=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dressed_shift(-1.0, CAV)

    @given(st.floats(min_value=10.0, max_value=1e7))
    def test_derivative_matches_alpha_up(self, n_up):
        numeric = (dressed_shift(n_up + 1.0, CAV)
                   - dressed_shift(n_up - 1.0, CAV)) / 2.0
        assert numeric == pytest.approx(alpha_per_atom("up", n_up, CAV),
                                        rel=1e-6)

    @given(st.floats(min_value=0.0, max_value=1e7),
           st.floats(min_value=1.0, max_value=1e5))
    def test_monotone_increasing(self, n_up, step):
        assert dressed_shift(n_up + step, CAV) > dressed_shift(n_up, CAV)

    @given(st.floats(min_value=0.0, max_value=1e7))
    def test_invert_roundtrip(self, n_up):
        shift = dressed_shift(n_up, CAV)
        assert invert_dressed_shift(shift, CAV) == pytest.approx(
            n_up, rel=1e-9, abs=1e-6)


class TestAlphaPerAtom:
    def test_up_at_operating_point(self):
        assert alpha_per_atom("up", 2.4e5, CAV) == pytest.approx(
            TWO_PI * 415.0, rel=2e-2)

    def test_up_at_origin(self):
        assert alpha_per_atom("up", 0.0, CAV) == CAV.g ** 2 / CAV.delta

    def test_down_dispersive(self):
        # g^2/(delta + omega_hf) ~= 0.1998/7034 MHz
        assert alpha_per_atom("down", 0.0, CAV) == pytest.approx(
            TWO_PI * 28.0, rel=5e-2)
        assert alpha_per_atom("down", 1e6, CAV) == alpha_per_atom(
            "down", 0.0, CAV)

    def test_one_is_scaled_up(self):
        assert alpha_per_atom("one", 3e5, CAV) == pytest.approx(
            CAV.c1_coupling * alpha_per_atom("up", 3e5, CAV))

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            alpha_per_atom("two", 0.0, CAV)


class TestQpnFluctuation:
    def test_reference_ensemble(self):
        # 2pi x 144 kHz at N = 4.8e5
        assert qpn_frequency_fluctuation(4.8e5, CAV) == pytest.approx(
            TWO_PI * 144e3, rel=6e-2)

    def test_small_ensemble_identity(self):
        # sqrt(4)/2 = 1, so the result is exactly alpha_up(2)
        assert qpn_frequency_fluctuation(4.0, CAV) == pytest.approx(
            alpha_per_atom("up", 2.0, CAV))

    def test_scaling_law(self):
        n = 1.2e5
        expected = alpha_per_atom("up", n / 2.0, CAV) * math.sqrt(n) / 2.0
        assert qpn_frequency_fluctuation(n, CAV) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qpn_frequency_fluctuation(0.0, CAV)


class TestScatteredRatio:
    def test_operating_point(self):
        assert scattered_ratio(2.4e5, CAV) == pytest.approx(1.0, abs=0.1)

    def test_no_scatterers(self):
        assert scattered_ratio(0.0, CAV) == 0.0

    def test_calibration_point_value(self):
        # frozen from direct evaluation of the formula at N_up = 1.05e5
        assert scattered_ratio(1.05e5, CAV) == pytest.approx(0.665987,
                                                             rel=1e-4)

    @given(st.floats(min_value=0.0, max_value=1e8),
           st.floats(min_value=1.0, max_value=1e6))
    def test_monotone_and_bounded(self, n_up, step):
        bound = 2.0 * CAV.gamma / CAV.kappa0
        assert scattered_ratio(n_up, CAV) < bound
        assert scattered_ratio(n_up + step, CAV) > scattered_ratio(n_up, CAV)


class TestEffectiveAtomNumber:
    def test_full_load(self):
        assert effective_atom_number(7.2e5, ENS) == pytest.approx(4.77e5,
                                                                  rel=1e-2)

    def test_zero(self):
        assert effective_atom_number(0.0, ENS) == 0.0

    def test_scaling(self):
        assert effective_atom_number(1e6, ENS) == pytest.approx(6.63e5)


class TestParamValidation:
    def test_kappa0_bound(self):
        with pytest.raises(ValueError):
            CavityParams(kappa0=TWO_PI * 20e6)

    def test_positive_rates(self):
        with pytest.raises(ValueError):
            CavityParams(g=0.0)

    def test_ensemble_consistency(self):
        ens = EnsembleParams(n_effective=1e5)
        assert ens.n_loaded == pytest.approx(1e5 / 0.663)

    def test_contrast_range(self):
        with pytest.raises(ValueError):
            EnsembleParams(n_effective=1e5, initial_contrast=1.5)


def test_purity_bit_identical():
    a = dressed_shift(123456.789, CAV)
    b = dressed_shift(123456.789, CAV)
    assert a == b
