import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitlab import (
    InitialScaleSpec,
    Spectrum,
    SpectrumInvalid,
    ThresholdSpec,
    classify_admissible,
    critical_index,
    tail_exponent,
)
from exitlab.exponents import _boundary_cmp


def spectra(max_d=4):
    """Strategy for valid strictly decreasing positive spectra."""
    return st.lists(
        st.floats(min_value=0.05, max_value=8.0, allow_nan=False),
        min_size=1, max_size=max_d, unique=True,
    ).map(lambda xs: Spectrum(sorted(xs, reverse=True)))


class TestSpectrum:
    def test_valid_construction(self):
        s = Spectrum([2.0, 1.0, 0.5])
        assert s.d == 3
        assert s.leading == 2.0
        assert s.smallest == 0.5
        np.testing.assert_array_equal(s.as_array(), [2.0, 1.0, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(SpectrumInvalid):
            Spectrum([])

    def test_rejects_nonpositive(self):
        with pytest.raises(SpectrumInvalid):
            Spectrum([1.0, 0.0])
        with pytest.raises(SpectrumInvalid):
            Spectrum([-1.0])

    def test_rejects_ties_and_increases(self):
        with pytest.raises(SpectrumInvalid):
            Spectrum([1.0, 1.0])
        with pytest.raises(SpectrumInvalid):
            Spectrum([0.5, 1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(SpectrumInvalid):
            Spectrum([math.inf, 1.0])
        with pytest.raises(SpectrumInvalid):
            Spectrum([math.nan])


class TestCriticalIndex:
    def test_interior_value(self):
        assert critical_index(Spectrum([2.0, 1.0]), 0.7) == 2

    def test_boundary_belongs_to_its_index(self):
        assert critical_index(Spectrum([2.0, 1.0]), 0.5) == 1

    def test_past_whole_spectrum(self):
        assert critical_index(Spectrum([1.0]), 2.0) == 2

    def test_alpha_zero_is_one(self):
        assert critical_index(Spectrum([3.0, 1.0, 0.2]), 0.0) == 1

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            critical_index(Spectrum([1.0]), -0.1)

    def test_boundary_detection_tolerates_rounding(self):
        # 1/3 is not representable; alpha = 1/lambda computed in floats must
        # still be classified as the boundary case.
        lam = 3.0
        alpha = 1.0 / lam
        spectrum = Spectrum([lam, 1.0])
        assert any(_boundary_cmp(alpha, mu) == 0 for mu in spectrum.lambdas)
        assert critical_index(spectrum, alpha) == 1

    @given(spectra(), st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=200)
    def test_defining_inequalities(self, s, alpha):
        i = critical_index(s, alpha)
        lams = s.as_array()
        assert 1 <= i <= s.d + 1
        if i <= s.d:
            # alpha <= 1/lambda_i up to the boundary tolerance
            assert alpha * lams[i - 1] <= 1.0 + 1e-9
        if i >= 2:
            assert alpha * lams[i - 2] > 1.0 - 1e-9


class TestTailExponent:
    def test_spec_values(self):
        assert tail_exponent(Spectrum([2.0, 1.0]), 0.7) == pytest.approx(0.4, abs=1e-15)
        assert tail_exponent(Spectrum([1.0]), 1.5) == 0.5
        assert tail_exponent(Spectrum([1.0, 0.5]), 1.2) == pytest.approx(0.2, abs=1e-15)

    def test_zero_below_first_kink(self):
        assert tail_exponent(Spectrum([2.0, 1.0]), 0.5) == 0.0
        assert tail_exponent(Spectrum([2.0, 1.0]), 0.0) == 0.0

    def test_one_dimensional_is_hinge(self):
        s = Spectrum([1.7])
        for alpha in (0.0, 0.3, 1.0 / 1.7, 1.0, 4.0):
            assert tail_exponent(s, alpha) == pytest.approx(
                max(1.7 * alpha - 1.0, 0.0), abs=1e-14)

    @given(spectra(), st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=200)
    def test_nondecreasing(self, s, a1, a2):
        lo, hi = sorted((a1, a2))
        assert tail_exponent(s, lo) <= tail_exponent(s, hi) + 1e-12

    @given(spectra(), st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=200)
    def test_convex(self, s, a1, a2):
        mid = 0.5 * (a1 + a2)
        lhs = tail_exponent(s, mid)
        rhs = 0.5 * (tail_exponent(s, a1) + tail_exponent(s, a2))
        assert lhs <= rhs + 1e-10

    @given(spectra(), st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=200)
    def test_matches_hinge_sum(self, s, alpha):
        expected = sum(max(lam * alpha - 1.0, 0.0) for lam in s.lambdas)
        assert tail_exponent(s, alpha) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_kinks_at_inverse_eigenvalues(self):
        s = Spectrum([2.0, 0.5])
        for lam in s.lambdas:
            kink = 1.0 / lam
            h = 1e-6
            left = (tail_exponent(s, kink) - tail_exponent(s, kink - h)) / h
            right = (tail_exponent(s, kink + h) - tail_exponent(s, kink)) / h
            assert right - left == pytest.approx(lam, rel=1e-6)


class TestThresholdTime:
    def test_spec_values(self):
        assert ThresholdSpec(1.0).time(math.exp(-1.0)) == pytest.approx(
            1.0, abs=1e-15)
        assert ThresholdSpec(0.0, r0=2.0).time(0.1) == 2.0
        assert ThresholdSpec(1.5, 0.3, 1.0, 0.5).time(0.01) == pytest.approx(
            7.307755278982137, abs=1e-12)

    def test_rejects_bad_epsilon(self):
        for eps in (0.0, 1.0, 1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                ThresholdSpec(1.0).time(eps)

    def test_threshold_spec_validation(self):
        with pytest.raises(ValueError):
            ThresholdSpec(alpha=-0.5)
        with pytest.raises(ValueError):
            ThresholdSpec(alpha=1.0, r_coeff=1.0, r_exponent=0.0)
        for r_coeff, r_exponent in ((math.nan, 1.0), (math.inf, 1.0),
                                    (1.0, math.nan), (0.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                ThresholdSpec(alpha=1.0, r_coeff=r_coeff, r_exponent=r_exponent)


class TestAdmissibility:
    def test_spec_values(self):
        s = Spectrum([1.0])
        assert classify_admissible(InitialScaleSpec(rho=0.4), s, 0.5) is True
        assert classify_admissible(InitialScaleSpec(rho=0.6), s, 0.5) is False
        assert classify_admissible(InitialScaleSpec(rho=0.99), s, 2.0) is True

    def test_boundary_case_uses_next_eigenvalue(self):
        # alpha = 1/lambda_1 with d=1: the condition relaxes to rho < 1.
        s = Spectrum([1.0])
        assert classify_admissible(InitialScaleSpec(rho=0.9), s, 1.0) is True
        assert classify_admissible(InitialScaleSpec(rho=1.0), s, 1.0) is False

    def test_boundary_case_d2(self):
        # lambda=(2,1), alpha=0.5 boundary at i=1: require rho < 1 - lambda_2*alpha.
        s = Spectrum([2.0, 1.0])
        assert classify_admissible(InitialScaleSpec(rho=0.45), s, 0.5) is True
        assert classify_admissible(InitialScaleSpec(rho=0.55), s, 0.5) is False

    def test_fixed_radius_always_admissible(self):
        # rho = 0 passes in every branch.
        for alpha in (0.0, 0.5, 1.0, 3.0):
            assert classify_admissible(
                InitialScaleSpec(kappa=5.0, rho=0.0), Spectrum([1.0, 0.3]), alpha)

    def test_scale_value(self):
        ks = InitialScaleSpec(kappa=2.0, rho=0.5)
        assert ks.value(0.01) == pytest.approx(20.0, rel=1e-12)
        with pytest.raises(ValueError):
            InitialScaleSpec(kappa=0.0)
        with pytest.raises(ValueError):
            InitialScaleSpec(rho=-0.2)
