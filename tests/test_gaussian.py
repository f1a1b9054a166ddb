import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import multivariate_normal

from exitlab import (
    BoxDomain,
    InclusionViolated,
    RankDeficient,
    Spectrum,
    finite_time_covariance,
    gaussian_density,
    limit_covariance,
    prefactor_bounds,
    survival_prefactor,
    survival_prefactor_mc,
)

S1 = Spectrum([1.0])
S2 = Spectrum([1.0, 0.5])
BOX1 = BoxDomain([-1.0], [1.0])


class TestLimitCovariance:
    def test_one_dimensional(self):
        C = limit_covariance(np.array([[1.0]]), S1)
        assert C.matrix[0, 0] == 0.5
        assert C.cholesky_factor[0, 0] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_diagonal_noise(self):
        C = limit_covariance(np.eye(2), S2)
        np.testing.assert_allclose(C.matrix, np.diag([0.5, 1.0]), atol=1e-15)

    def test_mixing_noise(self):
        C = limit_covariance(np.array([[1.0, 0.0], [1.0, 1.0]]), S2)
        expected = np.array([[0.5, 2.0 / 3.0], [2.0 / 3.0, 2.0]])
        np.testing.assert_allclose(C.matrix, expected, atol=1e-15)

    def test_rectangular_noise(self):
        # n > d columns: sum over all noise channels.
        sigma = np.array([[1.0, 0.5, 0.0], [0.0, 0.3, 2.0]])
        C = limit_covariance(sigma, S2)
        G = sigma @ sigma.T
        lam = S2.as_array()
        expected = G / (lam[:, None] + lam[None, :])
        np.testing.assert_allclose(C.matrix, expected, atol=1e-15)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            limit_covariance(np.array([[1.0, 0.0], [2.0, 0.0]]), S2)

    def test_wide_enough_but_degenerate_rejected(self):
        with pytest.raises(RankDeficient):
            limit_covariance(np.array([[1.0, 1.0], [1.0, 1.0]]), S2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            limit_covariance(np.eye(3), S2)


class TestFiniteTimeCovariance:
    def test_zero_at_time_zero(self):
        C = finite_time_covariance(np.array([[1.0, 0.0], [1.0, 1.0]]), S2, 0.0)
        np.testing.assert_array_equal(C, np.zeros((2, 2)))

    def test_half_log_two(self):
        C = finite_time_covariance(np.array([[1.0]]), S1, 0.5 * math.log(2.0))
        assert C[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            finite_time_covariance(np.array([[1.0]]), S1, -0.1)

    def test_monotone_for_diagonal_noise(self):
        prev = finite_time_covariance(np.eye(2), S2, 0.0)
        for T in (0.25, 0.5, 1.0, 2.0, 4.0):
            cur = finite_time_covariance(np.eye(2), S2, T)
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_decay_rate_bound(self):
        sigma = np.array([[1.0, 0.0], [1.0, 1.0]])
        C0 = limit_covariance(sigma, S2).matrix
        c0n = np.max(np.abs(C0))
        for T in (1.0, 2.0, 4.0, 8.0):
            CT = finite_time_covariance(sigma, S2, T)
            gap = np.max(np.abs(CT - C0))
            # the slowest entry attains the bound exactly, so allow fp slack
            assert gap <= c0n * math.exp(-2.0 * S2.smallest * T) * (1.0 + 1e-12)

    def test_decay_rate_is_tight(self):
        # The slowest entry decays exactly like e^{-2 lambda_d T}; the ratio
        # against that envelope stays bounded away from 0.
        sigma = np.array([[1.0, 0.0], [1.0, 1.0]])
        C0 = limit_covariance(sigma, S2).matrix
        ratios = []
        for T in (2.0, 4.0, 6.0):
            gap = np.max(np.abs(finite_time_covariance(sigma, S2, T) - C0))
            ratios.append(gap / math.exp(-2.0 * S2.smallest * T))
        assert min(ratios) > 0.1 * np.max(np.abs(C0))

    def test_density_difference_shrinks_along_log_schedule(self):
        # sup |density(C_T) - density(C0)| at T = theta*log(1/eps) decreases
        # as eps decreases.
        sigma = np.array([[1.0, 0.0], [1.0, 1.0]])
        C0 = limit_covariance(sigma, S2).matrix
        grid = np.linspace(-3.0, 3.0, 13)
        pts = np.array([[a, b] for a in grid for b in grid])
        sups = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            T = 0.8 * math.log(1.0 / eps)
            CT = finite_time_covariance(sigma, S2, T)
            diff = [abs(gaussian_density(CT, p) - gaussian_density(C0, p))
                    for p in pts]
            sups.append(max(diff))
        assert all(a > b for a, b in zip(sups, sups[1:]))


class TestGaussianDensity:
    def test_standard_normal_origin(self):
        assert gaussian_density(np.array([[1.0]]), np.array([0.0])) == pytest.approx(
            0.3989422804014327, abs=1e-16)

    def test_half_variance_at_one(self):
        val = gaussian_density(np.array([[0.5]]), np.array([1.0]))
        assert val == pytest.approx(math.exp(-1.0) / math.sqrt(math.pi), rel=1e-14)

    def test_normalization_by_trapezoid(self):
        z = np.linspace(-8.0, 8.0, 20001)
        vals = [gaussian_density(np.array([[1.0]]), np.array([u])) for u in z]
        mass = np.trapezoid(vals, z)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_matches_scipy_multivariate(self):
        C = np.array([[0.5, 0.2], [0.2, 1.5]])
        z = np.array([0.3, -0.7])
        assert gaussian_density(C, z) == pytest.approx(
            multivariate_normal(cov=C).pdf(z), rel=1e-12)

    def test_non_spd_rejected(self):
        with pytest.raises(RankDeficient):
            gaussian_density(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))

    def test_empty_block_is_one(self):
        assert gaussian_density(np.zeros((0, 0)), np.zeros(0)) == 1.0


def _quadrature_psi(spectrum, C0, box, r0, alpha, x):
    """Direct numeric evaluation of the defining integral, d <= 2.

    Integrates the N(0, C0) density over the limit region: coordinates with
    lambda_j * alpha > 1 contribute the scaled interval factor, the critical
    boundary coordinate integrates over its shifted interval, coordinates
    past the critical index integrate over all of R.
    """
    from exitlab.exponents import _boundary_cmp, critical_index

    d = spectrum.d
    lams = spectrum.as_array()
    i = critical_index(spectrum, alpha)
    boundary = any(_boundary_cmp(alpha, lam) == 0 for lam in spectrum.lambdas)
    pref = 1.0
    for j in range(min(i - 1, d)):
        pref *= (box.upper[j] - box.lower[j]) * math.exp(-lams[j] * r0)

    dens = multivariate_normal(cov=C0.matrix).pdf

    if i == d + 1:
        return pref * float(dens(np.asarray(x)))

    # Integration limits per free coordinate.
    lims = []
    for j in range(i - 1, d):
        if boundary and j == i - 1:
            s = math.exp(-lams[j] * r0)
            lims.append((s * box.lower[j] - x[j], s * box.upper[j] - x[j]))
        else:
            lims.append((-30.0, 30.0))

    fixed = [-x[j] for j in range(i - 1)]
    if len(lims) == 1:
        val, err = integrate.quad(
            lambda u: dens(np.array(fixed + [u])), lims[0][0], lims[0][1],
            limit=200)
    elif len(lims) == 2:
        val, err = integrate.dblquad(
            lambda v, u: dens(np.array(fixed + [u, v])),
            lims[0][0], lims[0][1], lims[1][0], lims[1][1])
    else:
        raise NotImplementedError
    assert err < 1e-6
    return pref * val


class TestSurvivalPrefactor:
    def test_full_branch_value(self):
        C0 = limit_covariance(np.array([[1.0]]), S1)
        pred = survival_prefactor(S1, C0, BOX1, 0.0, 1.5, np.zeros(1))
        assert pred.branch == "full"
        assert pred.value == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)

    def test_interior_branch_is_total_mass(self):
        C0 = limit_covariance(np.array([[1.0]]), S1)
        pred = survival_prefactor(S1, C0, BOX1, 0.0, 0.0, np.zeros(1))
        assert pred.branch == "interior"
        assert pred.value == 1.0
        assert pred.critical_idx == 1

    def test_boundary_branch_is_erf(self):
        C0 = limit_covariance(np.array([[1.0]]), S1)
        pred = survival_prefactor(S1, C0, BOX1, 0.0, 1.0, np.zeros(1))
        assert pred.branch == "boundary"
        assert pred.value == pytest.approx(math.erf(1.0), rel=1e-12)

    def test_prediction_invariant(self):
        C0 = limit_covariance(np.array([[1.0, 0.0], [1.0, 1.0]]), S2)
        box = BoxDomain([-0.7, -1.2], [0.9, 1.1])
        for alpha, x in [(0.6, [0.1, -0.2]), (1.2, [0.05, 0.3]),
                         (2.0, [0.0, 0.0]), (2.5, [0.2, 0.1])]:
            pred = survival_prefactor(S2, C0, box, 0.1, alpha, np.array(x))
            assert pred.value == pytest.approx(
                pred.prefactor * pred.marginal_density * pred.boundary_probability,
                rel=1e-12)
            assert pred.value > 0.0 or pred.boundary_probability == 0.0

    def test_symmetry_for_centered_box(self):
        C0 = limit_covariance(np.array([[1.0, 0.0], [1.0, 1.0]]), S2)
        box = BoxDomain([-1.0, -0.8], [1.0, 0.8])
        x = np.array([0.15, -0.3])
        for alpha in (0.7, 1.0, 1.2, 2.0, 2.5):
            a = survival_prefactor(S2, C0, box, 0.2, alpha, x).value
            b = survival_prefactor(S2, C0, box, 0.2, alpha, -x).value
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 1.9, 2.0, 3.0])
    def test_matches_quadrature_d2(self, alpha):
        C0 = limit_covariance(np.array([[1.0, 0.0], [1.0, 1.0]]), S2)
        box = BoxDomain([-0.7, -1.2], [0.9, 1.1])
        x = np.array([0.1, -0.2])
        closed = survival_prefactor(S2, C0, box, 0.15, alpha, x).value
        quad = _quadrature_psi(S2, C0, box, 0.15, alpha, x)
        assert closed == pytest.approx(quad, rel=1e-7)

    def test_matches_quadrature_d1_all_branches(self):
        C0 = limit_covariance(np.array([[0.8]]), S1)
        box = BoxDomain([-0.6], [1.3])
        x = np.array([0.2])
        for alpha in (0.4, 1.0, 1.7):
            closed = survival_prefactor(S1, C0, box, 0.25, alpha, x).value
            quad = _quadrature_psi(S1, C0, box, 0.25, alpha, x)
            assert closed == pytest.approx(quad, rel=1e-9)

    def test_far_shifted_interval_stays_positive(self):
        # Boundary branch with x far past the scaled interval: probability is
        # a deep tail but never exactly zero for finite x.
        C0 = limit_covariance(np.array([[1.0]]), S1)
        pred = survival_prefactor(S1, C0, BOX1, 3.0, 1.0, np.array([5.0]))
        assert pred.branch == "boundary"
        assert 0.0 < pred.value < 1e-9

    def test_outside_box_start_still_evaluates(self):
        # x is a y-coordinate argument of the limit formula; it is not
        # required to lie in the box.
        C0 = limit_covariance(np.array([[1.0]]), S1)
        pred = survival_prefactor(S1, C0, BOX1, 0.0, 1.5, np.array([2.0]))
        assert pred.value > 0.0


class TestMonteCarloOracle:
    def test_full_branch_exact(self):
        C0 = limit_covariance(np.array([[1.0]]), S1)
        closed = survival_prefactor(S1, C0, BOX1, 0.0, 1.5, np.zeros(1))
        est, se = survival_prefactor_mc(S1, C0, BOX1, 0.0, 1.5, np.zeros(1),
                                        n_samples=10**4, seed=3)
        assert se == 0.0
        assert est == pytest.approx(closed.value, rel=1e-13)

    @pytest.mark.parametrize("alpha,branch", [(0.0, "interior"), (1.0, "boundary")])
    def test_agrees_with_closed_form(self, alpha, branch):
        C0 = limit_covariance(np.array([[1.0]]), S1)
        closed = survival_prefactor(S1, C0, BOX1, 0.0, alpha, np.zeros(1))
        assert closed.branch == branch
        est, se = survival_prefactor_mc(S1, C0, BOX1, 0.0, alpha, np.zeros(1),
                                        n_samples=2 * 10**5, seed=11)
        assert se > 0.0
        assert abs(est - closed.value) <= 3.0 * se

    def test_agrees_d2_interior(self):
        C0 = limit_covariance(np.array([[1.0, 0.0], [1.0, 1.0]]), S2)
        box = BoxDomain([-0.7, -1.2], [0.9, 1.1])
        x = np.array([0.1, -0.2])
        closed = survival_prefactor(S2, C0, box, 0.15, 1.2, x)
        est, se = survival_prefactor_mc(S2, C0, box, 0.15, 1.2, x,
                                        n_samples=2 * 10**5, seed=17)
        assert abs(est - closed.value) <= 3.0 * se

    def test_symmetry(self):
        C0 = limit_covariance(np.eye(2), S2)
        box = BoxDomain([-1.0, -0.5], [1.0, 0.5])
        x = np.array([0.2, 0.1])
        a, sa = survival_prefactor_mc(S2, C0, box, 0.0, 1.2, x,
                                      n_samples=10**5, seed=5)
        b, sb = survival_prefactor_mc(S2, C0, box, 0.0, 1.2, -x,
                                      n_samples=10**5, seed=6)
        assert abs(a - b) <= 3.0 * math.hypot(sa, sb)

    def test_rejects_small_sample(self):
        C0 = limit_covariance(np.array([[1.0]]), S1)
        with pytest.raises(ValueError):
            survival_prefactor_mc(S1, C0, BOX1, 0.0, 1.0, np.zeros(1),
                                  n_samples=100, seed=0)


class TestPrefactorBounds:
    def test_zero_travel_collapses_to_psi(self):
        C0 = limit_covariance(np.array([[1.0]]), S1)
        psi = survival_prefactor(S1, C0, BOX1, 0.0, 1.5, np.zeros(1))
        lo, hi = prefactor_bounds(S1, C0, BOX1, 0.0, 1.5, np.zeros(1), 0.0, 0.0)
        assert lo.value == psi.value
        assert hi.value == psi.value

    def test_log_two_travel(self):
        C0 = limit_covariance(np.array([[1.0]]), S1)
        lo, hi = prefactor_bounds(S1, C0, BOX1, 0.0, 1.5, np.zeros(1),
                                  0.0, math.log(2.0))
        assert lo.value == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)
        assert hi.value == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-14)

    def test_order_validation(self):
        C0 = limit_covariance(np.array([[1.0]]), S1)
        with pytest.raises(InclusionViolated, match="t_minus <= t_plus"):
            prefactor_bounds(S1, C0, BOX1, 0.0, 1.5, np.zeros(1), 1.0, 0.5)
        with pytest.raises(InclusionViolated):
            prefactor_bounds(S1, C0, BOX1, 0.0, 1.5, np.zeros(1), -0.5, 0.5)

    def test_ordered_on_grid(self):
        C0 = limit_covariance(np.array([[1.0, 0.0], [1.0, 1.0]]), S2)
        box = BoxDomain([-0.8, -0.9], [0.8, 0.9])
        for alpha in (1.2, 2.0, 2.1, 3.0):
            for tm, tp in [(0.0, 0.3), (0.1, 0.7), (0.5, 0.5)]:
                lo, hi = prefactor_bounds(S2, C0, box, 0.1, alpha,
                                          np.zeros(2), tm, tp)
                assert lo.value <= hi.value + 1e-15
