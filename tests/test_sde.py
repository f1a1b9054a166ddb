import math

import numpy as np
import pytest
from scipy.special import ndtr

from exitlab import (
    BLOCK_STEPS,
    BoxDomain,
    ConjugateFieldModel,
    NoiseModel,
    PathConfig,
    RngStream,
    SmoothDomain,
    Spectrum,
    draw_increments,
    finite_time_covariance,
    rescaled_fluctuation_samples,
    simulate_batch,
    simulate_path,
    simulate_rescaled_fluctuation,
)
from exitlab.sde import make_generator

S1 = Spectrum([1.0])
S2 = Spectrum([1.0, 0.5])
ID1 = ConjugateFieldModel.identity(S1)
ID2 = ConjugateFieldModel.identity(S2)
N1 = NoiseModel.constant_matrix(np.array([[1.0]]))
BOX1 = BoxDomain([-1.0], [1.0])
RESULT_KEYS = ("exited", "tau", "steps_used", "exit_state", "exit_y", "clamped")


def _ks_distance(samples, std):
    z = np.sort(samples) / std
    n = z.size
    F = ndtr(z)
    k = np.arange(1, n + 1)
    return max(np.max(k / n - F), np.max(F - (k - 1) / n))


class TestPathConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathConfig(dt=0.0)
        with pytest.raises(ValueError):
            PathConfig(dt=0.02)
        with pytest.raises(ValueError):
            PathConfig(dt=1e-3, t_cap=-1.0)
        with pytest.raises(ValueError):
            PathConfig(dt=1e-3, mode="bogus")
        # t_cap below dt is contradictory when set
        with pytest.raises(ValueError):
            PathConfig(dt=1e-2, t_cap=1e-3)


class TestIncrements:
    def test_reproducible(self):
        a = draw_increments(RngStream(42, 9), 64)
        b = draw_increments(RngStream(42, 9), 64)
        np.testing.assert_array_equal(a, b)

    def test_prefix_stable(self):
        whole = draw_increments(RngStream(5, 1), 700)
        s = RngStream(5, 1)
        head = draw_increments(s, 300)
        tail = draw_increments(s, 400)
        np.testing.assert_array_equal(whole, np.concatenate([head, tail]))

    def test_moments(self):
        z = draw_increments(RngStream(123, 0), 10**6)
        assert abs(z.mean()) <= 4.0 / 1000.0
        assert 0.99 <= z.var() <= 1.01

    def test_streams_uncorrelated(self):
        a = draw_increments(RngStream(123, 1), 10**6)
        b = draw_increments(RngStream(123, 2), 10**6)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) <= 4.0 / 1000.0

    def test_distinct_seeds_differ(self):
        a = draw_increments(RngStream(1, 0), 8)
        b = draw_increments(RngStream(2, 0), 8)
        assert not np.array_equal(a, b)


class TestSimulatePath:
    def test_zero_noise_exit_time(self):
        cfg = PathConfig(dt=1e-3)
        obs = simulate_path(ID1, N1, BOX1, np.array([0.5]), 0.0, 5.0, cfg,
                            RngStream(0, 0))
        assert not obs.survived
        assert obs.tau == pytest.approx(math.log(2.0), abs=2e-3)

    def test_boundary_start(self):
        obs = simulate_path(ID1, N1, BOX1, np.array([1.0]), 0.1, 5.0,
                            PathConfig(dt=1e-3), RngStream(0, 1))
        assert not obs.survived
        assert obs.tau == 0.0

    def test_survival_when_threshold_zero(self):
        obs = simulate_path(ID1, N1, BOX1, np.array([0.5]), 0.1, 0.0,
                            PathConfig(dt=1e-3), RngStream(0, 2))
        assert obs.survived
        assert obs.steps_used == 0

    def test_exit_coordinate_outside(self):
        # every non-survivor must show an exit coordinate at or beyond the edge
        box = BoxDomain([-0.4, -0.6], [0.5, 0.6])
        nm = NoiseModel.constant_matrix(np.eye(2))
        cfg = PathConfig(dt=1e-3)
        n_exited = 0
        for pid in range(200):
            obs = simulate_path(ID2, nm, box, np.array([0.1, 0.1]), 0.3, 2.0,
                                cfg, RngStream(77, pid))
            if obs.survived:
                continue
            n_exited += 1
            assert obs.tau <= 2.0
            at_edge = (obs.exit_y <= box.lower + 1e-12) | (
                obs.exit_y >= box.upper - 1e-12)
            assert at_edge.any()
            # tau lies on the step grid
            assert obs.tau / cfg.dt == pytest.approx(round(obs.tau / cfg.dt),
                                                     abs=1e-6)
        assert n_exited > 100

    def test_ornstein_uhlenbeck_law_at_t1(self):
        # identity model: e^{-t} X_t / eps - x0 is exactly N(0, C_t)
        eps = 0.05
        cfg = PathConfig(dt=1e-3)
        n = 10**4
        U = rescaled_fluctuation_samples(ID1, N1, np.array([0.5]), eps, 1.0,
                                         cfg, seed=2024, n_samples=n)
        std = math.sqrt(0.5 * (1.0 - math.exp(-2.0)))
        D = _ks_distance(U[:, 0], std)
        # KS critical value at level 1e-3 is 1.95/sqrt(n)
        assert D <= 1.95 / math.sqrt(n)

    def test_freidlin_wentzell_tracking(self):
        # P(sup_{t<=1} |X_t - S^t x0| > eps^0.4) <= 0.01 at eps = 0.05.
        # Vectorized Euler with the same update rule as the engine.
        eps, dt, n, steps = 0.05, 1e-3, 10**4, 1000
        gen = make_generator(4242, 0)
        X = np.full((n, 1), 0.5)
        ref = np.full((n, 1), 0.5)
        sup = np.zeros(n)
        sdt = math.sqrt(dt)
        for _ in range(steps):
            xi = gen.standard_normal((n, 1))
            X = X + X * dt + eps * sdt * xi
            ref = ref * (1.0 + dt)
            sup = np.maximum(sup, np.abs(X - ref)[:, 0])
        assert np.mean(sup > eps ** 0.4) <= 0.01

    def test_capped_full_exit_flagged(self):
        cfg = PathConfig(dt=1e-3, t_cap=0.05, mode="full_exit")
        obs = simulate_path(ID1, N1, BOX1, np.array([0.01]), 0.01, 0.0, cfg,
                            RngStream(3, 5))
        assert obs.capped
        assert obs.survived


class TestSimulateBatch:
    def test_matches_single_paths(self):
        box = BoxDomain([-0.8], [0.8])
        X0 = np.full((6, 1), 0.2)
        gens = [make_generator(11, pid) for pid in range(6)]
        res = simulate_batch(ID1, N1, box, X0, 0.2, 3.0, 1e-3, gens)
        for pid in range(6):
            obs = simulate_path(ID1, N1, box, np.array([0.2]), 0.2, 3.0,
                                PathConfig(dt=1e-3), RngStream(11, pid))
            assert res["exited"][pid] == (not obs.survived)
            if not obs.survived:
                assert res["tau"][pid] == obs.tau

    def test_stop_time_extension_preserves_early_exits(self):
        # pure streams: an exit before the shorter horizon must be identical
        # when the horizon is extended
        box = BoxDomain([-0.6], [0.6])
        X0 = np.full((64, 1), 0.1)
        short = simulate_batch(ID1, N1, box, X0, 0.3, 1.5, 1e-3,
                               [make_generator(9, p) for p in range(64)])
        long = simulate_batch(ID1, N1, box, X0, 0.3, 4.0, 1e-3,
                              [make_generator(9, p) for p in range(64)])
        early = short["exited"]
        assert early.any()
        np.testing.assert_array_equal(long["exited"][early], early[early])
        np.testing.assert_allclose(long["tau"][early], short["tau"][early],
                                   atol=1e-12)

    def test_block_boundary_alignment_is_invisible(self):
        # a stop time that is not a multiple of the draw block still gives
        # grid-aligned steps: tau multiples of dt, final partial step honored
        box = BoxDomain([-50.0], [50.0])
        X0 = np.full((4, 1), 0.1)
        stop = (BLOCK_STEPS + 37) * 1e-3 + 4.4e-4
        res = simulate_batch(ID1, N1, box, X0, 0.1, stop, 1e-3,
                             [make_generator(21, p) for p in range(4)])
        assert not res["exited"].any()
        assert res["steps_used"].max() == BLOCK_STEPS + 37 + 1

    def test_epsilon_zero_no_draws(self):
        X0 = np.full((3, 1), 0.4)
        res = simulate_batch(ID1, N1, BOX1, X0, 0.0, 2.0, 1e-3,
                             [make_generator(1, p) for p in range(3)])
        assert res["exited"].all()
        assert np.allclose(res["tau"], math.log(1.0 / 0.4), atol=2e-3)


def _run_ids(model, noise, domain, X0, eps, stop, seed, ids, want_final):
    """simulate_batch on the rows `ids` of X0, each on its own path stream."""
    gens = [make_generator(seed, int(p)) for p in ids]
    return simulate_batch(model, noise, domain, X0[ids], eps, stop, 1e-3,
                          gens, want_final=want_final)


def _box_starts(d, n, rng):
    # interior starts plus one on the boundary and one outside: tau = 0
    X0 = rng.uniform(-0.1, 0.1, (n, d))
    X0[1, 0] = 0.5
    X0[4, -1] = -0.9
    return X0


_RNG = np.random.default_rng(5)
_BOX2 = BoxDomain([-0.5, -0.5], [0.5, 0.5])
_QUAD2 = ConjugateFieldModel.component_quadratic(S2, [1.0, -0.5],
                                                 validity_radius=0.2)
_STOP = (BLOCK_STEPS + 37) * 1e-3 + 4.4e-4  # not a multiple of the block
BATCH_CASES = {
    "box": (ID2, NoiseModel.constant_matrix([[1.0, 0.0], [1.0, 1.0]]),
            _BOX2, _box_starts(2, 24, _RNG), 0.3, 0.9),
    "ball": (ID2, NoiseModel.constant_matrix(np.eye(2)), SmoothDomain.ball(0.5),
             _box_starts(2, 24, _RNG), 0.3, 0.9),
    "no_domain": (ID2, NoiseModel.constant_matrix([[1.0, 0.3, 0.2], [0.1, 1.0, 0.4]]),
                  None, _box_starts(2, 16, _RNG), 0.3, _STOP),
    # the upper sides lie past the validity radius: paths there get clamped
    "quadratic_clamp": (_QUAD2, NoiseModel.constant_matrix(np.eye(2)),
                        BoxDomain([-0.15, -0.15], [0.3, 0.3]),
                        np.zeros((24, 2)), 0.3, 0.9),
    "state_scaled": (ID2, NoiseModel.state_scaled(np.eye(2), 0.5), _BOX2,
                     _box_starts(2, 24, _RNG), 0.3, _STOP),
    "epsilon_zero": (ID1, N1, BOX1, np.linspace(-1.2, 0.9, 12)[:, None],
                     0.0, 2.0),
}


class TestBatchInvariance:
    """A path's result depends only on (seed, path id), bit for bit."""

    @pytest.mark.parametrize("want_final", [False, True])
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_batch_singletons_and_shuffled_split_agree(self, case, want_final):
        model, noise, domain, X0, eps, stop = BATCH_CASES[case]
        m = X0.shape[0]
        whole = _run_ids(model, noise, domain, X0, eps, stop, 17,
                         np.arange(m), want_final)
        keys = RESULT_KEYS + (("final_state",) if want_final else ())
        singles = {k: np.empty_like(whole[k]) for k in keys}
        for p in range(m):
            one = _run_ids(model, noise, domain, X0, eps, stop, 17,
                           np.array([p]), want_final)
            for k in keys:
                singles[k][p] = one[k][0]
        perm = np.random.default_rng(m).permutation(m)
        split = {k: np.empty_like(whole[k]) for k in keys}
        for part in np.split(perm, [3, m // 2]):
            res = _run_ids(model, noise, domain, X0, eps, stop, 17, part,
                           want_final)
            for k in keys:
                split[k][part] = res[k]
        for k in keys:
            np.testing.assert_array_equal(singles[k], whole[k], err_msg=k)
            np.testing.assert_array_equal(split[k], whole[k], err_msg=k)

    def test_cases_reach_their_branches(self):
        def run(case):
            model, noise, domain, X0, eps, stop = BATCH_CASES[case]
            return _run_ids(model, noise, domain, X0, eps, stop, 17,
                            np.arange(X0.shape[0]), True)

        for case in ("box", "ball", "state_scaled", "epsilon_zero"):
            res = run(case)
            assert (res["tau"] == 0.0).any(), case
            assert (res["tau"] > 0.0).any(), case
        res = run("quadratic_clamp")
        assert (res["clamped"] & res["exited"]).any()
        assert (res["clamped"] & ~res["exited"]).any()
        res = run("no_domain")
        assert not res["exited"].any()
        assert np.isfinite(res["final_state"]).all()


class TestStepBookkeeping:
    def test_deterministic_exits_outside_starts_and_survivors(self):
        # eps = 0 with lambda = 1: x_k = x0 (1 + dt)^k.  The third start is
        # just short of the edge after n - 1 steps and crosses it on the
        # final half step.
        dt, n = 1e-3, 600
        stop = (n - 1) * dt + 0.5 * dt
        x_last = 1.0 / ((1.0 + dt) ** (n - 1) * (1.0 + 0.25 * dt))
        X0 = np.array([[1.0], [-1.5], [x_last], [0.7], [0.1]])
        res = simulate_batch(ID1, N1, BOX1, X0, 0.0, stop, dt,
                             [make_generator(1, p) for p in range(5)])
        np.testing.assert_array_equal(
            res["exited"], [True, True, True, True, False])
        assert res["steps_used"][0] == 0 and res["steps_used"][1] == 0
        assert res["tau"][2] == stop
        assert res["steps_used"][2] == n
        assert 0.0 < res["tau"][3] < stop
        assert res["steps_used"][3] == round(res["tau"][3] / dt)
        assert res["steps_used"][4] == n
        assert math.isnan(res["tau"][4])

    def test_noisy_steps_match_exit_step(self):
        dt = 1e-3
        stop = 1.2345
        n = math.ceil(stop / dt)
        X0 = _box_starts(2, 200, np.random.default_rng(2))
        res = simulate_batch(ID2, NoiseModel.constant_matrix(np.eye(2)), _BOX2,
                             X0, 0.3, stop, dt,
                             [make_generator(3, p) for p in range(200)])
        ex = res["exited"]
        assert ex.any() and not ex.all()
        at0 = ex & (res["tau"] == 0.0)
        assert at0.sum() == 2
        np.testing.assert_array_equal(res["steps_used"][at0], 0)
        mid = ex & (res["tau"] > 0.0) & (res["tau"] < stop)
        np.testing.assert_array_equal(
            res["steps_used"][mid], np.round(res["tau"][mid] / dt))
        np.testing.assert_array_equal(
            res["steps_used"][ex & (res["tau"] == stop)], n)
        np.testing.assert_array_equal(res["steps_used"][~ex], n)


class TestRescaledFluctuation:
    def test_time_zero_is_exact_zero(self):
        u = simulate_rescaled_fluctuation(ID1, N1, np.array([0.5]), 0.1, 0.0,
                                          PathConfig(dt=1e-3), RngStream(0, 0))
        np.testing.assert_array_equal(u, np.zeros(1))

    def test_epsilon_zero_is_exact_zero_for_linear(self):
        u = simulate_rescaled_fluctuation(ID1, N1, np.array([0.5]), 0.0, 1.0,
                                          PathConfig(dt=1e-3), RngStream(0, 0))
        np.testing.assert_allclose(u, np.zeros(1), atol=1e-12)

    def test_covariance_matches_finite_time(self):
        sigma = np.array([[1.0, 0.0], [1.0, 1.0]])
        nm = NoiseModel.constant_matrix(sigma)
        n = 10**5
        T = 2.0
        U = rescaled_fluctuation_samples(ID2, nm, np.array([0.3, -0.2]), 0.05,
                                         T, PathConfig(dt=1e-3), seed=99,
                                         n_samples=n)
        emp = np.cov(U.T)
        CT = finite_time_covariance(sigma, S2, T)
        rel = 3.0 / math.sqrt(n)
        scale = math.sqrt(np.max(np.diag(CT)))
        for j in range(2):
            for k in range(2):
                tol = 5.0 * rel * math.sqrt(CT[j, j] * CT[k, k] + CT[j, k] ** 2)
                assert abs(emp[j, k] - CT[j, k]) <= tol + 1e-3 * scale

    def test_mean_near_zero(self):
        U = rescaled_fluctuation_samples(ID1, N1, np.array([0.5]), 0.05, 1.0,
                                         PathConfig(dt=1e-3), seed=7,
                                         n_samples=20000)
        assert abs(U.mean()) <= 5.0 / math.sqrt(20000)

    def test_quadratic_ks_improves_with_epsilon(self):
        m = ConjugateFieldModel.component_quadratic(S1, [0.5])
        nm = NoiseModel.constant_matrix(np.array([[0.3]]))
        T = 0.5
        std = math.sqrt(finite_time_covariance(np.array([[0.3]]), S1, T)[0, 0])
        dists = []
        for eps in (0.2, 0.05):
            U = rescaled_fluctuation_samples(m, nm, np.zeros(1), eps, T,
                                             PathConfig(dt=1e-3), seed=31,
                                             n_samples=20000)
            dists.append(_ks_distance(U[:, 0], std))
        assert dists[1] < dists[0]

    def test_batching_invisible(self):
        args = (ID1, N1, np.array([0.4]), 0.1, 0.7, PathConfig(dt=1e-3))
        a = rescaled_fluctuation_samples(*args, seed=5, n_samples=300,
                                         batch_size=64)
        b = rescaled_fluctuation_samples(*args, seed=5, n_samples=300,
                                         batch_size=300)
        np.testing.assert_array_equal(a, b)
