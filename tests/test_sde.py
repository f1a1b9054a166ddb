import math
import mmap
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from exitlab import (
    BLOCK_STEPS,
    BoxDomain,
    ConjugateFieldModel,
    InitialScaleSpec,
    NoiseModel,
    PathConfig,
    SmoothDomain,
    Spectrum,
    ThresholdSpec,
    direct_tail_estimate,
    finite_time_covariance,
    flow_exit_times_batch,
    rescaled_fluctuation_samples,
    simulate_batch,
)
from exitlab.estimator import _LEVEL_SHIFT, _RESAMPLE_SALT
from exitlab import sde
from exitlab.sde import (
    _MAPPED_BYTES,
    _SUB_STEPS,
    _PhiloxKey,
    _step_major_noise,
    make_generator,
)

S1 = Spectrum([1.0])
S2 = Spectrum([1.0, 0.5])
ID1 = ConjugateFieldModel.identity(S1)
ID2 = ConjugateFieldModel.identity(S2)
N1 = NoiseModel(np.array([[1.0]]))
BOX1 = BoxDomain([-1.0], [1.0])
RESULT_KEYS = ("exited", "tau", "steps_used", "end_state", "clamped")


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
        # t_cap below dt is contradictory when set
        with pytest.raises(ValueError):
            PathConfig(dt=1e-2, t_cap=1e-3)


class TestIncrements:
    def test_reproducible(self):
        a = make_generator(42, 9).standard_normal(64)
        b = make_generator(42, 9).standard_normal(64)
        np.testing.assert_array_equal(a, b)

    def test_prefix_stable(self):
        # continuations rely on it: a stream read in pieces, the way the
        # engine fills its blocks, gives the same numbers as one read
        whole = make_generator(5, 1).standard_normal(700)
        gen = make_generator(5, 1)
        head = gen.standard_normal(300)
        tail = np.empty(400)
        gen.standard_normal(out=tail)
        np.testing.assert_array_equal(whole, np.concatenate([head, tail]))

    def test_moments(self):
        z = make_generator(123, 0).standard_normal(10**6)
        assert abs(z.mean()) <= 4.0 / 1000.0
        assert 0.99 <= z.var() <= 1.01

    def test_streams_uncorrelated(self):
        a = make_generator(123, 1).standard_normal(10**6)
        b = make_generator(123, 2).standard_normal(10**6)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) <= 4.0 / 1000.0

    def test_distinct_seeds_differ(self):
        a = make_generator(1, 0).standard_normal(8)
        b = make_generator(2, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, path_id", [
        (42, 9),                                # a plain path
        (42, (3 << _LEVEL_SHIFT) | 17),         # a splitting level's slot
        (42 ^ _RESAMPLE_SALT, 4),               # a resampling stream
        (2**64 - 1, 2**64 - 1),                 # the largest key
    ])
    def test_stream_is_philox_keyed_by_seed_and_path(self, seed, path_id):
        ref = np.random.Generator(np.random.Philox(
            key=np.array([seed, path_id], dtype=np.uint64)))
        gen = make_generator(seed, path_id)
        np.testing.assert_array_equal(gen.standard_normal(10_000),
                                      ref.standard_normal(10_000))
        np.testing.assert_array_equal(gen.integers(0, 1000, 500),
                                      ref.integers(0, 1000, 500))
        for part in ("key", "counter"):
            np.testing.assert_array_equal(gen.bit_generator.state["state"][part],
                                          ref.bit_generator.state["state"][part])

    def test_key_answers_only_the_philox_request(self):
        key = _PhiloxKey(np.array([1, 2], dtype=np.uint64))
        for n_words, dtype in ((2, np.uint32), (4, np.uint64), (1, np.uint64)):
            with pytest.raises(TypeError, match="2 uint64 words"):
                key.generate_state(n_words, dtype)
        with pytest.raises(TypeError):
            key.spawn(2)
        with pytest.raises(TypeError):
            make_generator(1, 2).spawn(1)

    @pytest.mark.parametrize("seed, path_id", [
        (np.int64(3), np.int64(5)),
        (np.uint64(2**64 - 1), np.uint64(9)),   # the largest key word
        (np.int64(-1), np.int64(-7)),           # negative: taken mod 2**64
        (np.int64(42), 2**64 - 1),
    ], ids=["int64", "uint64-max", "negative-int64", "mixed"])
    def test_numpy_integers_key_the_same_stream(self, seed, path_id):
        # e.g. ids taken from an np.arange; the equal Python ints set the key
        want = make_generator(int(seed), int(path_id))
        ref = np.random.Generator(np.random.Philox(key=np.array(
            [int(seed) % 2**64, int(path_id) % 2**64], dtype=np.uint64)))
        got = make_generator(seed, path_id).standard_normal(1000)
        np.testing.assert_array_equal(got, want.standard_normal(1000))
        np.testing.assert_array_equal(got, ref.standard_normal(1000))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_diagonal_sigma_scaling_equals_the_matmul(self, d):
        # a diagonal sigma scales each coordinate instead of multiplying;
        # each product of the matmul is one term plus exact zeros
        rng = np.random.default_rng(d)
        sig = np.diag(rng.uniform(0.1, 3.0, d) * rng.choice([-1.0, 1.0], d))
        if d > 1:
            sig[0, 0] = 1.0  # a unit entry skips its multiply
        ids = np.arange(3 * 64 + 5)  # more than one mixing group
        kb = 70
        got = _step_major_noise([make_generator(8, int(p)) for p in ids], ids,
                                kb, sig)
        xi = np.stack([make_generator(8, int(p)).standard_normal(kb * d)
                       for p in ids]).reshape(ids.size, kb, d)
        want = (xi @ sig.T).transpose(1, 2, 0)
        assert got.shape == (kb, d, ids.size)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, n", [(1, 2), (2, 2), (3, 3), (3, 4)])
    def test_one_step_block_is_a_prefix(self, d, n):
        # a block drawn longer has the shorter one as its prefix, also where
        # numpy would multiply a one-step block by another kernel
        sig = np.random.default_rng(d * n).uniform(-1.0, 1.0, (d, n))
        ids = np.arange(70)
        one, two = (_step_major_noise([make_generator(8, int(p)) for p in ids],
                                      ids, kb, sig) for kb in (1, 2))
        assert one.tobytes() == two[:1].tobytes()


def _one_path(x0, epsilon, stop_time, seed, pid):
    """simulate_batch on a single 1-d path in BOX1; row 0 of each result."""
    res = simulate_batch(ID1, N1, BOX1, np.array([[x0]]), epsilon,
                         stop_time, 1e-3, [make_generator(seed, pid)])
    return {key: res[key][0] for key in RESULT_KEYS}


class TestSimulatePath:
    """Outcomes of single paths, run through simulate_batch."""

    def test_zero_noise_exit_time(self):
        # eps * sqrt(dt) * xi is below half an ulp of every state reached,
        # so this is the noiseless Euler path
        obs = _one_path(0.5, 1e-300, 5.0, 0, 0)
        assert obs["exited"]
        assert obs["tau"] == pytest.approx(math.log(2.0), abs=2e-3)

    def test_boundary_start(self):
        obs = _one_path(1.0, 0.1, 5.0, 0, 1)
        assert obs["exited"]
        assert obs["tau"] == 0.0
        assert obs["steps_used"] == 0

    def test_survival_when_threshold_zero(self):
        obs = _one_path(0.5, 0.1, 0.0, 0, 2)
        assert not obs["exited"]
        assert obs["steps_used"] == 0

    def test_exit_coordinate_outside(self):
        # every non-survivor must show an exit coordinate at or beyond the edge
        box = BoxDomain([-0.4, -0.6], [0.5, 0.6])
        nm = NoiseModel(np.eye(2))
        dt = 1e-3
        res = simulate_batch(ID2, nm, box, np.full((200, 2), 0.1), 0.3, 2.0,
                             dt, [make_generator(77, pid) for pid in range(200)])
        ex = np.flatnonzero(res["exited"])
        assert ex.size > 100
        exit_ys = ID2.push_batch(res["end_state"][ex])
        for i, exit_y in zip(ex, exit_ys):
            tau = res["tau"][i]
            assert tau <= 2.0
            at_edge = (exit_y <= box.lower + 1e-12) | (exit_y >= box.upper - 1e-12)
            assert at_edge.any()
            # tau lies on the step grid
            assert tau / dt == pytest.approx(round(tau / dt), abs=1e-6)

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
        # a full-exit run that reaches its cap inside the box comes back
        # unexited with every step used; the adjusted estimator counts such
        # paths as capped survivors
        obs = _one_path(0.01, 0.01, 0.05, 3, 5)
        assert not obs["exited"]
        assert math.isnan(obs["tau"])
        assert obs["steps_used"] == 50


class TestSimulateBatch:
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

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt"):
            simulate_batch(ID1, N1, BOX1, np.full((2, 1), 0.1), 0.1, 1.0, dt,
                           [make_generator(1, p) for p in range(2)])

    @pytest.mark.parametrize("epsilon, stop, match", [
        ([0.1, 1.0], 1.0, r"epsilon must lie in \(0, 1\)"),
        ([0.0, 0.1], 1.0, r"epsilon must lie in \(0, 1\)"),
        (0.0, 1.0, r"epsilon must lie in \(0, 1\)"),
        (0.1, [1.0, -1e-3], "stop_time must be finite"),
        (0.1, [math.nan, 1.0], "stop_time must be finite"),
    ])
    def test_rejects_bad_per_row_values(self, epsilon, stop, match):
        with pytest.raises(ValueError, match=match):
            simulate_batch(ID1, N1, BOX1, np.full((2, 1), 0.1), epsilon, stop,
                           1e-3, [make_generator(1, p) for p in range(2)])

    @pytest.mark.parametrize("rows", [3, 1])
    def test_rejects_rows_not_a_multiple_of_the_streams(self, rows):
        with pytest.raises(ValueError, match="not a multiple of 2 generators"):
            simulate_batch(ID1, N1, BOX1, np.full((rows, 1), 0.1), 0.1, 1.0,
                           1e-3, [make_generator(1, p) for p in range(2)])


def _run_ids(model, noise, domain, X0, eps, stop, seed, ids):
    """simulate_batch on the rows `ids` of X0, each on its own path stream."""
    gens = [make_generator(seed, int(p)) for p in ids]
    return simulate_batch(model, noise, domain, X0[ids], eps, stop, 1e-3, gens)


def _map_every_buffer(monkeypatch, mapped):
    """With mapped, every noise buffer is a mapping of its own (see
    sde._noise_buffer); without it, only those of _MAPPED_BYTES or more."""
    if mapped:
        monkeypatch.setattr(sde, "_MAPPED_BYTES", 8)


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
_C2 = np.array([1.0, -0.5])


def _quad_jacobians(X):
    J = np.zeros(X.shape + (2,))
    J[:, [0, 1], [0, 1]] = 1.0 + 2.0 * _C2 * X
    return J


# _QUAD2's map without its closed-form drift: drift_batch solves the
# stacked system Df(x) b = lambda f(x) on every step
_SOLVED2 = ConjugateFieldModel(
    S2, f=lambda X: X + _C2 * X * X,
    f_inv=lambda Y: 2.0 * Y / (1.0 + np.sqrt(1.0 + 4.0 * _C2 * Y)),
    df=_quad_jacobians, validity_radius=0.2)
BATCH_CASES = {
    "box": (ID2, NoiseModel([[1.0, 0.0], [1.0, 1.0]]),
            _BOX2, _box_starts(2, 24, _RNG), 0.3, 0.9),
    "ball": (ID2, NoiseModel(np.eye(2)), SmoothDomain.ball(0.5),
             _box_starts(2, 24, _RNG), 0.3, 0.9),
    "no_domain": (ID2, NoiseModel([[1.0, 0.3, 0.2], [0.1, 1.0, 0.4]]),
                  None, _box_starts(2, 16, _RNG), 0.3, _STOP),
    # the upper sides lie past the validity radius: paths there get clamped
    "quadratic_clamp": (_QUAD2, NoiseModel(np.eye(2)),
                        BoxDomain([-0.15, -0.15], [0.3, 0.3]),
                        np.zeros((24, 2)), 0.3, 0.9),
    "state_scaled": (ID2, NoiseModel.state_scaled(np.eye(2), 0.5), _BOX2,
                     _box_starts(2, 24, _RNG), 0.3, _STOP),
    # n = 3 noise columns for d = 2: sigma(x) mixes a strided noise column
    "state_scaled_rect": (ID2, NoiseModel.state_scaled(
        [[1.0, 0.3, 0.2], [0.1, 1.0, 0.4]], 0.5), _BOX2,
        _box_starts(2, 24, _RNG), 0.3, _STOP),
    # as quadratic_clamp, on a grid that ends in a 0.44 dt step
    "solved_drift": (_SOLVED2, NoiseModel(np.eye(2)),
                     BoxDomain([-0.15, -0.15], [0.3, 0.3]),
                     np.zeros((16, 2)), 0.3, _STOP),
}


class TestBatchInvariance:
    """A path's result depends only on (seed, path id), bit for bit."""

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_batch_singletons_and_shuffled_split_agree(self, case, mapped,
                                                       monkeypatch):
        _map_every_buffer(monkeypatch, mapped)
        model, noise, domain, X0, eps, stop = BATCH_CASES[case]
        m = X0.shape[0]
        whole = _run_ids(model, noise, domain, X0, eps, stop, 17, np.arange(m))
        assert set(whole) == set(RESULT_KEYS)
        singles = {k: np.empty_like(whole[k]) for k in RESULT_KEYS}
        for p in range(m):
            one = _run_ids(model, noise, domain, X0, eps, stop, 17, np.array([p]))
            for k in RESULT_KEYS:
                singles[k][p] = one[k][0]
        perm = np.random.default_rng(m).permutation(m)
        split = {k: np.empty_like(whole[k]) for k in RESULT_KEYS}
        for part in np.split(perm, [3, m // 2]):
            res = _run_ids(model, noise, domain, X0, eps, stop, 17, part)
            for k in RESULT_KEYS:
                split[k][part] = res[k]
        for k in RESULT_KEYS:
            np.testing.assert_array_equal(singles[k], whole[k], err_msg=k)
            np.testing.assert_array_equal(split[k], whole[k], err_msg=k)

    def test_cases_reach_their_branches(self):
        def run(case):
            model, noise, domain, X0, eps, stop = BATCH_CASES[case]
            return _run_ids(model, noise, domain, X0, eps, stop, 17,
                            np.arange(X0.shape[0]))

        for case in ("box", "ball", "state_scaled", "state_scaled_rect"):
            res = run(case)
            assert (res["tau"] == 0.0).any(), case
            assert (res["tau"] > 0.0).any(), case
        for case in ("state_scaled", "state_scaled_rect"):
            assert not run(case)["exited"].all(), case  # some reach _STOP
        for case in ("quadratic_clamp", "solved_drift"):
            res = run(case)
            assert (res["clamped"] & res["exited"]).any(), case
            assert (res["clamped"] & ~res["exited"]).any(), case
        assert (res["steps_used"][~res["exited"]] == 550).any()  # the 0.44 dt step
        res = run("no_domain")
        assert not res["exited"].any()
        for case in BATCH_CASES:  # every row of end_state is set
            assert np.isfinite(run(case)["end_state"]).all(), case


class TestClampSkip:
    """An infinite validity radius never reaches clamp; a finite one does."""

    def test_identity_model_never_reaches_clamp(self, monkeypatch):
        model, noise, domain, X0, eps, stop = BATCH_CASES["box"]
        rows = np.arange(X0.shape[0])
        before = _run_ids(model, noise, domain, X0, eps, stop, 17, rows)
        tau_before = flow_exit_times_batch(model, SmoothDomain.ball(1.0), X0)

        def refuse(self, X):
            raise AssertionError("clamp called on an unbounded model")

        monkeypatch.setattr(ConjugateFieldModel, "clamp", refuse)
        after = _run_ids(model, noise, domain, X0, eps, stop, 17, rows)
        tau_after = flow_exit_times_batch(model, SmoothDomain.ball(1.0), X0)
        for k in RESULT_KEYS:
            assert after[k].tobytes() == before[k].tobytes(), k
        assert tau_after.tobytes() == tau_before.tobytes()

    def test_quadratic_model_still_clamps_and_flags(self, monkeypatch):
        # Each path alone: clamp runs on every grid step up to the exit (and
        # on to the end of that sub-block), then on the branch of the last
        # step if it falls in that sub-block, and the path is flagged exactly
        # when clamp reported it over the radius on a step at or before its
        # exit; the last step's report is the branch's.
        model, noise, domain, X0, eps, stop = BATCH_CASES["quadratic_clamp"]
        m = X0.shape[0]
        n = math.ceil(stop / 1e-3 - 1e-12)
        whole = _run_ids(model, noise, domain, X0, eps, stop, 17, np.arange(m))
        original = ConjugateFieldModel.clamp
        overs = []

        def recording(self, X):
            Xc, over = original(self, X)
            overs.append(bool(over[0]))
            return Xc, over

        monkeypatch.setattr(ConjugateFieldModel, "clamp", recording)
        late = 0
        for p in range(m):
            overs.clear()
            one = _run_ids(model, noise, domain, X0, eps, stop, 17, np.array([p]))
            used = one["steps_used"][0]
            assert used <= len(overs) <= used + _SUB_STEPS
            flags = overs[:used]
            if used == n:
                flags[-1] = overs[-1]
            assert one["clamped"][0] == any(flags) == whole["clamped"][p]
            late += used < n and any(overs[used:]) and not any(flags)
        assert whole["clamped"].any() and not whole["clamped"].all()
        assert late  # some path was clamped only after its exit, unflagged


def _euler_reference(model, noise, domain, X0, epsilon, stop_time, dt, gens):
    """The per-step Euler loop that simulate_batch must match bit for bit.

    Row-major states, one exit check per grid step, and each path's noise
    block mixed on its own; the draws come in BLOCK_STEPS blocks, as the
    randomness contract fixes them.  A path's row of X stops changing when
    it exits, so X ends as end_state.
    """
    X = np.array(X0, dtype=float)
    m, d = X.shape
    n = noise.n
    n_steps = int(math.ceil(stop_time / dt - 1e-12)) if stop_time > 0.0 else 0
    res = {"exited": np.zeros(m, dtype=bool), "tau": np.full(m, np.nan),
           "steps_used": np.full(m, n_steps, dtype=np.int64),
           "end_state": X,
           "clamped": np.zeros(m, dtype=bool)}
    alive = np.ones(m, dtype=bool)
    if domain is not None:
        if isinstance(domain, BoxDomain):
            out = domain.not_strictly_inside(model.push_batch(X))
        else:
            out = domain.outside(X)
        res["exited"][out] = True
        res["tau"][out] = 0.0
        res["steps_used"][out] = 0
        alive &= ~out
    noise_of = {}
    for step in range(1, n_steps + 1):
        rows = np.flatnonzero(alive)
        if rows.size == 0:
            break
        j = (step - 1) % BLOCK_STEPS
        if j == 0:
            kb = min(BLOCK_STEPS, n_steps - step + 1)
            for r in rows:
                z = gens[r].standard_normal(kb * n).reshape(kb, n)
                noise_of[r] = z @ noise.sigma0.T if noise.constant else z
        h = stop_time - (n_steps - 1) * dt if step == n_steps else dt
        x = X[rows]
        x = x + model.drift_batch(x) * h
        w = np.stack([noise_of[r][j] for r in rows])
        if not noise.constant:
            w = np.einsum("rdn,rn->rd", noise.sigma_batch(X[rows]), w)
        x = x + (epsilon * math.sqrt(h)) * w
        if math.isfinite(model.validity_radius):
            x, over = model.clamp(x)
            res["clamped"][rows[over]] = True
        X[rows] = x
        if domain is None:
            continue
        if isinstance(domain, BoxDomain):
            out = domain.outside(model.push_batch(x))
        else:
            out = domain.outside(x)
        hit = rows[out]
        res["exited"][hit] = True
        res["tau"][hit] = stop_time if step == n_steps else step * dt
        res["steps_used"][hit] = step
        alive[hit] = False
    return res


def _starts_exiting_at(steps, dt):
    """1-d identity starts whose eps = 0 path leaves [-1, 1] on the given steps.

    x_k = x0 (1 + dt)^k, so x0 = (1 + dt)^-(e - 1/2) crosses 1 half way
    through the growth of step e; a noise of 1e-6 cannot move that.
    """
    return np.array([[(1.0 + dt) ** -(e - 0.5)] for e in steps])


_Q1 = ConjugateFieldModel.component_quadratic(S1, [1.0])  # validity radius 0.2
_EDGE_STEPS = [1, _SUB_STEPS - 1, _SUB_STEPS, _SUB_STEPS + 1, 2 * _SUB_STEPS,
               BLOCK_STEPS, BLOCK_STEPS + 1, BLOCK_STEPS + 6, 530, 531]
SUB_BLOCK_CASES = {
    # exits on the first and on the last step of sub-blocks and of a block
    "sub_block_edges": (ID1, N1, BOX1, _starts_exiting_at(_EDGE_STEPS, 1e-3),
                        1e-6, 0.6, 1e-3),
    # fewer steps than one sub-block
    "short_run": (ID2, NoiseModel(np.eye(2)), _BOX2,
                  np.random.default_rng(7).uniform(0.4, 0.49, (16, 2)),
                  0.3, 0.02, 1e-3),
    # a tail block of 38 steps (32 + 6) that ends in a 0.44 dt step, taken
    # by exits: the last start crosses only on that partial step
    "partial_final_step": (ID1, N1, BOX1, np.vstack([
        _starts_exiting_at([BLOCK_STEPS + 33, BLOCK_STEPS + 37], 1e-3),
        [[1.0 / ((1.0 + 1e-3) ** (BLOCK_STEPS + 37) * (1.0 + 0.2 * 1e-3))]],
        np.linspace(-0.05, 0.05, 5)[:, None]]), 1e-6, _STOP, 1e-3),
    # pure propagation over fewer steps than one sub-block
    "no_domain_short": (ID2, NoiseModel([[1.0, 0.5], [0.0, 2.0]]), None,
                        _box_starts(2, 8, np.random.default_rng(8)),
                        0.3, 0.0235, 1e-3),
    # the pulled-back upper side x = 0.19 lies just inside the validity
    # radius 0.2: paths cross it, then reach the radius a few steps later
    "clamp_after_exit": (_Q1, NoiseModel([[0.1]]), BoxDomain([-0.3], [0.19 + 0.19**2]),
                         np.linspace(0.1, 0.15, 24)[:, None], 0.05, 2.0, 1e-2),
    # 46 steps, the last of 0.5 dt; the box holds f of the validity cube, so
    # no path leaves.  From about 0.19242 the path reaches the radius 0.2
    # on step 45: the starts below it reach it on the last step, and the
    # lowest ones only on a full-size last step, which is not taken
    "clamp_on_last_step": (_Q1, NoiseModel([[0.01]]), BoxDomain([-0.3], [0.3]),
                           0.19242 + np.linspace(-2.5e-4, 0.5e-4, 24)[:, None],
                           0.01, 0.0455, 1e-3),
    # 46 steps, the last of 0.5 dt: rows 0 and 1 cross the radius half way
    # through the last step, row 2 only on a full-size last step, row 3 on
    # step 10, and rows 4 and 5 stay inside
    "ball_last_step": (ID2, NoiseModel.state_scaled(np.eye(2), 0.5),
                       SmoothDomain.ball(0.5), np.array([
                           [0.5 / (1.01**45 * 1.0025), 0.0],
                           [-0.5 / (1.01**45 * 1.0025), 0.0],
                           [0.5 / (1.01**45 * 1.0075), 0.0],
                           [0.5 / 1.01**9.5, 0.0], [0.1, 0.1], [-0.2, 0.05]]),
                       1e-4, 0.455, 1e-2),
}


class TestReferenceStepper:
    """simulate_batch equals the per-step Euler loop, bit for bit."""

    @staticmethod
    def _both(model, noise, domain, X0, eps, stop, dt):
        def gens():
            return [make_generator(23, p) for p in range(X0.shape[0])]

        got = simulate_batch(model, noise, domain, X0, eps, stop, dt, gens())
        want = _euler_reference(model, noise, domain, X0, eps, stop, dt, gens())
        assert set(got) == set(RESULT_KEYS)
        for k in RESULT_KEYS:
            assert got[k].dtype == want[k].dtype, k
            assert got[k].tobytes() == want[k].tobytes(), k
        return got

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_batch_cases(self, case, mapped, monkeypatch):
        _map_every_buffer(monkeypatch, mapped)
        model, noise, domain, X0, eps, stop = BATCH_CASES[case]
        self._both(model, noise, domain, X0, eps, stop, 1e-3)

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("case", sorted(SUB_BLOCK_CASES))
    def test_sub_block_cases(self, case, mapped, monkeypatch):
        _map_every_buffer(monkeypatch, mapped)
        self._both(*SUB_BLOCK_CASES[case])

    def test_cases_reach_their_branches(self, monkeypatch):
        def run(case):
            return self._both(*SUB_BLOCK_CASES[case])

        res = run("sub_block_edges")
        np.testing.assert_array_equal(res["steps_used"], _EDGE_STEPS)
        res = run("short_run")
        assert res["steps_used"].max() == 20 < _SUB_STEPS
        assert (res["exited"] & (res["tau"] > 0.0)).any()
        assert not res["exited"].all()
        res = run("partial_final_step")
        n = BLOCK_STEPS + 38
        np.testing.assert_array_equal(res["steps_used"][:3],
                                      [BLOCK_STEPS + 33, BLOCK_STEPS + 37, n])
        assert res["tau"][2] == _STOP
        assert not res["exited"][3:].any()
        res = run("no_domain_short")
        assert res["steps_used"].max() == 24 < _SUB_STEPS
        assert np.isfinite(res["end_state"]).all()
        model, noise, domain, X0, eps, stop, dt = SUB_BLOCK_CASES["clamp_after_exit"]
        res = run("clamp_after_exit")
        free = simulate_batch(model, noise, None, X0, eps, stop, dt,
                              [make_generator(23, p) for p in range(X0.shape[0])])
        late = res["exited"] & ~res["clamped"] & free["clamped"]
        # exits that are not on a sub-block's last step, clamped only later
        assert (late & (res["steps_used"] % _SUB_STEPS != 0)).any()
        # each row's first clamp step, from the clamps of the per-step loop
        model, noise, domain, X0, eps, stop, dt = SUB_BLOCK_CASES["clamp_on_last_step"]
        res = run("clamp_on_last_step")
        seen = []
        real = ConjugateFieldModel.clamp

        def recording(self, X):
            seen.append(X.copy())  # every row, each step, before the clamp
            return real(self, X)

        monkeypatch.setattr(ConjugateFieldModel, "clamp", recording)
        _euler_reference(model, noise, domain, X0, eps, stop, dt,
                         [make_generator(23, p) for p in range(X0.shape[0])])
        n = len(seen)
        over = np.abs(np.array(seen)[:, :, 0]) > model.validity_radius
        first = np.where(over.any(axis=0), over.argmax(axis=0) + 1, 0)
        assert n == 46 and not res["exited"].any()
        np.testing.assert_array_equal(res["clamped"], first > 0)
        assert (first == n).any() and (first == n - 1).any()
        # unclamped rows that a full-size last step would take past the radius
        x = seen[n - 2]
        full = x + dt * model.drift_batch(x)
        assert ((full[:, 0] > 0.2 + 1e-5) & ~res["clamped"]).any()
        res = run("ball_last_step")
        np.testing.assert_array_equal(res["exited"], [1, 1, 0, 1, 0, 0])
        np.testing.assert_array_equal(res["steps_used"], [46, 46, 46, 10, 46, 46])
        assert (res["tau"][:2] == 0.455).all() and res["tau"][3] == 0.1


class TestMappedNoiseBuffer:
    """A batch whose noise buffer is a mapping of its own steps bit for bit
    as the per-step loop."""

    def test_buffer_is_mapped_from_the_threshold_on(self):
        small = sde._noise_buffer(_MAPPED_BYTES // 8 - 1)
        big = sde._noise_buffer(_MAPPED_BYTES // 8)
        assert small.base is None
        assert isinstance(big.base.obj, mmap.mmap)
        assert big.flags.writeable and big.size == _MAPPED_BYTES // 8

    # the state-scaled noise has n = 2 columns for d = 1, so its buffer is
    # sized by n, not d
    @pytest.mark.parametrize("noise", [N1, NoiseModel.state_scaled([[1.0, 0.5]], 0.5)],
                             ids=["constant", "state_scaled"])
    def test_mapped_batch_matches_the_reference(self, noise, monkeypatch):
        made = []

        def spy(n, real=sde._noise_buffer):
            made.append(real(n))
            return made[-1]

        monkeypatch.setattr(sde, "_noise_buffer", spy)
        m = _MAPPED_BYTES // (8 * BLOCK_STEPS * noise.n) + 1
        X0 = np.linspace(-0.5, 0.5, m)[:, None]
        stop = (BLOCK_STEPS + 88) * 1e-3  # a second, shorter block
        got = simulate_batch(ID1, noise, BOX1, X0, 0.3, stop, 1e-3,
                             [make_generator(29, p) for p in range(m)])
        assert len(made) == 1 and isinstance(made[0].base.obj, mmap.mmap)
        want = _euler_reference(ID1, noise, BOX1, X0, 0.3, stop, 1e-3,
                                [make_generator(29, p) for p in range(m)])
        for k in RESULT_KEYS:
            assert got[k].tobytes() == want[k].tobytes(), k
        assert got["exited"].any() and not got["exited"].all()


def _stacked_rows(model, noise, domain, cells, dt):
    """simulate_batch's arguments for every cell's rows stacked cell-major,
    and the stream count.  A cell is (X0, epsilon, stop_time); row p of
    each cell steps on stream p."""
    n = cells[0][0].shape[0]
    return (model, noise, domain, np.vstack([X0 for X0, _, _ in cells]),
            np.repeat([eps for _, eps, _ in cells], n),
            np.repeat([stop for _, _, stop in cells], n), dt, n)


def _stacked(model, noise, domain, cells, dt, seed=31):
    """simulate_batch of every cell's rows stacked on one set of path
    streams, row p of each cell on the stream of path p."""
    *args, n = _stacked_rows(model, noise, domain, cells, dt)
    return simulate_batch(*args, [make_generator(seed, p) for p in range(n)])


class _Sized:
    """A path stream that records the size of each draw."""

    def __init__(self, gen):
        self.gen, self.sizes = gen, []

    def standard_normal(self, out):
        self.sizes.append(out.size)
        return self.gen.standard_normal(out=out)


def _stacked_and_alone(model, noise, domain, cells, dt, seed=31):
    """_stacked, checked bit for bit against each cell run alone."""
    n = cells[0][0].shape[0]
    got = _stacked(model, noise, domain, cells, dt, seed)
    for c, (X0, eps, stop) in enumerate(cells):
        alone = simulate_batch(model, noise, domain, X0, eps, stop, dt,
                               [make_generator(seed, p) for p in range(n)])
        for k in RESULT_KEYS:
            assert got[k][c * n:(c + 1) * n].tobytes() == alone[k].tobytes(), (c, k)
    return got


_S3 = Spectrum([1.0, 0.7, 0.4])
# 0 steps; 21 steps, which ends inside a sub-block; 550 steps, in the second
# block with a 0.44 dt final step; 900 and 1100 steps, in the second and
# third blocks
_CELL_STOPS = (0.0, 0.0205, _STOP, 0.9, 1.1)


def _cells(d, n, eps, seed, stops=_CELL_STOPS, edge=None):
    """Cells of _box_starts rows, or with edge, of 1-d starts whose rows
    1 and 4 lie on the edge and outside it."""
    rng = np.random.default_rng(seed)
    cells = []
    for e, t in zip(eps, stops):
        if edge is None:
            X0 = _box_starts(d, n, rng)
        else:
            X0 = rng.uniform(-0.3, 0.3, (n, 1))
            X0[1, 0], X0[4, 0] = edge, -1.5 * edge
        cells.append((X0, e, t))
    return cells


def _family(x, eps, stops):
    """Cells that start at epsilon * x: those whose epsilons differ by a
    power of two fold onto one carrier row per stream."""
    return [(e * x, e, t) for e, t in zip(eps, stops)]


# 24 starts x: for epsilon 0.2, row 1 starts on the box face, row 4
# outside it and rows 2 and 3 just inside it; the rest lie in (-4, 4)
_FOLD_X = np.vstack([[[0.3], [5.0], [4.97], [-4.98], [-7.0]],
                     np.random.default_rng(10).uniform(-4.0, 4.0, (19, 1))])
_CHAIN = (0.2, 0.1, 0.05, 0.025)


def _crossing_stops(eps, dt):
    """Stop times whose last step is the one on which the noiseless path
    from epsilon crosses 1: (1 + dt)**s * epsilon = 1 at s = n + f, and the
    last step, of size (f + 1/2) dt capped at dt, takes the path past 1."""
    stops = []
    for e in eps:
        s = math.log(1.0 / e) / math.log1p(dt)
        n = math.floor(s)
        stops.append(n * dt + dt * min(1.0, s - n + 0.5))
    return stops


_S3_MODEL = ConjugateFieldModel.identity(Spectrum([1.0, 0.7, 0.4]))
_S3_NOISE = NoiseModel([[1.0, 0.2, 0.0], [0.3, 0.8, 0.1], [0.0, 0.5, 1.2]])
_S3_BOX = BoxDomain([-0.5, -1.0, -0.7], [0.6, 0.8, 1.0])

# 5 cells of 24 rows on 24 streams; TestSubBlockLength also runs every case
# on sub-blocks of 1 and 3 step-rows per stream and of whole blocks
SHARED_CASES = {
    "d1_identity": (ID1, N1, BOX1, _cells(1, 24, (0.3, 0.2, 0.25, 0.3, 0.15), 1,
                                          edge=1.0), 1e-3),
    "d2_diagonal": (ID2, NoiseModel(np.diag([0.5, 2.0])), _BOX2,
                    _cells(2, 24, (0.3, 0.2, 0.25, 0.3, 0.15), 2), 1e-3),
    "d2_non_diagonal": (ID2, NoiseModel([[1.0, 0.0], [1.0, 1.0]]), _BOX2,
                        _cells(2, 24, (0.3, 0.2, 0.25, 0.3, 0.15), 3), 1e-3),
    "d2_state_scaled": (ID2, NoiseModel.state_scaled(
        [[1.0, 0.3, 0.2], [0.1, 1.0, 0.4]], 0.5), _BOX2,
        _cells(2, 24, (0.3, 0.2, 0.25, 0.3, 0.15), 4), 1e-3),
    "d2_no_domain": (ID2, NoiseModel([[1.0, 0.3, 0.2], [0.1, 1.0, 0.4]]), None,
                     _cells(2, 24, (0.3, 0.2, 0.25, 0.3, 0.15), 5), 1e-3),
    # the upper sides lie past the validity radius: paths there get clamped
    "d2_quadratic_clamp": (_QUAD2, NoiseModel(np.eye(2)),
                           BoxDomain([-0.15, -0.15], [0.3, 0.3]),
                           [(np.zeros((24, 2)), e, t) for e, t in
                            zip((0.3, 0.2, 0.25, 0.3, 0.15), _CELL_STOPS)], 1e-3),
    # 17, 549 (a 0.36 dt final step) and 807 steps on a dt that divides no stop
    "d3_non_diagonal_ball": (
        ConjugateFieldModel.identity(_S3),
        NoiseModel([[1.0, 0.2, 0.0], [0.3, 0.8, 0.1], [0.0, 0.5, 1.2]]),
        SmoothDomain.ball(0.6),
        _cells(3, 24, (0.2, 0.1, 0.15, 0.02), 6, (0.0, 0.05, 1.7, 2.5)), 0.0031),
    # sigma 0.7, and every cell has a start on the box and one outside it
    "d1_quadratic": (_Q1, NoiseModel([[0.7]]), BoxDomain([-0.12], [0.1]),
                     [(np.vstack([rng_x, [[0.1]], [[-0.3]]]), e, t) for rng_x, e, t in
                      zip(np.random.default_rng(7).uniform(-0.05, 0.05, (5, 22, 1)),
                          (0.1, 0.05, 0.08, 0.1, 0.03), _CELL_STOPS)], 1e-3),
    # 6 cells of 1 row: every row shares stream 0, and two rows reach the
    # third block, so every sub-block takes its rows' columns
    "one_stream": (ID1, N1, BOX1, [
        (np.array([[0.05 * (c % 3) - 0.05]]), 0.1 + 0.02 * c, t)
        for c, t in enumerate(_CELL_STOPS + (1.1,))], 1e-3),
    # 2 cells of 2 rows, each with one start outside the box: the alive rows
    # have a stream each, but in the order 1, 0, so they are taken
    "crossed_streams": (ID1, N1, BOX1, [(np.array([[1.5], [0.1]]), 0.2, 0.9),
                                        (np.array([[-0.1], [-1.5]]), 0.2, 0.9)],
                        1e-3),
    # 40 cells of 3 rows on 3 streams: with _SUB_STEPS step-rows per stream
    # alone, more rows than step-rows, so one step per sub-block
    "many_cells": (ID1, N1, BOX1, [
        (np.random.default_rng(c).uniform(-0.5, 0.5, (3, 1)), 0.05 + 0.01 * c,
         _CELL_STOPS[c % 5]) for c in range(40)], 1e-3),
    # a power-of-two chain: the smallest epsilon has the longest grid and
    # carries the family; 21 steps ends inside a sub-block, 550 ends in the
    # second block on a 0.44 dt step
    "fold_chain": (ID1, N1, BOX1, _family(_FOLD_X, _CHAIN,
                                          (0.0205, _STOP, 1.9, 2.6)), 1e-3),
    # alpha = 0 with r_coeff > 0: the largest epsilon has the longest grid,
    # so it carries, its start 5 * 0.2 lies on the face and -7 * 0.2
    # outside, and epsilon 0.025 has a one-step grid
    "fold_base_not_smallest": (ID1, N1, BOX1, _family(
        _FOLD_X, _CHAIN, (2.6, 1.9, _STOP, 0.001)), 1e-3),
    # 0.1 folds onto 0.05, 0.07 keeps its rows, on 2-d non-diagonal noise
    "fold_mixed": (ID2, NoiseModel([[1.0, 0.0], [1.0, 1.0]]), _BOX2, _family(
        np.random.default_rng(11).uniform(-3.0, 3.0, (24, 2)), (0.1, 0.07, 0.05),
        (1.2, 1.5, 1.9)), 1e-3),
    # sigma 1e-8: the rows from x = 1 and -1 of every cell leave on that
    # cell's last, partial step, rows 2 and 3 stay inside, and so does row
    # 4, which a full last step would take past 1 at epsilon 0.1 and 0.05
    "fold_last_step": (ID1, NoiseModel([[1e-8]]), BOX1, _family(
        np.array([[1.0], [-1.0], [0.5], [-0.25], [1.01 ** -0.545]]), (0.2, 0.1, 0.05),
        _crossing_stops((0.2, 0.1, 0.05), 1e-2)), 1e-2),
    # d = 3, non-diagonal sigma, a dt that divides no stop, the carrier in
    # the middle of the stack and a cell that is a copy of another
    "fold_d3": (_S3_MODEL, _S3_NOISE, _S3_BOX, _family(
        np.random.default_rng(12).uniform(-2.0, 2.0, (24, 3)),
        (0.2, 0.05, 0.1, 0.2), (0.05, 1.7, 2.5, 0.05)), 0.0031),
}


class TestSharedStreams:
    """Cells stacked on shared path streams step as each cell alone."""

    @pytest.mark.parametrize("case", sorted(SHARED_CASES))
    def test_stacked_cells_match_separate_runs(self, case):
        _stacked_and_alone(*SHARED_CASES[case])

    def test_cases_reach_their_branches(self):
        def run(case):
            return _stacked_and_alone(*SHARED_CASES[case])

        res = run("d1_identity")
        zero = slice(0, 24)  # the cell with stop time 0
        assert (res["steps_used"][zero] == 0).all()
        # only the starts on and outside the box exit, at tau = 0
        np.testing.assert_array_equal(np.flatnonzero(res["exited"][zero]), [1, 4])
        assert (res["tau"][zero][[1, 4]] == 0.0).all()
        for c, n in enumerate((21, 550, 900, 1100), start=1):
            rows = res["steps_used"][24 * c:24 * (c + 1)]
            assert (rows == n).any() and (rows < n).any(), (c, n)
        res = run("d2_quadratic_clamp")
        assert (res["clamped"] & res["exited"]).any()
        assert (res["clamped"] & ~res["exited"]).any()
        res = run("d3_non_diagonal_ball")
        assert (res["steps_used"] == 549).any() and (res["steps_used"] == 807).any()
        assert res["exited"].any()
        res = run("d1_quadratic")
        assert (res["tau"].reshape(5, 24)[:, 22:] == 0.0).all()  # the last two
        res = run("crossed_streams")
        np.testing.assert_array_equal(res["steps_used"], [0, 900, 900, 0])
        res = run("one_stream")
        assert (res["steps_used"][-2:] == 1100).all()  # two rows in block 3

    @staticmethod
    def _families(model, noise, domain, cells, dt):
        """sde._families of the stacked rows of cells, as _stacked_and_alone
        stacks them."""
        n = cells[0][0].shape[0]
        stops = np.repeat([stop for _, _, stop in cells], n)
        return sde._families(
            model, noise, domain, np.vstack([X0 for X0, _, _ in cells]),
            np.repeat([eps for _, eps, _ in cells], n),
            np.ceil(stops / dt - 1e-12).astype(np.int64), n)

    @pytest.mark.parametrize("case, carriers, exponents", [
        ("fold_chain", 24, [0, 1, 2, 3]),
        ("fold_base_not_smallest", 24, [-3, -2, -1, 0]),
        ("fold_mixed", 48, [0, 1]),  # 24 carry 0.1 and 0.05, 24 carry 0.07
        ("fold_d3", 24, [-1, 0, 1]),
        ("fold_last_step", 5, [0, 1, 2])])
    def test_fold_cases_fold(self, case, carriers, exponents):
        car, k = self._families(*SHARED_CASES[case])
        assert np.unique(car).size == carriers
        np.testing.assert_array_equal(np.unique(k), exponents)

    def test_fold_cases_reach_their_branches(self):
        def run(case):
            res = _stacked_and_alone(*SHARED_CASES[case])
            cells = SHARED_CASES[case][3]
            return {key: v.reshape(len(cells), -1, *v.shape[1:])
                    for key, v in res.items()}

        res = run("fold_chain")
        # epsilon 0.2: the start on the face and the one outside leave at 0
        np.testing.assert_array_equal(np.flatnonzero(res["tau"][0] == 0.0), [1, 4])
        for c, n in enumerate((21, 550, 1900, 2600)):
            rows = res["steps_used"][c]
            assert (rows == n).any() and ((0 < rows) & (rows < n)).any(), (c, n)
        res = run("fold_base_not_smallest")
        # the carrier, epsilon 0.2, leaves at once from rows 1 and 4 and
        # later from every row; its members step on past its exits
        np.testing.assert_array_equal(np.flatnonzero(res["tau"][0] == 0.0), [1, 4])
        assert res["exited"][0].all() and not res["exited"][1].all()
        assert (res["steps_used"][1] > res["steps_used"][0]).any()
        assert (res["steps_used"][3] == 1).all()  # the one-step grid
        res = run("fold_mixed")
        assert all(res["exited"][c].any() and not res["exited"][c].all()
                   for c in range(3))
        res = run("fold_last_step")
        n = [162, 232, 302]
        np.testing.assert_array_equal(res["steps_used"][:, :2], np.c_[n, n])
        assert res["exited"][:, :2].all() and not res["exited"][:, 2:].any()
        np.testing.assert_array_equal(
            res["tau"][:, :2], np.c_[_crossing_stops((0.2, 0.1, 0.05), 1e-2)][:, [0, 0]])
        res = run("fold_d3")
        assert (res["steps_used"][1] == 549).any() and (res["steps_used"][2] == 807).any()
        assert res["exited"][2].sum() > res["exited"][1].sum() > 0

    @pytest.mark.parametrize("case", ["fold_chain", "fold_base_not_smallest",
                                      "fold_mixed", "fold_d3", "fold_last_step",
                                      "d1_identity"])
    def test_every_exit_is_judged_by_the_domain(self, case, monkeypatch):
        # each exit after t = 0 ends in a state that BoxDomain.outside
        # flagged, whether its row was folded, a carrier or on its own
        flagged = set()
        real = BoxDomain.outside

        def recording(self, Y):
            out = real(self, Y)
            flagged.update(row.tobytes() for row in np.asarray(Y)[out])
            return out

        monkeypatch.setattr(BoxDomain, "outside", recording)
        res = _stacked(*SHARED_CASES[case])
        later = res["exited"] & (res["tau"] > 0.0)
        assert later.any()
        unseen = [r for r in res["end_state"][later] if r.tobytes() not in flagged]
        assert not unseen, f"{len(unseen)} of {later.sum()} exits unseen"

    def test_what_does_not_fold(self):
        """Folding needs the identity model with an infinite validity
        radius, constant noise, a box, and power-of-two starts."""
        x = _FOLD_X
        chain = _family(x, _CHAIN, (0.5, 0.6, 0.7, 0.8))
        assert self._families(ID1, N1, BOX1, chain, 1e-3) is not None
        bounded = ConjugateFieldModel.identity(S1)
        bounded.validity_radius = 2.0
        # a model that only says it is the identity: its drift is not
        # checked to be lambda * x, so it does not fold
        labelled = ConjugateFieldModel(
            S1, f=lambda X: X, f_inv=lambda Y: Y,
            df=lambda X: np.ones((X.shape[0], 1, 1)), variant="identity")
        assert ID1.linear and not labelled.linear
        for model, noise, domain in [
                (labelled, N1, BOX1),
                (_Q1, N1, BOX1),
                (ID1, NoiseModel.state_scaled([[1.0]], 0.5), BOX1),
                (bounded, N1, BOX1),
                (ID1, N1, SmoothDomain.ball(1.0))]:
            assert self._families(model, noise, domain, chain, 1e-3) is None
        # initial.rho = 0.3: the start epsilon * x * epsilon**-rho is no
        # power-of-two multiple across epsilons, though the mantissas match
        scale = InitialScaleSpec(rho=0.3)
        cells = [(e * scale.value(e) * x, e, t) for _, e, t in chain]
        assert self._families(ID1, N1, BOX1, cells, 1e-3) is None

    def test_direct_1d_steps_one_row_per_path(self, monkeypatch):
        # the direct-1d shape: epsilon 0.2, 0.1 and 0.05 from x = 0 fold
        # onto the 0.05 rows, which leave last: the engine steps those rows
        # to their exit, on to their sub-block's end, and one branch step
        # for each of the other two cells
        rows = []
        real = ConjugateFieldModel.drift_batch

        def counted(self, X):
            rows.append(X.shape[0])
            return real(self, X)

        monkeypatch.setattr(ConjugateFieldModel, "drift_batch", counted)
        n = 256
        ests = direct_tail_estimate(
            ID1, N1, BOX1, [(np.zeros(1), e) for e in (0.2, 0.1, 0.05)],
            ThresholdSpec(alpha=1.5), n, PathConfig(), 1)
        steps = [est.path_steps for est in ests]
        assert steps[2] < sum(rows) <= steps[2] + (_SUB_STEPS + 2) * n
        assert sum(rows) < 0.5 * sum(steps)

    def test_each_stream_is_drawn_once_per_block(self):
        model, noise, domain, cells, dt = SHARED_CASES["d1_identity"]
        gens = [_Sized(make_generator(31, p)) for p in range(24)]
        simulate_batch(model, noise, None, np.vstack([c[0] for c in cells]),
                       np.repeat([c[1] for c in cells], 24),
                       np.repeat([c[2] for c in cells], 24), dt, gens)
        # without exits every stream lives to the longest grid, 1100 steps
        want = [BLOCK_STEPS, BLOCK_STEPS, 1100 - 2 * BLOCK_STEPS]
        for g in gens:
            assert g.sizes == want


# (model, noise, domain, X0, epsilon per row, stop time per row, dt, streams)
STREAM_END_CASES = {
    # 4 cells on 24 shared streams: a stream's rows exit at their own steps
    "stacked": _stacked_rows(ID1, N1, BoxDomain([-0.5], [0.5]), _cells(
        1, 24, (0.3, 0.3, 0.25, 0.2), 15, (0.3, 0.6, 0.9, 1.2), edge=0.5), 1e-3),
    "folded": _stacked_rows(*SHARED_CASES["fold_base_not_smallest"]),
    # a row per stream, as the adjusted estimator stacks its cells, on grids
    # of 21 to 1900 steps
    "own_streams": (ID2, NoiseModel(np.diag([0.5, 2.0])), _BOX2,
                    _box_starts(2, 24, np.random.default_rng(13)), 0.3,
                    np.resize([0.0205, _STOP, 0.9, 1.1, 1.9, 0.5], 24), 1e-3, 24),
    # no exits: stream 0's 513-step grid, with a 0.5 dt last step, ends one
    # step into the second block, which the other streams draw to 1100 steps
    "one_step_into_a_block": (ID2, NoiseModel([[1.0, 0.0], [1.0, 1.0]]), None,
                              np.random.default_rng(14).uniform(-0.1, 0.1, (6, 2)),
                              0.3, np.array([0.5125] + [1.1] * 5), 1e-3, 6),
}


class TestStreamEnds:
    """Each stream is drawn only to the longest grid left among its own
    alive rows, so a batch leaves every generator where that stream's rows
    alone would leave it."""

    @staticmethod
    def _alone(model, noise, domain, X0, eps, stop, dt, G, g, seed):
        """simulate_batch of the rows on stream g alone, and its generator."""
        own = np.arange(g, len(X0), G)
        gen = make_generator(seed, g)
        eps, stop = (np.broadcast_to(v, len(X0))[own] for v in (eps, stop))
        return own, gen, simulate_batch(model, noise, domain, X0[own], eps, stop,
                                        dt, [gen])

    @pytest.mark.parametrize("case", sorted(STREAM_END_CASES))
    def test_each_generator_ends_as_its_rows_alone_leave_it(self, case,
                                                           monkeypatch):
        *args, G = STREAM_END_CASES[case]
        # every entry of the noise buffer not written is nan, so a step that
        # read one would leave nan in a state or a flag
        monkeypatch.setattr(sde, "_noise_buffer", lambda n: np.full(n, np.nan))
        gens = [make_generator(41, g) for g in range(G)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = simulate_batch(*args, gens)
            for g in range(G):
                own, gen, alone = self._alone(*STREAM_END_CASES[case], g, 41)
                assert repr(gens[g].bit_generator.state) == repr(
                    gen.bit_generator.state), g
                for k in RESULT_KEYS:
                    assert got[k][own].tobytes() == alone[k].tobytes(), (g, k)

    @pytest.mark.parametrize("case", sorted(STREAM_END_CASES))
    def test_cases_end_streams_early(self, case):
        # in some block, a stream draws fewer steps than another stream
        *args, G = STREAM_END_CASES[case]
        gens = [_Sized(make_generator(41, g)) for g in range(G)]
        simulate_batch(*args, gens)
        sizes = [g.sizes for g in gens]
        blocks = max(map(len, sizes))
        most = [max(d[j] for d in sizes if len(d) > j) for j in range(blocks)]
        assert any(d[j] < most[j] for d in sizes for j in range(len(d)))
        if case == "one_step_into_a_block":
            assert sizes[0] == [BLOCK_STEPS * 2, 2]
            assert sizes[1] == [BLOCK_STEPS * 2] * 2 + [(1100 - 2 * BLOCK_STEPS) * 2]


_FAMILY_SETUPS = {1: (ID1, N1, BOX1),
                  2: (ID2, NoiseModel([[1.0, 0.0], [1.0, 1.0]]), _BOX2),
                  3: (_S3_MODEL, _S3_NOISE, _S3_BOX)}


@st.composite
def _power_of_two_families(draw):
    """(model, noise, box, cells, dt, seed): 2 to 4 cells on up to 8 streams
    whose epsilons and starts are 2**k times one base cell's, k in [-4, 6].
    A row starts inside the box for every cell, or on or outside it for the
    cell of one k, and each grid ends on a step of its own size."""
    d = draw(st.integers(1, 3))
    model, noise, box = _FAMILY_SETUPS[d]
    ks = draw(st.lists(st.integers(-4, 6), min_size=2, max_size=4))
    base = math.ldexp(draw(st.floats(0.05, 0.95)), -max(ks))
    n = draw(st.integers(1, 8))
    Z = np.empty((n, d))
    for r in range(n):
        u = np.array(draw(st.lists(st.floats(-0.95, 0.95), min_size=d, max_size=d)))
        y = np.where(u < 0.0, -u * box.lower, u * box.upper)
        on = draw(st.sampled_from([None, None, 1.0, 1.5]))  # in, on, out
        if on is not None:
            y[0] = on * draw(st.sampled_from([box.lower, box.upper]))[0]
        # the box is tightest for the largest k
        Z[r] = np.ldexp(y, -(max(ks) if on is None else draw(st.sampled_from(ks))))
    dt = draw(st.sampled_from([1e-2, 3.1e-3]))
    cells = []
    for k in ks:
        # lengths at sub-block and block edges, a one-step second block too
        steps = draw(st.integers(0, 600) | st.sampled_from([1, 32, 33, 512, 513]))
        last = draw(st.floats(0.05, 1.0))  # the last step, in units of dt
        cells.append((np.ldexp(Z, k), math.ldexp(base, k),
                      (steps - 1 + last) * dt if steps else 0.0))
    return model, noise, box, cells, dt, draw(st.integers(0, 2**32))


class TestPowerOfTwoFamilies:
    @given(_power_of_two_families())
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_stacked_families_match_separate_runs(self, case):
        _stacked_and_alone(*case)


# (_SUB_STEPS, _SUB_ROWS): one step per sub-block; 3 step-rows per stream;
# the per-stream budget alone; whole blocks
_SUB_BLOCK_SIZES = [(1, 1), (3, 3), (_SUB_STEPS, 1), (BLOCK_STEPS, 1 << 40)]
_SUB_BLOCK_RUNS = ([("shared", case) for case in sorted(SHARED_CASES)]
                   + [("batch", case) for case in ("quadratic_clamp", "ball",
                                                   "state_scaled", "solved_drift")]
                   + [("sub_block", case) for case in ("clamp_after_exit",
                                                       "clamp_on_last_step",
                                                       "ball_last_step")])


def _sub_block_run(table, case):
    """simulate_batch on a case of SHARED_CASES (stacked), BATCH_CASES or
    SUB_BLOCK_CASES (one row per stream)."""
    if table == "shared":
        return _stacked(*SHARED_CASES[case])
    if table == "batch":
        model, noise, domain, X0, eps, stop = BATCH_CASES[case]
        return _run_ids(model, noise, domain, X0, eps, stop, 17,
                        np.arange(X0.shape[0]))
    model, noise, domain, X0, eps, stop, dt = SUB_BLOCK_CASES[case]
    return simulate_batch(model, noise, domain, X0, eps, stop, dt,
                          [make_generator(23, p) for p in range(X0.shape[0])])


class TestSubBlockLength:
    """No output depends on how many steps a sub-block takes."""

    @pytest.mark.parametrize("steps, rows", _SUB_BLOCK_SIZES)
    @pytest.mark.parametrize("table, case", _SUB_BLOCK_RUNS)
    def test_outputs_do_not_depend_on_sub_block_length(self, table, case,
                                                      steps, rows, monkeypatch):
        want = _sub_block_run(table, case)
        monkeypatch.setattr(sde, "_SUB_STEPS", steps)
        monkeypatch.setattr(sde, "_SUB_ROWS", rows)
        got = _sub_block_run(table, case)
        for k in RESULT_KEYS:
            assert got[k].tobytes() == want[k].tobytes(), k

    def test_small_stacks_take_whole_sub_blocks(self, monkeypatch):
        # many_cells: 120 rows on 3 streams, no fold, one exit check per
        # sub-block.  The row budget gives them _SUB_STEPS steps; the
        # per-stream budget alone gives them one step at a time.  Each
        # branch, an Euler step of a per-row step column, is judged by one
        # more check, so the sub-blocks' checks are the rest.
        checks = [0]
        real_outside, real_euler = sde._outside, sde._euler

        def outside(model, domain, X):
            checks[0] += 1
            return real_outside(model, domain, X)

        def euler(model, x, h, *args, **kwargs):
            checks[0] -= np.ndim(h) > 0
            return real_euler(model, x, h, *args, **kwargs)

        monkeypatch.setattr(sde, "_outside", outside)
        monkeypatch.setattr(sde, "_euler", euler)
        _sub_block_run("shared", "many_cells")
        grid = 1100  # the longest grid, in blocks of 512, 512 and 76 steps
        assert checks[0] <= 2 * (BLOCK_STEPS // _SUB_STEPS) + math.ceil(
            (grid - 2 * BLOCK_STEPS) / _SUB_STEPS)
        checks[0] = 0
        monkeypatch.setattr(sde, "_SUB_ROWS", 1)
        _sub_block_run("shared", "many_cells")
        assert checks[0] > 4 * grid // _SUB_STEPS


class _Recorded(np.random.Generator):
    """A path stream that records the thread of each draw, in its own set
    and in a shared one, and raises `fails` instead of drawing where that
    is given."""

    def __init__(self, gen, threads, fails=None):
        super().__init__(gen.bit_generator)
        self.threads, self.fails, self.drawn_by = threads, fails, set()

    def standard_normal(self, *args, **kwargs):
        self.threads.add(threading.current_thread())
        self.drawn_by.add(threading.current_thread())
        if self.fails is not None:
            raise self.fails
        return super().standard_normal(*args, **kwargs)


class _StandIn:
    """Not a numpy Generator: a wrapper that counts its draws in shared,
    unlocked state, as a tracer's counting proxy does."""

    def __init__(self, gen, threads, counts):
        self.gen, self.threads, self.counts = gen, threads, counts

    def standard_normal(self, *args, **kwargs):
        self.threads.add(threading.current_thread())
        out = self.gen.standard_normal(*args, **kwargs)
        self.counts[0] += out.size
        return out


class _DrawFailed(Exception):
    pass


def _share(monkeypatch, share):
    monkeypatch.setattr(sde, "_draw_share", lambda: share)


# _MIX_PATHS values at which the cases' at most 24 streams span several
# groups, so a share of 2 or 3 draws them on as many threads
_SPLIT_MIX = [1, 4]
_SHARE_RUNS = ([("batch", case) for case in sorted(BATCH_CASES)]
               + [run for run in _SUB_BLOCK_RUNS if run[0] != "batch"])


class TestDrawShare:
    """No output depends on how many threads draw a block's noise."""

    def test_the_share_is_the_cpus_the_process_may_run_on(self):
        share = sde._draw_share()
        if hasattr(os, "sched_getaffinity"):
            assert share == len(os.sched_getaffinity(0))
        else:
            assert share == (os.cpu_count() or 1)

    @pytest.mark.parametrize("mix", _SPLIT_MIX)
    @pytest.mark.parametrize("share", [1, 2, 3])
    @pytest.mark.parametrize("table, case", _SHARE_RUNS)
    def test_outputs_do_not_depend_on_the_draw_share(self, table, case, share,
                                                     mix, monkeypatch):
        _share(monkeypatch, 1)
        want = _sub_block_run(table, case)
        _share(monkeypatch, share)
        monkeypatch.setattr(sde, "_MIX_PATHS", mix)
        got = _sub_block_run(table, case)
        for k in RESULT_KEYS:
            assert got[k].tobytes() == want[k].tobytes(), k

    @pytest.mark.parametrize("kb", [1, 2, 70])
    @pytest.mark.parametrize("sig", [
        np.eye(2),
        np.diag([0.5, -2.0]),
        np.array([[1.0, 0.3, 0.2], [0.1, 1.0, 0.4]]),  # a threaded matmul
        np.array([[1.0, 0.0], [1.0, 1.0]]),
    ], ids=["identity", "diagonal", "rect", "lower"])
    @pytest.mark.parametrize("share", [2, 3, 5])
    def test_threaded_block_equals_the_one_thread_block(self, share, sig, kb,
                                                        monkeypatch):
        # 197 streams, every other one of 394: four groups of 64, the last
        # of 5, so three threads take runs of 64, 64 and 69 streams
        ids = np.arange(0, 394, 2)

        def draw(share):
            _share(monkeypatch, share)
            threads = set()
            gens = [_Recorded(make_generator(8, p), threads) for p in range(394)]
            return _step_major_noise(gens, ids, kb, sig), threads, gens

        want, one, _ = draw(1)
        got, many, gens = draw(share)
        assert one == {threading.current_thread()}
        # one thread per run at most (a helper whose run is done may take
        # the next); the caller draws the first run, and one thread each
        # stream
        assert 2 <= len(many) <= min(share, 4)
        assert threading.current_thread() in many
        assert [len(gens[i].drawn_by) for i in ids] == [1] * ids.size
        assert got.tobytes() == want.tobytes()

    def test_more_threads_than_cpus_switching_every_microsecond(self,
                                                                monkeypatch):
        # 75 groups of 2 streams on 2 * cpus + 1 threads, which hand the
        # interpreter lock on as often as they can
        ids = np.arange(150)
        sig = np.array([[1.0, 0.3, 0.2], [0.1, 1.0, 0.4]])
        monkeypatch.setattr(sde, "_MIX_PATHS", 2)
        blocks = []
        for share in (1, 2 * (os.cpu_count() or 1) + 1):
            _share(monkeypatch, share)
            gens = [make_generator(3, p) for p in ids]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                blocks.append(_step_major_noise(gens, ids, 40, sig))
            finally:
                sys.setswitchinterval(interval)
        assert blocks[1].tobytes() == blocks[0].tobytes()

    def test_a_stand_in_generator_is_drawn_by_the_caller(self, monkeypatch):
        # a wrapper's unlocked bookkeeping is never shared between threads
        ids = np.arange(300)
        _share(monkeypatch, 3)
        threads, counts = set(), [0]
        gens = [_StandIn(make_generator(8, p), threads, counts) for p in ids]
        got = _step_major_noise(gens, ids, 40, np.eye(1))
        want = _step_major_noise([make_generator(8, p) for p in ids], ids, 40,
                                 np.eye(1))
        assert threads == {threading.current_thread()}
        assert counts == [300 * 40]
        assert got.tobytes() == want.tobytes()

    def test_threads_are_joined_before_simulate_batch_returns(self, monkeypatch):
        model, noise, domain, X0, eps, stop = BATCH_CASES["state_scaled"]
        monkeypatch.setattr(sde, "_MIX_PATHS", 4)
        before = threading.active_count()
        for share in (2, 3):
            _share(monkeypatch, share)
            _run_ids(model, noise, domain, X0, eps, stop, 17,
                     np.arange(X0.shape[0]))
            assert threading.active_count() == before

    def test_a_helpers_exception_is_raised_by_simulate_batch(self, monkeypatch):
        # 24 streams in 6 groups of 4 on 2 threads: the helper draws 12-23
        model, noise, domain, X0, eps, stop = BATCH_CASES["box"]
        monkeypatch.setattr(sde, "_MIX_PATHS", 4)
        _share(monkeypatch, 2)
        threads, fails = set(), _DrawFailed("stream 20")
        gens = [_Recorded(make_generator(17, p), threads,
                          fails if p == 20 else None) for p in range(24)]
        before = threading.active_count()
        with pytest.raises(_DrawFailed) as info:
            simulate_batch(model, noise, domain, X0, eps, stop, 1e-3, gens)
        assert info.value is fails
        assert threading.active_count() == before
        assert len(threads) == 2


class TestStepBookkeeping:
    def test_deterministic_exits_outside_starts_and_survivors(self):
        # eps = 1e-300 with lambda = 1: the noise is below half an ulp of
        # every state, so x_k = x0 (1 + dt)^k.  The third start is just
        # short of the edge after n - 1 steps and crosses it on the final
        # half step.
        dt, n = 1e-3, 600
        stop = (n - 1) * dt + 0.5 * dt
        x_last = 1.0 / ((1.0 + dt) ** (n - 1) * (1.0 + 0.25 * dt))
        X0 = np.array([[1.0], [-1.5], [x_last], [0.7], [0.1]])
        res = simulate_batch(ID1, N1, BOX1, X0, 1e-300, stop, dt,
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
        res = simulate_batch(ID2, NoiseModel(np.eye(2)), _BOX2,
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
        U = rescaled_fluctuation_samples(ID1, N1, np.array([0.5]), 0.1, 0.0,
                                         PathConfig(dt=1e-3), seed=0,
                                         n_samples=3)
        np.testing.assert_array_equal(U, np.zeros((3, 1)))

    def test_epsilon_zero_is_exact_zero_for_linear(self):
        U = rescaled_fluctuation_samples(ID1, N1, np.array([0.5]), 0.0, 1.0,
                                         PathConfig(dt=1e-3), seed=0,
                                         n_samples=3)
        np.testing.assert_array_equal(U, np.zeros((3, 1)))

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_rejects_y0_of_wrong_shape(self, epsilon):
        nm = NoiseModel(np.eye(2))
        with pytest.raises(ValueError, match=r"y0 must have shape \(2,\)"):
            rescaled_fluctuation_samples(ID2, nm, np.array([0.5]), epsilon,
                                         1.0, PathConfig(dt=1e-3), seed=0,
                                         n_samples=4)

    def test_workers_do_not_change_samples(self):
        nm = NoiseModel(np.eye(2))
        args = (ID2, nm, np.array([0.5, -0.3]), 0.1, 0.5, PathConfig(dt=1e-3))
        one = rescaled_fluctuation_samples(*args, seed=5, n_samples=300,
                                           batch_size=100, workers=1)
        two = rescaled_fluctuation_samples(*args, seed=5, n_samples=300,
                                           batch_size=100, workers=2)
        assert one.shape == (300, 2)
        assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("T", [-1.0, math.inf, math.nan])
    def test_rejects_bad_horizon(self, T):
        # checked before the eps = 0 shortcut, which would return zeros
        with pytest.raises(ValueError, match="T must be finite and >= 0"):
            rescaled_fluctuation_samples(ID1, N1, np.array([0.5]), 0.0, T,
                                         PathConfig(dt=1e-3), seed=0,
                                         n_samples=4)

    def test_covariance_matches_finite_time(self):
        sigma = np.array([[1.0, 0.0], [1.0, 1.0]])
        nm = NoiseModel(sigma)
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
        nm = NoiseModel(np.array([[0.3]]))
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
