import math
import mmap

import numpy as np
import pytest
from scipy.special import ndtr

from exitlab import (
    BLOCK_STEPS,
    BoxDomain,
    ConjugateFieldModel,
    NoiseModel,
    PathConfig,
    SmoothDomain,
    Spectrum,
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


def _one_path(x0, epsilon, stop_time, seed, pid):
    """simulate_batch on a single 1-d path in BOX1; row 0 of each result."""
    res = simulate_batch(ID1, N1, BOX1, np.array([[x0]]), epsilon,
                         stop_time, 1e-3, [make_generator(seed, pid)])
    return {key: res[key][0] for key in RESULT_KEYS}


class TestSimulatePath:
    """Outcomes of single paths, run through simulate_batch."""

    def test_zero_noise_exit_time(self):
        obs = _one_path(0.5, 0.0, 5.0, 0, 0)
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
        for i in ex:
            tau, exit_y = res["tau"][i], res["exit_y"][i]
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


class TestClampSkip:
    """An infinite validity radius never reaches clamp; a finite one does."""

    def test_identity_model_never_reaches_clamp(self, monkeypatch):
        model, noise, domain, X0, eps, stop = BATCH_CASES["box"]
        rows = np.arange(X0.shape[0])
        before = _run_ids(model, noise, domain, X0, eps, stop, 17, rows, True)
        tau_before = flow_exit_times_batch(model, SmoothDomain.ball(1.0), X0)

        def refuse(self, X):
            raise AssertionError("clamp called on an unbounded model")

        monkeypatch.setattr(ConjugateFieldModel, "clamp", refuse)
        after = _run_ids(model, noise, domain, X0, eps, stop, 17, rows, True)
        tau_after = flow_exit_times_batch(model, SmoothDomain.ball(1.0), X0)
        for k in RESULT_KEYS + ("final_state",):
            assert after[k].tobytes() == before[k].tobytes(), k
        assert tau_after.tobytes() == tau_before.tobytes()

    def test_quadratic_model_still_clamps_and_flags(self, monkeypatch):
        # Each path alone: clamp runs on every step up to the exit (and on to
        # the end of that sub-block), and the path is flagged exactly when
        # clamp reported it over the radius on a step at or before its exit.
        model, noise, domain, X0, eps, stop = BATCH_CASES["quadratic_clamp"]
        m = X0.shape[0]
        whole = _run_ids(model, noise, domain, X0, eps, stop, 17,
                         np.arange(m), False)
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
            one = _run_ids(model, noise, domain, X0, eps, stop, 17,
                           np.array([p]), False)
            used = one["steps_used"][0]
            assert used <= len(overs) < used + _SUB_STEPS
            assert one["clamped"][0] == any(overs[:used]) == whole["clamped"][p]
            late += any(overs[used:]) and not any(overs[:used])
        assert whole["clamped"].any() and not whole["clamped"].all()
        assert late  # some path was clamped only after its exit, unflagged


def _euler_reference(model, noise, domain, X0, epsilon, stop_time, dt, gens,
                     want_final=False):
    """The per-step Euler loop that simulate_batch must match bit for bit.

    Row-major states, one exit check per grid step, and each path's noise
    block mixed on its own; the draws come in BLOCK_STEPS blocks, as the
    randomness contract fixes them.
    """
    X = np.array(X0, dtype=float)
    m, d = X.shape
    n = noise.n
    n_steps = int(math.ceil(stop_time / dt - 1e-12)) if stop_time > 0.0 else 0
    res = {"exited": np.zeros(m, dtype=bool), "tau": np.full(m, np.nan),
           "steps_used": np.full(m, n_steps, dtype=np.int64),
           "exit_state": np.full((m, d), np.nan),
           "exit_y": np.full((m, d), np.nan),
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
        res["exit_state"][out] = X[out]
        res["exit_y"][out] = model.push_batch(X[out])
        alive &= ~out
    noise_of = {}
    for step in range(1, n_steps + 1):
        rows = np.flatnonzero(alive)
        if rows.size == 0:
            break
        j = (step - 1) % BLOCK_STEPS
        if j == 0 and epsilon > 0.0:
            kb = min(BLOCK_STEPS, n_steps - step + 1)
            for r in rows:
                z = gens[r].standard_normal(kb * n).reshape(kb, n)
                noise_of[r] = z @ noise.sigma0.T if noise.constant else z
        h = stop_time - (n_steps - 1) * dt if step == n_steps else dt
        x = X[rows]
        x = x + model.drift_batch(x) * h
        if epsilon > 0.0:
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
        res["exit_state"][hit] = x[out]
        res["exit_y"][hit] = model.push_batch(x[out])
        alive[hit] = False
    if want_final:
        res["final_state"] = np.where(alive[:, None], X, np.nan)
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
}


class TestReferenceStepper:
    """simulate_batch equals the per-step Euler loop, bit for bit."""

    @staticmethod
    def _both(model, noise, domain, X0, eps, stop, dt, want_final):
        def gens():
            return [make_generator(23, p) for p in range(X0.shape[0])]

        got = simulate_batch(model, noise, domain, X0, eps, stop, dt, gens(),
                             want_final=want_final)
        want = _euler_reference(model, noise, domain, X0, eps, stop, dt,
                                gens(), want_final)
        keys = RESULT_KEYS + (("final_state",) if want_final else ())
        for k in keys:
            assert got[k].dtype == want[k].dtype, k
            assert got[k].tobytes() == want[k].tobytes(), k
        return got

    @pytest.mark.parametrize("want_final", [False, True])
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_batch_cases(self, case, want_final):
        model, noise, domain, X0, eps, stop = BATCH_CASES[case]
        self._both(model, noise, domain, X0, eps, stop, 1e-3, want_final)

    @pytest.mark.parametrize("want_final", [False, True])
    @pytest.mark.parametrize("case", sorted(SUB_BLOCK_CASES))
    def test_sub_block_cases(self, case, want_final):
        self._both(*SUB_BLOCK_CASES[case], want_final)

    def test_cases_reach_their_branches(self):
        def run(case):
            return self._both(*SUB_BLOCK_CASES[case], True)

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
        assert np.isfinite(res["final_state"]).all()
        model, noise, domain, X0, eps, stop, dt = SUB_BLOCK_CASES["clamp_after_exit"]
        res = run("clamp_after_exit")
        free = simulate_batch(model, noise, None, X0, eps, stop, dt,
                              [make_generator(23, p) for p in range(X0.shape[0])])
        late = res["exited"] & ~res["clamped"] & free["clamped"]
        # exits that are not on a sub-block's last step, clamped only later
        assert (late & (res["steps_used"] % _SUB_STEPS != 0)).any()


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
