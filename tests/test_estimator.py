import contextlib
import dataclasses
import inspect
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import exitlab.estimator as est
from exitlab import (
    BoxDomain,
    ConjugateFieldModel,
    DegenerateFit,
    ExitlabError,
    NoiseModel,
    PathConfig,
    SmoothDomain,
    Spectrum,
    ThresholdSpec,
    adjusted_tail_estimate,
    density_diagnostic,
    direct_tail_estimate,
    finite_time_covariance,
    parse_config,
    rescaled_fluctuation_samples,
    rescaled_prefactor,
    run_estimate,
    slope_regression,
    splitting_tail_estimate,
)
from exitlab.estimator import MIN_DENSITY_SAMPLES
from exitlab.harness import rows_csv_text

S1 = Spectrum([1.0])
ID1 = ConjugateFieldModel.identity(S1)
N1 = NoiseModel(np.array([[1.0]]))
BOX1 = BoxDomain([-1.0], [1.0])
CFG = PathConfig(dt=1e-3)


def bernoulli_setup(p_survive, dt=1e-3, epsilon=0.1):
    """One-step experiment whose survival is an exact Bernoulli(p_survive).

    From X0 = 0 the first Euler step is pure noise eps*sqrt(dt)*xi, so a box
    at +-z*eps*sqrt(dt) with z the (0.5 + p/2) normal quantile survives with
    probability exactly p_survive.
    """
    z = ndtri(0.5 + 0.5 * p_survive)
    L = z * epsilon * math.sqrt(dt)
    box = BoxDomain([-L], [L])
    ts = ThresholdSpec(alpha=0.0, r0=dt)
    return box, ts


class TestDirectEstimate:
    def test_zero_threshold_is_certain_survival(self):
        ts = ThresholdSpec(alpha=0.0, r0=0.0)
        est = direct_tail_estimate(ID1, N1, BOX1, [(np.zeros(1), 0.1)], ts,
                                   n_paths=500, config=CFG, seed=1)[0]
        assert est.p_hat == 1.0
        assert est.stderr == 0.0
        assert est.n_survived == 500

    def test_estimate_fields_are_exact(self):
        box, ts = bernoulli_setup(0.3)
        est = direct_tail_estimate(ID1, N1, box, [(np.zeros(1), 0.1)], ts,
                                   n_paths=2000, config=CFG, seed=8)[0]
        assert est.method == "direct"
        assert est.p_hat == est.n_survived / est.n_paths
        assert est.stderr == math.sqrt(est.p_hat * (1 - est.p_hat) / est.n_paths)

    def test_known_bernoulli_probability(self):
        box, ts = bernoulli_setup(0.3)
        n = 10**5
        est = direct_tail_estimate(ID1, N1, box, [(np.zeros(1), 0.1)], ts,
                                   n_paths=n, config=CFG, seed=31)[0]
        tol = 4.0 * math.sqrt(0.3 * 0.7 / n)
        assert abs(est.p_hat - 0.3) <= tol

    def test_unbiased_over_repetitions(self):
        box, ts = bernoulli_setup(0.3)
        reps = 200
        n = 500
        vals = []
        for r in range(reps):
            est = direct_tail_estimate(ID1, N1, box, [(np.zeros(1), 0.1)], ts,
                                       n_paths=n, config=CFG, seed=1000 + r)[0]
            vals.append(est.p_hat)
        mean = float(np.mean(vals))
        se_mean = math.sqrt(0.3 * 0.7 / (n * reps))
        assert abs(mean - 0.3) <= 4.0 * se_mean

    def test_seed_determinism_across_workers(self):
        box, ts = bernoulli_setup(0.25)
        runs = [
            direct_tail_estimate(ID1, N1, box, [(np.zeros(1), 0.1)], ts,
                                 n_paths=5000, config=CFG, seed=77,
                                 workers=w, batch_size=512)[0]
            for w in (1, 2, 4)
        ]
        assert runs[0].p_hat == runs[1].p_hat == runs[2].p_hat
        assert runs[0].n_survived == runs[1].n_survived == runs[2].n_survived
        assert runs[0].path_steps == runs[1].path_steps == runs[2].path_steps

    def test_batch_size_is_invisible(self):
        box, ts = bernoulli_setup(0.25)
        a = direct_tail_estimate(ID1, N1, box, [(np.zeros(1), 0.1)], ts,
                                 n_paths=3000, config=CFG, seed=7,
                                 batch_size=3000)[0]
        b = direct_tail_estimate(ID1, N1, box, [(np.zeros(1), 0.1)], ts,
                                 n_paths=3000, config=CFG, seed=7,
                                 batch_size=577)[0]
        assert a.p_hat == b.p_hat
        assert a.n_survived == b.n_survived

    def test_wilson_interval_for_rare_survival(self):
        box, ts = bernoulli_setup(0.004)
        est = direct_tail_estimate(ID1, N1, box, [(np.zeros(1), 0.1)], ts,
                                   n_paths=2000, config=CFG, seed=15)[0]
        assert 0 < est.n_survived < 30
        lo, hi = est.wilson_interval
        assert 0.0 < lo < est.p_hat < hi < 1.0

    def test_zero_survivors_reports_upper_bound(self):
        # survival requires |xi| < tiny: effectively impossible
        box = BoxDomain([-1e-9], [1e-9])
        ts = ThresholdSpec(alpha=0.0, r0=1e-3)
        n = 400
        est = direct_tail_estimate(ID1, N1, box, [(np.zeros(1), 0.1)], ts,
                                   n_paths=n, config=CFG, seed=4)[0]
        assert est.p_hat == 0.0
        assert est.zero_upper_bound == pytest.approx(
            1.0 - 0.05 ** (1.0 / n), rel=1e-12)


@pytest.mark.parametrize("batch_size", [0, -5])
@pytest.mark.parametrize("entry", ["direct", "splitting", "adjusted", "fluctuation"])
def test_batch_size_below_one_is_rejected(entry, batch_size):
    # every estimator and the fluctuation sampler slice their paths through
    # one runner, which names the bad size
    box, ts = bernoulli_setup(0.3)
    x0 = np.zeros(1)
    calls = {
        "direct": lambda: direct_tail_estimate(
            ID1, N1, box, [(x0, 0.1)], ts, n_paths=100, config=CFG, seed=1,
            batch_size=batch_size)[0],
        "splitting": lambda: splitting_tail_estimate(
            ID1, N1, box, x0, 0.1, ts, 100, CFG, seed=1,
            batch_size=batch_size),
        "adjusted": lambda: adjusted_tail_estimate(
            ID1, N1, box, SmoothDomain.ball(2.0), x0, 0.1, ts, n_paths=100,
            config=CFG, seed=1, batch_size=batch_size),
        "fluctuation": lambda: rescaled_fluctuation_samples(
            ID1, N1, np.array([0.5]), 0.1, 1.0, CFG, seed=1, n_samples=10,
            batch_size=batch_size),
    }
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        calls[entry]()


@pytest.mark.parametrize("entry", [
    direct_tail_estimate, splitting_tail_estimate, adjusted_tail_estimate,
    rescaled_fluctuation_samples])
def test_workers_and_batch_size_are_keyword_only(entry):
    # a positional call could swap them, and a batch size taken as a worker
    # count would fork that many processes
    params = inspect.signature(entry).parameters
    for name in ("workers", "batch_size"):
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name


class TestSplitting:
    @pytest.mark.parametrize("budget, level_step, match", [
        (99, 1.0, "budget must be at least 100"),
        (100, 0.0, "level_step must be positive"),
        (100, -1.0, "level_step must be positive"),
        (100, math.nan, "level_step must be positive"),
    ], ids=["budget-99", "level_step-0", "level_step-neg", "level_step-nan"])
    def test_rejects_bad_budget_and_level_step(self, budget, level_step, match):
        with pytest.raises(ValueError, match=match):
            splitting_tail_estimate(ID1, N1, BOX1, np.zeros(1), 0.2,
                                    ThresholdSpec(alpha=1.5), budget, CFG,
                                    seed=0, level_step=level_step)

    @pytest.mark.parametrize("level_step, m", [
        (1.0, 5), (4.49 / 5, 5), (4.49 / 5 * (1.0 - 1e-14), 5), (4.49, 1),
        (10.0, 1)], ids=["unit", "T0/5", "below-T0/5", "T0", "above-T0"])
    def test_levels_cover_threshold(self, level_step, m):
        # T0 = 4.49 is cut into m = ceil(T0 / level_step) levels, each of
        # which reruns the whole budget; a step a rounding error below T0 / 5
        # must not add a sixth level
        ts = ThresholdSpec(alpha=0.0, r0=4.49)
        s = splitting_tail_estimate(ID1, N1, BOX1, np.zeros(1), 0.1, ts, 100,
                                    PathConfig(dt=1e-2), seed=2,
                                    level_step=level_step)
        assert s.n_paths == 100 * m

    @pytest.mark.parametrize("workers, batch_size", [(1, 16384), (2, 64)])
    def test_small_run_is_pinned(self, workers, batch_size, pool_sizes):
        # values computed when the levels came from SplittingPlan.uniform
        # (4 levels at T0 / 4); a shifted level time changes them
        s = splitting_tail_estimate(ID1, N1, BOX1, np.zeros(1), 0.2,
                                    ThresholdSpec(alpha=1.5), 200, CFG, seed=5,
                                    workers=workers, batch_size=batch_size,
                                    level_step=0.7)
        assert (s.p_hat, s.stderr, s.path_steps) == (
            0.554489, 0.03257568883861092, 455016)
        assert (s.n_paths, s.n_survived) == (800, 136)
        # each of the 4 levels forks its own 2 workers
        assert pool_sizes == ([2, 2, 2, 2] if workers == 2 else [])

    def test_single_level_agrees_with_direct(self):
        ts = ThresholdSpec(alpha=1.5)
        T0 = ts.time(0.2)
        d = direct_tail_estimate(ID1, N1, BOX1, [(np.zeros(1), 0.2)], ts,
                                 n_paths=4000, config=CFG, seed=21)[0]
        s = splitting_tail_estimate(ID1, N1, BOX1, np.zeros(1), 0.2, ts, 4000,
                                    config=CFG, seed=21, level_step=T0)
        assert s.n_paths == 4000
        assert s.method == "splitting"
        assert abs(d.p_hat - s.p_hat) <= 3.0 * math.hypot(d.stderr, s.stderr)

    def test_coarse_plan_with_minimum_budget(self):
        ts = ThresholdSpec(alpha=1.5)
        T0 = ts.time(0.2)
        d = direct_tail_estimate(ID1, N1, BOX1, [(np.zeros(1), 0.2)], ts,
                                 n_paths=4000, config=CFG, seed=21)[0]
        s = splitting_tail_estimate(ID1, N1, BOX1, np.zeros(1), 0.2, ts, 100,
                                    config=CFG, seed=77, level_step=T0 / 5)
        assert abs(d.p_hat - s.p_hat) <= 4.0 * math.hypot(d.stderr, s.stderr)

    def test_deep_tail_variance_advantage(self):
        # alpha=2.5 at eps=0.05: tail exponent 1.5, p ~ 1.3e-2.  Splitting
        # should beat direct on work-normalized relative variance.
        ts = ThresholdSpec(alpha=2.5)
        eps = 0.05
        d = direct_tail_estimate(ID1, N1, BOX1, [(np.zeros(1), eps)], ts,
                                 n_paths=20000, config=CFG, seed=13)[0]
        s = splitting_tail_estimate(ID1, N1, BOX1, np.zeros(1), eps, ts, 5000,
                                    config=CFG, seed=13)
        assert abs(d.p_hat - s.p_hat) <= 3.0 * math.hypot(d.stderr, s.stderr)
        work_direct = (d.stderr / d.p_hat) ** 2 * d.path_steps
        work_split = (s.stderr / s.p_hat) ** 2 * s.path_steps
        assert work_split < work_direct / 1.5

    def test_extinction_flagged(self):
        ts = ThresholdSpec(alpha=2.0)
        eps = 1e-6
        s = splitting_tail_estimate(ID1, N1, BOX1, np.zeros(1), eps, ts, 100,
                                    config=CFG, seed=3)
        assert s.p_hat == 0.0
        assert s.extinct_level is not None
        assert s.stderr == 0.0
        assert s.zero_upper_bound == 1.0 - 0.05 ** (1.0 / 100)
        assert s.wilson_interval is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.p_hat = 0.5

    def test_worker_invariance(self):
        ts = ThresholdSpec(alpha=1.5)
        runs = [
            splitting_tail_estimate(ID1, N1, BOX1, np.zeros(1), 0.2, ts, 2000,
                                    config=CFG, seed=5, workers=w,
                                    batch_size=256)
            for w in (1, 3)
        ]
        assert runs[0].p_hat == runs[1].p_hat


class TestAdjusted:
    def test_degenerate_nesting_reduces_to_direct(self):
        # big domain equals the box: per-path travel time is 0 and the
        # adjusted indicator coincides with the direct one (grid-aligned T0)
        ts = ThresholdSpec(alpha=0.0, r0=3.0)
        d = direct_tail_estimate(ID1, N1, BOX1, [(np.zeros(1), 0.1)], ts,
                                 n_paths=3000, config=CFG, seed=5)[0]
        res = adjusted_tail_estimate(ID1, N1, BOX1, SmoothDomain.ball(1.0),
                                     np.zeros(1), 0.1, ts, n_paths=3000,
                                     config=CFG, seed=5)
        assert res.adjusted.n_survived == d.n_survived
        assert res.enclosing.n_survived == d.n_survived
        assert abs(res.adjusted.p_hat - d.p_hat) <= 3.0 * math.hypot(
            res.adjusted.stderr, d.stderr)

    def test_methods_labeled(self):
        ts = ThresholdSpec(alpha=0.5)
        res = adjusted_tail_estimate(ID1, N1, BoxDomain([-0.5], [0.5]),
                                     SmoothDomain.ball(1.0), np.zeros(1), 0.2,
                                     ts, n_paths=400, config=CFG, seed=2)
        assert res.adjusted.method == "adjusted"
        assert res.enclosing.method == "enclosing"
        assert res.adjusted.n_paths == 400

    def test_capped_paths_counted_as_survivors(self):
        # t_cap barely beyond T0 leaves slow paths unfinished; they are
        # survivors by construction and must be flagged
        ts = ThresholdSpec(alpha=0.0, r0=2.0)
        cfg = PathConfig(dt=1e-3, t_cap=3.0)
        res = adjusted_tail_estimate(ID1, N1, BoxDomain([-0.5], [0.5]),
                                     SmoothDomain.ball(1.0), np.zeros(1), 0.05,
                                     ts, n_paths=500, config=cfg, seed=11)
        assert res.adjusted.n_capped > 0
        assert res.adjusted.n_survived >= res.adjusted.n_capped


SWEEP_2D = """
model.lambdas = 1.0, 0.5
domain.lower = -1.0
domain.upper = 1.0
threshold.alpha = 1.2
sweep.epsilons = 0.3, 0.2, 0.1
initial.points = 0,0; 0.5,0; -0.4,-0.3
estimator.n_paths = 128
estimator.batch_size = 64
estimator.dt = 0.005
run.workers = 2
"""

# a model and a domain built from lambdas, which pickle cannot send
LAMBDA_MODEL = ConjugateFieldModel(
    Spectrum([1.0, 0.5]), f=lambda X: X, f_inv=lambda Y: Y,
    df=lambda X: np.broadcast_to(np.eye(2), (len(X), 2, 2)),
    drift=lambda X: X * np.array([1.0, 0.5]))
LAMBDA_BIG = SmoothDomain(lambda X: np.sum(X * X, axis=1) - 4.0, name="lambda")


# two workers that each return 2 MB, more than a pipe holds, so both are
# still writing when their parent is killed
ORPHANED_FAN_OUT = r"""
import os, time
import numpy as np
import exitlab.estimator as est

def batch(b):
    os.write(1, b"%d\n" % os.getpid())
    time.sleep(0.5)
    return np.zeros(1 << 18)

est._map_batches(batch, 2, 2)
"""


class TestWorkerPool:
    def test_killed_worker_is_an_error(self, worker_killed):
        # 4 batches on 2 workers; the worker of batches 0 and 2 dies
        with pytest.raises(ExitlabError, match=r"batches \[0, 2\] ended "
                           r"\(signal 9"):
            direct_tail_estimate(ID1, N1, BOX1, [(np.zeros(1), 0.2)],
                                 ThresholdSpec(alpha=1.5), n_paths=256,
                                 config=CFG, seed=1, workers=2, batch_size=64)
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_workers_of_a_killed_parent_exit(self):
        src = str(Path(est.__file__).resolve().parent.parent)
        proc = subprocess.Popen([sys.executable, "-c", ORPHANED_FAN_OUT],
                                stdout=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": src})
        pids = [int(proc.stdout.readline()) for _ in range(2)]
        proc.kill()
        try:
            # the workers share their parent's stdout: EOF once both exited
            proc.communicate(timeout=10)
        finally:
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    def test_unpicklable_worker_error_is_a_runtime_error(self, monkeypatch):
        class Local(Exception):  # a local class does not pickle
            pass

        def fails(*args):
            raise Local("not sent")

        monkeypatch.setattr(est, "simulate_batch", fails)
        with pytest.raises(RuntimeError, match="Local.*not sent"):
            direct_tail_estimate(ID1, N1, BOX1, [(np.zeros(1), 0.2)],
                                 ThresholdSpec(alpha=1.5), n_paths=256,
                                 config=CFG, seed=1, workers=2, batch_size=64)

    @pytest.mark.parametrize("edit, expected", [
        (("", ""), [2]),
        (("run.workers = 2", "run.workers = 16"), [2]),
        (("run.workers = 2", "run.workers = 1"), []),
        (("batch_size = 64", "batch_size = 128"), []),
    ])
    def test_sweep_forks_at_most_one_pool(self, pool_sizes, edit, expected):
        # 9 cells of 2 batches in one fan-out, which forks at most 2 workers
        run_estimate(parse_config(SWEEP_2D.replace(*edit)))
        assert pool_sizes == expected

    def test_lambda_model_fans_out_by_reference(self, pool_sizes):
        noise = NoiseModel(np.eye(2))
        box = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        ts = ThresholdSpec(alpha=1.2)
        x = np.array([0.5, 0.0])

        def estimates(workers):
            kw = dict(config=PathConfig(dt=5e-3), seed=11, workers=workers,
                      batch_size=64)
            return (
                direct_tail_estimate(LAMBDA_MODEL, noise, box, [(x, 0.1)], ts,
                                     n_paths=192, **kw)[0],
                splitting_tail_estimate(LAMBDA_MODEL, noise, box, x, 0.1, ts,
                                        192, **kw),
                adjusted_tail_estimate(LAMBDA_MODEL, noise, box, LAMBDA_BIG,
                                       x, 0.1, ts, n_paths=192, **kw))

        assert estimates(2) == estimates(1)
        # direct, splitting's 3 levels and adjusted each fork 2 workers
        assert pool_sizes == [2] * 5
        cfg = parse_config(SWEEP_2D.replace(
            "threshold.alpha", "estimator.method = adjusted\n"
            "domain.big = ball:2.0\nthreshold.alpha"))
        cfg = dataclasses.replace(cfg, model=LAMBDA_MODEL, big=LAMBDA_BIG)
        rows = [rows_csv_text(run_estimate(dataclasses.replace(cfg, workers=w)))
                for w in (1, 2)]
        # rows without the last column, wall_seconds
        serial, fanned = ([ln.rsplit(",", 1)[0] for ln in r.splitlines()]
                          for r in rows)
        assert serial == fanned
        # and so does each of the sweep's 9 adjusted cells at run.workers 2
        assert pool_sizes == [2] * 14


class TestRescaledPrefactor:
    def test_scaling(self):
        box, ts = bernoulli_setup(0.3)
        est = direct_tail_estimate(ID1, N1, box, [(np.zeros(1), 0.1)], ts,
                                   n_paths=1000, config=CFG, seed=9)[0]
        val, se = rescaled_prefactor(est, 0.05, 0.5)
        factor = 0.05 ** -0.5
        assert val == pytest.approx(est.p_hat * factor, rel=1e-15)
        assert se == pytest.approx(est.stderr * factor, rel=1e-15)

    def test_beta_zero_is_identity(self):
        box, ts = bernoulli_setup(0.3)
        est = direct_tail_estimate(ID1, N1, box, [(np.zeros(1), 0.1)], ts,
                                   n_paths=1000, config=CFG, seed=9)[0]
        val, se = rescaled_prefactor(est, 0.05, 0.0)
        assert val == est.p_hat
        assert se == est.stderr


class _FakeEstimate:
    def __init__(self, p):
        self.p_hat = p
        self.stderr = 0.0


class TestSlopeRegression:
    def test_exact_power_law(self):
        pts = [(eps, _FakeEstimate(2.0 * eps ** 0.5))
               for eps in (0.2, 0.1, 0.05, 0.025)]
        fit = slope_regression(pts)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-10)
        assert max(abs(r) for r in fit.residuals) < 1e-12

    def test_noisy_power_law(self):
        rng = np.random.default_rng(6)
        pts = [(eps, _FakeEstimate(2.0 * eps ** 0.5 * (1 + 0.01 * rng.standard_normal())))
               for eps in (0.4, 0.2, 0.1, 0.05, 0.025)]
        fit = slope_regression(pts)
        assert abs(fit.slope - 0.5) <= 0.05
        assert fit.slope_stderr > 0.0

    def test_too_few_points(self):
        pts = [(0.2, _FakeEstimate(0.5)), (0.1, _FakeEstimate(0.3))]
        with pytest.raises(DegenerateFit):
            slope_regression(pts)

    def test_zero_probabilities_dropped(self):
        pts = [(0.2, _FakeEstimate(0.5)), (0.1, _FakeEstimate(0.3)),
               (0.05, _FakeEstimate(0.0)), (0.025, _FakeEstimate(0.0))]
        with pytest.raises(DegenerateFit):
            slope_regression(pts)


class TestDensityDiagnostic:
    def test_exact_sampler_small_l1(self):
        rng = np.random.default_rng(12)
        C = np.array([[0.7]])
        samples = rng.standard_normal((10**5, 1)) * math.sqrt(0.7)
        diag = density_diagnostic(samples, C)
        assert diag.l1_diff <= 0.02
        assert diag.mass == pytest.approx(1.0, abs=1e-3)

    def test_linear_model_matches_exact_law(self):
        T = 0.5
        CT = finite_time_covariance(np.array([[1.0]]), S1, T)
        U = rescaled_fluctuation_samples(ID1, N1, np.zeros(1), 0.05, T,
                                         CFG, seed=44, n_samples=10**5)
        diag = density_diagnostic(U, CT)
        assert diag.l1_diff <= 0.02

    def test_wrong_reference_detected(self):
        rng = np.random.default_rng(12)
        samples = rng.standard_normal((10**5, 1)) * 2.0
        diag = density_diagnostic(samples, np.array([[1.0]]))
        assert diag.l1_diff > 0.3

    def test_quadratic_l1_decreases_with_epsilon(self):
        m = ConjugateFieldModel.component_quadratic(S1, [0.9])
        nm = NoiseModel(np.array([[1.0]]))
        T = 0.5
        CT = finite_time_covariance(np.array([[1.0]]), S1, T)
        l1 = []
        for eps in (0.2, 0.1, 0.05):
            U = rescaled_fluctuation_samples(m, nm, np.zeros(1), eps, T,
                                             CFG, seed=404, n_samples=50000)
            l1.append(density_diagnostic(U, CT).l1_diff)
        assert l1[0] > l1[1] > l1[2]

    def test_two_dimensional_histogram(self):
        rng = np.random.default_rng(3)
        C = np.array([[1.0, 0.3], [0.3, 0.8]])
        samples = rng.multivariate_normal(np.zeros(2), C, size=10**5)
        diag = density_diagnostic(samples, C, grid_points=41)
        assert diag.mass == pytest.approx(1.0, abs=1e-3)
        assert diag.l1_diff <= 0.05

    def test_one_dimension_is_its_single_marginal(self):
        # d = 1 reports plain 1-d arrays, equal to coordinate 0 of a d = 3
        # marginal comparison; d = 3 reports the worst coordinate
        rng = np.random.default_rng(8)
        C = np.diag([1.0, 0.5, 0.25])
        samples = rng.standard_normal((10**4, 3)) * np.sqrt(np.diag(C))
        one = density_diagnostic(samples[:, :1], C[:1, :1], grid_points=41)
        three = density_diagnostic(samples, C, grid_points=41)
        assert one.grid.shape == one.empirical.shape == one.reference.shape == (41,)
        assert three.empirical.shape == three.reference.shape == (3, 41)
        np.testing.assert_array_equal(one.grid, three.grid[0])
        np.testing.assert_array_equal(one.empirical, three.empirical[0])
        np.testing.assert_array_equal(one.reference, three.reference[0])
        assert three.sup_diff >= one.sup_diff
        assert three.l1_diff >= one.l1_diff
        assert three.mass <= one.mass

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            density_diagnostic(np.zeros((100, 1)), np.array([[1.0]]))
        with pytest.raises(ValueError):
            density_diagnostic(np.zeros((MIN_DENSITY_SAMPLES - 1, 1)),
                               np.array([[1.0]]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rejects_a_variance_that_is_not_positive(self, d):
        # the samples and reference of diagnostic.time = 0: all exact zeros
        with pytest.raises(ValueError, match="variances"):
            density_diagnostic(np.zeros((MIN_DENSITY_SAMPLES, d)), np.zeros((d, d)))

    def test_a_nan_difference_is_not_a_fit(self, monkeypatch):
        monkeypatch.setattr(est, "_normal_pdf", lambda z, var: np.full_like(z, np.nan))
        samples = np.random.default_rng(3).standard_normal((MIN_DENSITY_SAMPLES, 3))
        diag = density_diagnostic(samples, np.eye(3))
        assert math.isnan(diag.sup_diff) and math.isnan(diag.l1_diff)

    @pytest.mark.parametrize("halfwidth", [math.nan, math.inf, 0.0, -6.0])
    def test_rejects_bad_halfwidth(self, halfwidth):
        samples = np.random.default_rng(3).standard_normal((MIN_DENSITY_SAMPLES, 1))
        with pytest.raises(ValueError, match="halfwidth_sigmas"):
            density_diagnostic(samples, np.array([[1.0]]),
                               halfwidth_sigmas=halfwidth)
