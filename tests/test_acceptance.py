"""Acceptance gate: nine end-to-end criteria, one printed line each.

Every test prints `criterion N: PASS/FAIL - detail` straight to the
terminal (capture suspended), so the lines are visible in a plain run.
Monte Carlo settings and seeds are fixed; the heavy 1-d benchmark runs
are shared between criteria 2, 8 and 9 through a module fixture.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from exitlab import (
    BoxDomain,
    ConjugateFieldModel,
    NoiseModel,
    PathConfig,
    SmoothDomain,
    Spectrum,
    ThresholdSpec,
    adjusted_tail_estimate,
    direct_tail_estimate,
    finite_time_covariance,
    flow_exit_times_batch,
    limit_covariance,
    parse_config,
    prefactor_bounds,
    rescaled_fluctuation_samples,
    run_estimate,
    slope_regression,
    splitting_tail_estimate,
    survival_prefactor,
    survival_prefactor_mc,
    tail_exponent,
    travel_time_bounds,
)
from exitlab.harness import rows_csv_text

# about 7 minutes; a quick local run can use -m "not slow"
pytestmark = pytest.mark.slow

GLOBAL_SEED = 20260815

S1 = Spectrum([1.0])
M1 = ConjugateFieldModel.identity(S1)
N1 = NoiseModel(np.array([[1.0]]))
BOX1 = BoxDomain([-1.0], [1.0])
TH15 = ThresholdSpec(alpha=1.5)
PSI_1D = 2.0 / math.sqrt(math.pi)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _terminal(capsys):
    """Hold the capture fixture so _report can suspend it."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPSYS is None:
        print(line, flush=True)
        return
    # default capture redirects the stdout fd itself, so a plain print
    # never reaches the terminal; suspend capture for this one line
    with _CAPSYS.disabled():
        print("\n" + line, flush=True)


def _rescaled(est, epsilon: float, beta: float) -> tuple[float, float]:
    scale = epsilon ** -beta
    return est.p_hat * scale, est.stderr * scale


@pytest.fixture(scope="module")
def bench():
    """Criterion-2 benchmark runs, reused by criteria 8 and 9."""
    config = PathConfig(dt=5e-4)
    start = time.perf_counter()
    # both epsilons in one call: their cells step on the same path streams
    ests = direct_tail_estimate(
        M1, N1, BOX1, [(np.array([0.0]), eps) for eps in (0.2, 0.05)], TH15,
        200_000, config, GLOBAL_SEED)
    runs = dict(zip((0.2, 0.05), ests))
    runs["wall"] = time.perf_counter() - start
    return runs


def test_criterion_1_prefactor_closed_form_vs_mc_oracle():
    rng = np.random.default_rng(GLOBAL_SEED)
    start = time.perf_counter()
    worst = 0.0
    branches: set[str] = set()
    dims: set[int] = set()
    failures = []
    for k in range(50):
        d = int(rng.integers(1, 4))
        lambdas = np.sort(rng.uniform(0.3, 2.5, size=d))[::-1]
        spect = Spectrum(lambdas)
        sigma = rng.normal(size=(d, d)) + 0.6 * np.eye(d)
        c0 = limit_covariance(sigma, spect)
        box = BoxDomain(-rng.uniform(0.4, 1.8, size=d),
                        rng.uniform(0.4, 1.8, size=d))
        r0 = float(rng.uniform(0.0, 0.4))
        kind = k % 3
        if kind == 0:
            i = int(rng.integers(1, d + 1))
            lo = 0.0 if i == 1 else 1.0 / lambdas[i - 2]
            alpha = lo + (1.0 / lambdas[i - 1] - lo) * float(
                rng.uniform(0.1, 0.9))
        elif kind == 1:
            alpha = 1.0 / lambdas[int(rng.integers(1, d + 1)) - 1]
        else:
            alpha = float(rng.uniform(1.05, 1.7)) / lambdas[-1]
        x = rng.uniform(-0.6, 0.6, size=d) * np.minimum(-box.lower, box.upper)
        pred = survival_prefactor(spect, c0, box, r0, alpha, x)
        mc, se = survival_prefactor_mc(spect, c0, box, r0, alpha, x,
                                       n_samples=10**6, seed=GLOBAL_SEED + k)
        branches.add(pred.branch)
        dims.add(d)
        # the full branch shares no MC variance: identical Cholesky algebra
        # makes se exactly 0, so allow rounding noise there
        tol = max(3.0 * se, 5e-13 * pred.value)
        pull = abs(pred.value - mc) / tol * 3.0 if tol > 0.0 else 0.0
        worst = max(worst, pull)
        if abs(pred.value - mc) > tol:
            failures.append((k, pred.value, mc, se))
    elapsed = time.perf_counter() - start
    ok = (not failures and branches == {"interior", "boundary", "full"}
          and dims == {1, 2, 3} and elapsed <= 120.0)
    _report(1, ok,
            f"{50 - len(failures)}/50 instances within 3 stderr "
            f"(worst {worst:.2f} se), branches {sorted(branches)}, "
            f"d {sorted(dims)}, {elapsed:.1f}s")
    assert not failures, failures
    assert branches == {"interior", "boundary", "full"}
    assert dims == {1, 2, 3}
    assert elapsed <= 120.0


def test_criterion_2_linear_benchmark_prefactor(bench):
    beta = tail_exponent(S1, 1.5)
    resc_005, se_005 = _rescaled(bench[0.05], 0.05, beta)
    resc_02, se_02 = _rescaled(bench[0.2], 0.2, beta)
    rel = abs(resc_005 - PSI_1D) / PSI_1D
    dev_005 = abs(resc_005 - PSI_1D)
    dev_02 = abs(resc_02 - PSI_1D)
    comb = math.hypot(se_005, se_02)
    ok = rel <= 0.20 and dev_005 <= dev_02 + 2.0 * comb and bench["wall"] <= 300.0
    _report(2, ok,
            f"rescaled {resc_005:.4f} vs {PSI_1D:.4f} (rel dev {rel:.3f} "
            f"<= 0.20), dev 0.05/0.2 = {dev_005:.4f}/{dev_02:.4f} "
            f"(2 comb se {2 * comb:.4f}), {bench['wall']:.0f}s")
    assert rel <= 0.20
    assert dev_005 <= dev_02 + 2.0 * comb
    assert bench["wall"] <= 300.0


def test_criterion_3_slope_across_epsilons():
    config = PathConfig(dt=1e-3)
    start = time.perf_counter()
    epsilons = (0.2, 0.1, 0.05, 0.025)
    ests = direct_tail_estimate(M1, N1, BOX1,
                                [(np.array([0.0]), eps) for eps in epsilons],
                                TH15, 100_000, config, GLOBAL_SEED)
    fit = slope_regression(list(zip(epsilons, ests)))
    elapsed = time.perf_counter() - start
    ok = 0.40 <= fit.slope <= 0.60 and elapsed <= 900.0
    _report(3, ok,
            f"log-log slope {fit.slope:.4f} +- {fit.slope_stderr:.4f} in "
            f"[0.40, 0.60], 4 epsilons x 1e5 paths, {elapsed:.0f}s")
    assert 0.40 <= fit.slope <= 0.60
    assert elapsed <= 900.0


def test_criterion_4_anisotropic_2d_prefactor():
    spect = Spectrum([1.0, 0.5])
    model = ConjugateFieldModel.identity(spect)
    noise = NoiseModel(np.eye(2))
    box = BoxDomain([-1.0, -1.0], [1.0, 1.0])
    threshold = ThresholdSpec(alpha=1.2)
    beta = tail_exponent(spect, 1.2)
    assert beta == pytest.approx(0.2)
    c0 = limit_covariance(np.eye(2), spect)
    psi = survival_prefactor(spect, c0, box, 0.0, 1.2, np.zeros(2)).value
    start = time.perf_counter()
    est = direct_tail_estimate(model, noise, box, [(np.zeros(2), 0.05)],
                               threshold, 200_000,
                               PathConfig(dt=1e-3),
                               GLOBAL_SEED)[0]
    elapsed = time.perf_counter() - start
    resc, se = _rescaled(est, 0.05, beta)
    rel = abs(resc - psi) / psi
    ok = rel <= 0.25 and psi == pytest.approx(PSI_1D, rel=1e-12) and elapsed <= 600.0
    _report(4, ok,
            f"rescaled {resc:.4f} (se {se:.4f}) vs psi {psi:.4f}, rel dev "
            f"{rel:.3f} <= 0.25, {elapsed:.0f}s")
    assert psi == pytest.approx(PSI_1D, rel=1e-12)
    assert rel <= 0.25
    assert elapsed <= 600.0


def test_criterion_5_quadratic_conjugacy():
    spect = Spectrum([1.0])
    model = ConjugateFieldModel.component_quadratic(spect, [1.0],
                                                    validity_radius=0.2)
    noise = NoiseModel(np.array([[1.0]]))
    box = BoxDomain([-0.15], [0.15])

    # deterministic part: the flow's exit time against the conjugated closed
    # form log(0.15 / |f(x0)|), from the box in closed form and by RK4 from
    # the box pulled back to the interval (a, b) in x
    a, b = (2.0 * y / (1.0 + math.sqrt(1.0 + 4.0 * y)) for y in (-0.15, 0.15))
    interval = SmoothDomain(
        lambda X: ((X[:, 0] - 0.5 * (a + b)) / (0.5 * (b - a))) ** 2 - 1.0)
    X0 = np.array([[0.02], [-0.05], [0.1], [-0.13]])
    tau_want = np.log(0.15 / np.abs(X0[:, 0] + X0[:, 0] ** 2))
    worst_flow = 0.0
    for tau in (flow_exit_times_batch(model, box, X0),
                flow_exit_times_batch(model, interval, X0, dt=1e-4)):
        worst_flow = max(worst_flow, float(np.max(np.abs(tau - tau_want))))

    c0 = limit_covariance(np.array([[1.0]]), spect)
    psi = survival_prefactor(spect, c0, box, 0.0, 1.5, np.zeros(1)).value
    est = direct_tail_estimate(model, noise, box, [(np.zeros(1), 0.05)], TH15,
                               100_000, PathConfig(dt=1e-3),
                               GLOBAL_SEED)[0]
    resc, se = _rescaled(est, 0.05, 0.5)
    rel = abs(resc - psi) / psi
    ok = rel <= 0.25 and worst_flow <= 1e-6
    _report(5, ok,
            f"rescaled {resc:.4f} (se {se:.4f}) vs psi {psi:.4f}, rel dev "
            f"{rel:.3f} <= 0.25; flow/exit oracle worst {worst_flow:.2e} <= 1e-6")
    assert worst_flow <= 1e-6
    assert rel <= 0.25


def test_criterion_6_travel_time_adjusted_bracket():
    box = BoxDomain([-0.5], [0.5])
    big = SmoothDomain.ball(1.0)
    psi = survival_prefactor(S1, limit_covariance(np.array([[1.0]]), S1), box,
                             0.0, 1.5, np.zeros(1)).value
    assert psi == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    config = PathConfig(dt=1e-3)
    result = adjusted_tail_estimate(M1, N1, box, big, np.zeros(1), 0.05, TH15,
                                    20_000, config, GLOBAL_SEED)
    resc, se = _rescaled(result.adjusted, 0.05, 0.5)
    rel = abs(resc - psi) / psi

    t_minus, t_plus = travel_time_bounds(M1, box, big, big)
    lo, hi = prefactor_bounds(S1, limit_covariance(np.array([[1.0]]), S1),
                              box, 0.0, 1.5, np.zeros(1), t_minus, t_plus)
    raw = direct_tail_estimate(M1, N1, BoxDomain([-1.0], [1.0]),
                               [(np.zeros(1), 0.05)], TH15, 20_000,
                               PathConfig(dt=1e-3),
                               GLOBAL_SEED)[0]
    band = 3.0 * raw.stderr
    scale = 0.05 ** 0.5
    in_bracket = (lo.value * scale - band <= raw.p_hat
                  <= hi.value * scale + band)
    ok = rel <= 0.20 and in_bracket
    _report(6, ok,
            f"adjusted rescaled {resc:.4f} (se {se:.4f}) vs psi {psi:.4f}, "
            f"rel dev {rel:.3f} <= 0.20; raw {raw.p_hat:.4f} in "
            f"[{lo.value * scale:.4f}, {hi.value * scale:.4f}] +- {band:.4f}")
    assert rel <= 0.20
    assert in_bracket


def test_criterion_7_fluctuation_law_and_covariance_decay():
    spect = Spectrum([1.0, 0.5])
    model = ConjugateFieldModel.identity(spect)
    sigma = np.array([[1.0, 0.0], [1.0, 1.0]])
    noise = NoiseModel(sigma)
    T = 2.0
    n = 20_000
    samples = rescaled_fluctuation_samples(
        model, noise, np.zeros(2), 0.05, T,
        PathConfig(dt=1e-3), GLOBAL_SEED, n)
    c_t = finite_time_covariance(sigma, spect, T)
    emp = samples.T @ samples / n
    cov_pulls = np.empty((2, 2))
    for j in range(2):
        for k in range(2):
            se = math.sqrt((c_t[j, j] * c_t[k, k] + c_t[j, k] ** 2) / n)
            cov_pulls[j, k] = abs(emp[j, k] - c_t[j, k]) / se
    cov_ok = bool(np.all(cov_pulls <= 5.0))

    # per-coordinate KS against the exact marginals, ~1e-3 level threshold
    ks_stats = []
    for j in range(2):
        z = np.sort(samples[:, j]) / math.sqrt(c_t[j, j])
        grid = (np.arange(1, n + 1)) / n
        cdf = ndtr(z)
        d_stat = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
        ks_stats.append(d_stat)
    ks_bound = 1.95 / math.sqrt(n)
    ks_ok = all(d <= ks_bound for d in ks_stats)

    c0 = limit_covariance(sigma, spect).matrix
    rate_ok = True
    tight = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        diff = float(np.max(np.abs(finite_time_covariance(sigma, spect, t) - c0)))
        bound = float(np.max(np.abs(c0))) * math.exp(-2.0 * 0.5 * t)
        rate_ok = rate_ok and diff <= bound * (1.0 + 1e-12)
        tight = max(tight, diff / bound)
    ok = cov_ok and ks_ok and rate_ok and tight >= 0.999
    _report(7, ok,
            f"cov pulls max {float(np.max(cov_pulls)):.2f} <= 5; KS "
            f"{max(ks_stats):.4f} <= {ks_bound:.4f}; decay bound held, "
            f"tightness {tight:.6f}")
    assert cov_ok, cov_pulls
    assert ks_ok, ks_stats
    assert rate_ok
    assert tight >= 0.999


def test_criterion_8_worker_determinism_and_estimator_coherence(bench, pool_sizes):
    cfg = parse_config("""
model.lambdas = 1.0
domain.lower = -1.0
domain.upper = 1.0
threshold.alpha = 1.5
sweep.epsilons = 0.2, 0.1
estimator.n_paths = 2000
estimator.batch_size = 256
run.seed = 20260815
""")
    texts = []
    for workers in (1, 4, 16):
        record = run_estimate(cfg.with_overrides(workers=workers))
        lines = rows_csv_text(record).splitlines()
        # drop the wall_seconds column, the one legitimate nondeterminism
        texts.append("\n".join([lines[0]]
                               + [ln.rsplit(",", 1)[0] for ln in lines[1:]]))
    deterministic = texts[0] == texts[1] == texts[2]
    # one pool per sweep, never more processes than its 8 batches
    assert pool_sizes == [4, 8]

    split = splitting_tail_estimate(M1, N1, BOX1, np.zeros(1), 0.05, TH15,
                                    20_000, PathConfig(dt=5e-4),
                                    GLOBAL_SEED + 8)
    direct = bench[0.05]
    comb = math.hypot(split.stderr, direct.stderr)
    agree = abs(split.p_hat - direct.p_hat) <= 3.0 * comb
    ok = deterministic and agree
    _report(8, ok,
            f"byte-identical rows across worker counts 1/4/16: "
            f"{deterministic}; splitting {split.p_hat:.4f} vs direct "
            f"{direct.p_hat:.4f} within 3 comb se ({3 * comb:.4f})")
    assert deterministic
    assert agree


def test_criterion_9_step_size_robustness(bench):
    coarse = bench[0.05]
    start = time.perf_counter()
    fine = direct_tail_estimate(M1, N1, BOX1, [(np.zeros(1), 0.05)], TH15,
                                200_000, PathConfig(dt=2.5e-4),
                                GLOBAL_SEED + 9)[0]
    elapsed = time.perf_counter() - start
    comb = math.hypot(coarse.stderr, fine.stderr)
    ok = abs(coarse.p_hat - fine.p_hat) <= 2.0 * comb
    _report(9, ok,
            f"p_hat {coarse.p_hat:.4f} (dt=5e-4) vs {fine.p_hat:.4f} "
            f"(dt=2.5e-4), diff {abs(coarse.p_hat - fine.p_hat):.4f} <= "
            f"2 comb se {2 * comb:.4f}, {elapsed:.0f}s")
    assert abs(coarse.p_hat - fine.p_hat) <= 2.0 * comb
