"""Tail-probability estimators built on the path engine.

Estimates are reproducible to the byte: paths are partitioned into batches of
fixed contiguous path-id ranges, forked worker processes run whole batches,
and results are reduced in batch order.  Worker count therefore changes wall
time only, never the estimate.  Each fan-out (the direct cells of a sweep,
a splitting level, an adjusted cell, a fluctuation sample) forks its own
workers, at most one per batch, and reaps them before it returns.

Every batch job runs its paths through _simulate, the one place that builds
a batch's path generators.  The direct estimator takes all the (x, epsilon)
cells of a sweep at once.  Path p of every cell steps on the stream of
(seed, p), so a batch builds its generators once and simulate_batch steps
every cell's rows on them, drawing each stream once per block (common
random numbers across cells).  Its batches are cut smaller as the cells
grow in number, to at most _DIRECT_ROWS rows each.  Each cell's counts
are those it gets alone.  Splitting and the adjusted estimate run one
cell per call: splitting resamples its start states at every level, and a
continuation resumes each stream where its own box exit left it.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BoxDomain,
    ConjugateFieldModel,
    NoiseModel,
    flow_exit_times_batch,
)
from .errors import DegenerateFit, ExitlabError, NoExit
from .exponents import ThresholdSpec
from .sde import PathConfig, make_generator, simulate_batch

DEFAULT_BATCH_SIZE = 16384

# Fewest fluctuation samples density_diagnostic compares against its
# reference; the config's diagnostic.n_samples floor reads the same constant.
MIN_DENSITY_SAMPLES = 10_000

# Path-id namespaces.  Direct and adjusted runs use ids [0, n); splitting
# level k uses ids (k << 44) | slot; resampling draws from a salted key so
# survivor selection never shares a stream with any path.
_LEVEL_SHIFT = 44
_RESAMPLE_SALT = 0x5DEECE66D

_Z95 = 1.959963984540054

# Most rows (cells x paths) that one batch of the direct estimator holds:
# a sweep with many cells runs fewer paths per batch.
_DIRECT_ROWS = 1 << 17


@dataclass(frozen=True)
class TailEstimate:
    """Estimated survival probability with uncertainty and path accounting."""

    p_hat: float
    stderr: float
    n_paths: int
    n_survived: int
    method: str
    path_steps: int = 0
    wilson_interval: tuple[float, float] | None = None
    zero_upper_bound: float | None = None
    extinct_level: int | None = None
    n_capped: int = 0
    n_clamped: int = 0


def _wilson(k: int, n: int) -> tuple[float, float]:
    p = k / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _binomial_estimate(k: int, n: int, method: str, **counters) -> TailEstimate:
    """k survivors of n paths; counters are TailEstimate's path counters."""
    if n < 1:
        raise ValueError("n_paths must be >= 1")
    p = k / n
    return TailEstimate(
        p_hat=p, stderr=math.sqrt(p * (1.0 - p) / n),
        n_paths=n, n_survived=k, method=method,
        wilson_interval=_wilson(k, n) if k < 30 else None,
        # one-sided 95% upper bound; the point estimate stays 0 but flagged
        zero_upper_bound=1.0 - 0.05 ** (1.0 / n) if k == 0 else None,
        **counters)


# ---------------------------------------------------------------------------
# batch fan-out


def _map_batches(job, n_batches: int, workers: int) -> list:
    """job(b) for every batch b, in batch order.

    With one worker or one batch the batches run in-process.  Otherwise this
    call forks k = min(workers, n_batches) children, which inherit the job:
    nothing is pickled on the way in.  Child i runs batches i, i + k, ... and
    pickles back its results or its exception, raised here.  A child that
    dies without its results raises ExitlabError; none outlives the call.
    """
    if workers <= 1 or n_batches <= 1:
        return [job(b) for b in range(n_batches)]
    k = min(workers, n_batches)
    pipes, live = [], []
    try:
        for i in range(k):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _serve(job, range(i, n_batches, k), w, pipes)
            finally:
                os.close(w)  # before the next fork: EOF means the child is gone
            live.append(pid)
        results = [None] * n_batches
        for i, pipe in enumerate(pipes):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(live[0], 0)[1])
            live.pop(0)  # children are reaped in order
            if code or not data:
                how = (f"signal {-code}, {signal.strsignal(-code)}" if code < 0
                       else f"exit code {code}")
                raise ExitlabError(f"the worker running batches "
                                   f"{list(range(i, n_batches, k))} ended "
                                   f"({how}) before it sent its results")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results[i::k] = value
        return results
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _serve(job, batches: range, fd: int, readers: list) -> None:
    """Run job(b) for the batches in a forked child, pickle the outcome to fd
    and exit."""
    try:
        for reader in readers:  # a write fails, not blocks, without the parent
            reader.close()
        try:
            out = (True, [job(b) for b in batches])
        except BaseException as exc:
            out = (False, exc)
            try:  # an exception that cannot make the trip goes as its repr
                pickle.loads(pickle.dumps(exc))
            except Exception:
                out = (False, RuntimeError(repr(exc)))
        with open(fd, "wb") as pipe:
            pickle.dump(out, pipe, pickle.HIGHEST_PROTOCOL)
        os._exit(0)
    finally:
        os._exit(1)  # the outcome did not pickle; the parent reports the exit


def _run_paths(batch, n: int, batch_size: int, workers: int) -> list:
    """batch(ids) of each batch_size slice ids of the path ids [0, n), a
    range, in order."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return _map_batches(
        lambda b: batch(range(b * batch_size, min((b + 1) * batch_size, n))),
        -(-n // batch_size), workers)


def _tally(res: dict) -> tuple[int, int]:
    """(path-steps, clamped paths) of one simulate_batch result."""
    return int(res["steps_used"].sum()), int(res["clamped"].sum())


# The batch jobs below run one batch_size slice, in a worker or in-process.
def _simulate(model, noise, domain, starts, epsilon, stop_time, dt, seed, ids):
    """simulate_batch of rows on the streams of the paths with ids `ids`,
    and the paths' generators.  starts is one row for every path, or
    k * len(ids) rows, of which row r steps on the stream of
    ids[r % len(ids)]."""
    gens = [make_generator(seed, pid) for pid in ids]
    if starts.ndim == 1:
        starts = np.broadcast_to(starts, (len(gens), starts.size))
    return simulate_batch(model, noise, domain, starts, epsilon, stop_time, dt,
                          gens), gens


def _direct_batch(model, noise, domain, starts, epsilons, stop_times, dt,
                  seed, ids):
    """The (exited, path-steps, clamped) counts of each cell, as a (3, cells)
    array, over the paths with ids `ids`.  Cell c starts at starts[c] and
    runs with epsilons[c] to stop_times[c]; its rows are stacked cell-major,
    so path p of every cell steps on the one stream of p."""
    b = len(ids)
    res, _ = _simulate(model, noise, domain, np.repeat(starts, b, axis=0),
                       np.repeat(epsilons, b), np.repeat(stop_times, b), dt,
                       seed, ids)
    return np.array([res[key].reshape(-1, b).sum(axis=1)
                     for key in ("exited", "steps_used", "clamped")])


def _level_batch(*args):
    """(survivor end states, path-steps, clamped) of _simulate(*args)."""
    res, _ = _simulate(*args)
    return (res["end_state"][~res["exited"]], *_tally(res))


def direct_tail_estimate(model: ConjugateFieldModel, noise: NoiseModel,
                         domain, cells, threshold_spec: ThresholdSpec,
                         n_paths: int, config: PathConfig, seed: int, *,
                         workers: int = 1,
                         batch_size: int = DEFAULT_BATCH_SIZE
                         ) -> list[TailEstimate]:
    """Plain Monte Carlo estimates of P(no exit before the threshold time).

    cells is a sequence of (x, epsilon) pairs, and the result holds one
    estimate per cell, in order.  Cell (x, epsilon) runs n_paths paths from
    epsilon * x on the dt grid to threshold_spec.time(epsilon).  Path p of
    every cell steps on the one stream of (seed, p), so the cells share
    their normals (common random numbers): each batch of path ids draws
    its streams once for all the cells, and every cell's estimate is the
    one it gets alone.  A cell with threshold time 0 estimates exactly 1
    (nothing can exit at t = 0 from a strict interior start).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    cells = list(cells)
    if not cells:
        return []
    starts = np.array([eps * np.atleast_1d(np.asarray(x, dtype=float))
                       for x, eps in cells])
    epsilons = np.array([eps for _, eps in cells], dtype=float)
    times = np.array([threshold_spec.time(eps) for _, eps in cells])
    batch = functools.partial(_direct_batch, model, noise, domain, starts,
                              epsilons, times, config.dt, seed)
    batch_size = min(batch_size, max(1, _DIRECT_ROWS // len(cells)))
    parts = _run_paths(batch, n_paths, batch_size, workers)
    n_exited, steps, clamps = np.sum(parts, axis=0).tolist()
    return [_binomial_estimate(n_paths - e, n_paths, "direct",
                               path_steps=s, n_clamped=c)
            for e, s, c in zip(n_exited, steps, clamps)]


# ---------------------------------------------------------------------------
# fixed-effort splitting


def splitting_tail_estimate(model: ConjugateFieldModel, noise: NoiseModel,
                            domain, x, epsilon: float,
                            threshold_spec: ThresholdSpec, budget: int,
                            config: PathConfig, seed: int, *, workers: int = 1,
                            batch_size: int = DEFAULT_BATCH_SIZE,
                            level_step: float = 1.0) -> TailEstimate:
    """Fixed-effort multilevel splitting of the survival probability.

    The threshold time T0 is cut into m = ceil(T0 / level_step) equal levels
    ending at t_k = T0 * k / m, so no level lasts longer than level_step.  At
    each level the full budget restarts from survivor states resampled
    with replacement (Markov restarts), the level survival fractions f_k are
    recorded, and p_hat = prod f_k with the product-form delta-method error
    p_hat * sqrt(sum (1 - f_k) / (f_k * budget)).  Survivor states are
    carried in linearizing coordinates.  A level with no survivors ends the
    cascade: p_hat = 0, flagged with the extinct level.
    """
    if budget < 100:
        raise ValueError("budget must be at least 100")
    if not level_step > 0.0:
        raise ValueError("level_step must be positive")
    t0 = threshold_spec.time(epsilon)
    if not t0 > 0.0:
        raise ValueError("threshold time must be positive")
    m = max(1, math.ceil(t0 / level_step - 1e-12))
    times = [t0 * k / m for k in range(1, m + 1)]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = model.spectrum.d
    states = np.broadcast_to(epsilon * x, (budget, d)).copy()
    factors: list[float] = []
    steps = 0
    clamps = 0
    prev_t = 0.0
    n_surv = budget
    for level, t_level in enumerate(times, start=1):
        duration = t_level - prev_t
        # level ids (level << _LEVEL_SHIFT) | slot are base + slot
        base = level << _LEVEL_SHIFT

        def batch(ids):
            return _level_batch(model, noise, domain, states[ids.start:ids.stop],
                                epsilon, duration, config.dt, seed,
                                range(base + ids.start, base + ids.stop))

        parts = _run_paths(batch, budget, batch_size, workers)
        surv_states = np.vstack([p[0] for p in parts])
        steps += sum(p[1] for p in parts)
        clamps += sum(p[2] for p in parts)
        n_surv = surv_states.shape[0]
        factors.append(n_surv / budget)
        if n_surv == 0:
            return TailEstimate(
                p_hat=0.0, stderr=0.0, n_paths=budget * m, n_survived=0,
                method="splitting", path_steps=steps,
                zero_upper_bound=1.0 - 0.05 ** (1.0 / budget),
                extinct_level=level, n_clamped=clamps)
        if level < m:
            surv_y = model.push_batch(surv_states)
            rgen = make_generator(seed ^ _RESAMPLE_SALT, level)
            idx = rgen.integers(0, n_surv, size=budget)
            states = model.pull_batch(surv_y[idx])
        prev_t = t_level
    p_hat = float(np.prod(factors))
    rel_var = sum((1.0 - f) / (f * budget) for f in factors)
    return TailEstimate(
        p_hat=p_hat, stderr=p_hat * math.sqrt(rel_var), n_paths=budget * m,
        n_survived=n_surv, method="splitting", path_steps=steps,
        wilson_interval=_wilson(n_surv, budget) if n_surv < 30 else None,
        n_clamped=clamps)


# ---------------------------------------------------------------------------
# travel-time adjusted estimate through an enclosing domain


@dataclass
class AdjustedTailResult:
    """Adjusted estimate plus the raw enclosing-domain estimate."""

    adjusted: TailEstimate
    enclosing: TailEstimate


def default_full_exit_cap(model: ConjugateFieldModel, epsilon: float,
                          dt: float) -> float:
    """Generous horizon for full-exit runs: escape from scale eps takes about
    log(1/eps)/lambda_d, padded by a factor that makes caps astronomically
    unlikely for healthy configurations."""
    lam_min = model.spectrum.smallest
    base = math.log(1.0 / epsilon) if 0.0 < epsilon < 1.0 else 1.0
    return max(10.0 * (base + 5.0) / lam_min, 100.0 * dt)


def _adjusted_batch(model, noise, box, big_domain, starts, epsilon, stop_time,
                    t_cap, dt, seed, ids):
    """(adjusted survivors, enclosing survivors, path-steps, clamped, capped):
    paths run from starts to their box exit, then on the same streams to
    their big_domain exit, with survival judged at stop_time."""
    res1, gens = _simulate(model, noise, box, starts, epsilon, t_cap, dt,
                           seed, ids)
    steps, clamps = _tally(res1)
    capped = int((~res1["exited"]).sum())
    ex = np.flatnonzero(res1["exited"])
    n_adj = n_big = capped  # capped paths certainly outlast the threshold
    if ex.size:
        states = res1["end_state"][ex]
        travel = flow_exit_times_batch(model, big_domain, states, dt=dt)
        if np.any(np.isnan(travel)):
            raise NoExit("a box exit state failed to leave the enclosing domain")
        res2 = simulate_batch(model, noise, big_domain, states, epsilon,
                              t_cap, dt, [gens[i] for i in ex])
        steps2, clamps2 = _tally(res2)
        steps += steps2
        clamps += clamps2
        capped2 = ~res2["exited"]
        capped += int(capped2.sum())
        tau_big = res1["tau"][ex] + res2["tau"]
        # capped continuations certainly outlast the threshold as well
        n_adj += int(np.sum(capped2 | (tau_big - travel > stop_time)))
        n_big += int(np.sum(capped2 | (tau_big > stop_time)))
    return n_adj, n_big, steps, clamps, capped


def adjusted_tail_estimate(model: ConjugateFieldModel, noise: NoiseModel,
                           box: BoxDomain, big_domain, x, epsilon: float,
                           threshold_spec: ThresholdSpec, n_paths: int,
                           config: PathConfig, seed: int, *, workers: int = 1,
                           batch_size: int = DEFAULT_BATCH_SIZE
                           ) -> AdjustedTailResult:
    """Estimate box survival from exits observed through an enclosing domain.

    Each path runs to its box exit, the deterministic travel time from the
    exit state to the enclosing boundary is computed by flow integration, the
    same path (same stream) then continues to its enclosing-domain exit, and
    survival is judged on tau_enclosing - travel > threshold.  The raw
    enclosing-domain survival count is reported alongside for bracket checks.
    Paths that outlast the cap are flagged and counted as survivors (the cap
    is forced to be at least the threshold).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    x0 = epsilon * np.atleast_1d(np.asarray(x, dtype=float))
    t0 = threshold_spec.time(epsilon)
    t_cap = config.t_cap if config.t_cap > 0.0 else default_full_exit_cap(
        model, epsilon, config.dt)
    t_cap = max(t_cap, 1.5 * t0)
    batch = functools.partial(_adjusted_batch, model, noise, box, big_domain,
                              x0, epsilon, t0, t_cap, config.dt, seed)
    parts = _run_paths(batch, n_paths, batch_size, workers)
    n_adj, n_big, steps, clamps, capped = (sum(col) for col in zip(*parts))
    counters = dict(path_steps=steps, n_clamped=clamps, n_capped=capped)
    return AdjustedTailResult(
        adjusted=_binomial_estimate(n_adj, n_paths, "adjusted", **counters),
        enclosing=_binomial_estimate(n_big, n_paths, "enclosing", **counters))


# ---------------------------------------------------------------------------
# rescaling and regression


def rescaled_prefactor(estimate: TailEstimate, epsilon: float,
                       beta: float) -> tuple[float, float]:
    """(p_hat, stderr) scaled by eps ** -beta; compares against the prefactor."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    scale = epsilon ** (-beta)
    return estimate.p_hat * scale, estimate.stderr * scale


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log eps, log p_hat)."""

    slope: float
    intercept: float
    slope_stderr: float
    points: tuple[tuple[float, float], ...]
    residuals: tuple[float, ...]


def slope_regression(points) -> SlopeFit:
    """OLS slope of log p_hat against log eps.

    Each point is an (epsilon, estimate) pair, and the fit reads the
    estimate's p_hat.  Non-positive estimates are dropped; fewer than 3
    usable points, or a degenerate eps range, raises DegenerateFit.  An exact
    power law gives zero residuals and zero slope error up to rounding.
    """
    pairs = [(float(e), float(est.p_hat)) for e, est in points]
    usable = [(e, p) for e, p in pairs if 0.0 < e < 1.0 and p > 0.0]
    if len(usable) < 3:
        raise DegenerateFit(f"need >= 3 positive estimates, have {len(usable)}")
    lx = np.array([math.log(e) for e, _ in usable])
    ly = np.array([math.log(p) for _, p in usable])
    xbar = lx.mean()
    sxx = float(np.sum((lx - xbar) ** 2))
    if sxx <= 0.0:
        raise DegenerateFit("epsilon values are all equal")
    slope = float(np.sum((lx - xbar) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * xbar)
    resid = ly - (intercept + slope * lx)
    s2 = float(np.sum(resid**2)) / (len(usable) - 2)
    return SlopeFit(slope=slope, intercept=intercept,
                    slope_stderr=math.sqrt(s2 / sxx),
                    points=tuple(zip(lx.tolist(), ly.tolist())),
                    residuals=tuple(resid.tolist()))


# ---------------------------------------------------------------------------
# density diagnostics


def _fluctuation_batch(model, noise, starts, y0, damp, epsilon, stop_time, dt,
                       seed, ids):
    """damp * f(X_T) / eps - y0 for paths run from starts, without exits."""
    res, _ = _simulate(model, noise, None, starts, epsilon, stop_time, dt,
                       seed, ids)
    return damp * model.push_batch(res["end_state"]) / epsilon - y0


def rescaled_fluctuation_samples(model: ConjugateFieldModel, noise: NoiseModel,
                                 y0, epsilon: float, T: float,
                                 config: PathConfig, seed: int,
                                 n_samples: int, *, workers: int = 1,
                                 batch_size: int = DEFAULT_BATCH_SIZE
                                 ) -> np.ndarray:
    """Deviations of pushed-forward states from the deterministic ray.

    Path id p starts at f_inv(eps * y0), runs to time T without exit
    detection, and gives row p of exp(-lambda T) f(X_T)/eps - y0.  For the
    identity model with constant noise the rows are exactly Gaussian with the
    finite-time covariance.  T = 0 or eps = 0 returns exact zeros.  The
    batch_size slices run on up to `workers` fork workers; neither changes
    a sample.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    d = model.spectrum.d
    if y0.shape != (d,):
        raise ValueError(f"y0 must have shape ({d},)")
    if T < 0.0 or not math.isfinite(T):
        raise ValueError("T must be finite and >= 0")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if T == 0.0 or epsilon == 0.0:
        return np.zeros((n_samples, d))
    x0 = model.pull_batch((epsilon * y0)[None, :])[0]
    damp = np.exp(-model.spectrum.as_array() * T)
    batch = functools.partial(_fluctuation_batch, model, noise, x0, y0, damp,
                              epsilon, T, config.dt, seed)
    return np.vstack(_run_paths(batch, n_samples, batch_size, workers))


@dataclass
class DensityDiagnostic:
    """Histogram-vs-reference comparison on a fixed grid."""

    grid: object
    empirical: np.ndarray
    reference: np.ndarray
    sup_diff: float
    l1_diff: float
    mass: float


def _normal_pdf(z: np.ndarray, var: float) -> np.ndarray:
    return np.exp(-0.5 * z * z / var) / math.sqrt(2.0 * math.pi * var)


def density_diagnostic(samples: np.ndarray, C_ref: np.ndarray,
                       grid_points: int = 161,
                       halfwidth_sigmas: float = 6.0) -> DensityDiagnostic:
    """Compare a sample cloud against a centered Gaussian reference.

    d = 2 compares the joint histogram on a grid spanning halfwidth_sigmas
    marginal standard deviations; other dimensions compare the coordinate
    marginals and report the worst coordinate, and d = 1 returns its one
    marginal as plain 1-d arrays.  sup_diff and l1_diff are the sup and
    integrated absolute differences; mass records the sample fraction
    landing on the grid (should be 1 up to tail spill).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.ndim != 2 or samples.shape[0] < MIN_DENSITY_SAMPLES:
        raise ValueError(
            f"samples must be (n, d) with n >= {MIN_DENSITY_SAMPLES}")
    n, d = samples.shape
    C_ref = np.atleast_2d(np.asarray(C_ref, dtype=float))
    if C_ref.shape != (d, d):
        raise ValueError("reference covariance does not match sample dimension")
    if not np.all((np.diag(C_ref) > 0.0) & (np.diag(C_ref) < math.inf)):
        raise ValueError("reference variances must be finite and positive")
    if grid_points < 8:
        raise ValueError("grid_points must be >= 8")
    if not 0.0 < halfwidth_sigmas < math.inf:
        raise ValueError("halfwidth_sigmas must be finite and positive")
    sd = np.sqrt(np.diag(C_ref))
    if d == 2:
        rx = halfwidth_sigmas * sd[0]
        ry = halfwidth_sigmas * sd[1]
        ex = np.linspace(-rx, rx, grid_points + 1)
        ey = np.linspace(-ry, ry, grid_points + 1)
        emp, _, _ = np.histogram2d(samples[:, 0], samples[:, 1], bins=(ex, ey))
        area = (ex[1] - ex[0]) * (ey[1] - ey[0])
        mass = float(emp.sum()) / n
        emp = emp / (n * area)
        cx = 0.5 * (ex[:-1] + ex[1:])
        cy = 0.5 * (ey[:-1] + ey[1:])
        P = np.linalg.inv(C_ref)
        det = float(np.linalg.det(C_ref))
        gx, gy = np.meshgrid(cx, cy, indexing="ij")
        quad = (P[0, 0] * gx * gx + 2.0 * P[0, 1] * gx * gy + P[1, 1] * gy * gy)
        ref = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
        diff = np.abs(emp - ref)
        return DensityDiagnostic(grid=(cx, cy), empirical=emp, reference=ref,
                                 sup_diff=float(diff.max()),
                                 l1_diff=float(np.sum(diff) * area), mass=mass)
    # marginals, worst coordinate governs
    sup = l1 = 0.0
    mass = 1.0
    grids = []
    emps = []
    refs = []
    for j in range(d):
        r = halfwidth_sigmas * sd[j]
        edges = np.linspace(-r, r, grid_points + 1)
        emp, _ = np.histogram(samples[:, j], bins=edges, density=False)
        dx = edges[1] - edges[0]
        mass = min(mass, float(emp.sum()) / n)
        emp = emp / (n * dx)
        centers = 0.5 * (edges[:-1] + edges[1:])
        ref = _normal_pdf(centers, float(C_ref[j, j]))
        diff = np.abs(emp - ref)
        # np.maximum keeps a nan difference, where max(0.0, nan) is 0.0
        sup = float(np.maximum(sup, diff.max()))
        l1 = float(np.maximum(l1, np.sum(diff) * dx))
        grids.append(centers)
        emps.append(emp)
        refs.append(ref)
    grid, emp, ref = grids, np.array(emps), np.array(refs)
    if d == 1:
        grid, emp, ref = grids[0], emp[0], ref[0]
    return DensityDiagnostic(grid=grid, empirical=emp, reference=ref,
                             sup_diff=sup, l1_diff=l1, mass=mass)
