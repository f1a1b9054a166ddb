"""Tail-probability estimators built on the path engine.

Estimates are reproducible to the byte: paths are partitioned into batches of
fixed contiguous path-id ranges, worker processes (fork) claim whole batches,
and results are reduced in batch order.  Worker count therefore changes wall
time only, never the estimate.  The workers are forked once per worker_pool
block, which harness.run_estimate opens around a whole sweep and each
estimator around its own call, and every batch in the block reuses them.
"""

from __future__ import annotations

import contextlib
import io
import math
import multiprocessing
import pickle
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BoxDomain,
    ConjugateFieldModel,
    NoiseModel,
    flow_exit_times_batch,
)
from .errors import DegenerateFit, NoExit
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

# The pool that _map_batches fans out over while a worker_pool block is open.
_ACTIVE_POOL: _ForkPool | None = None
# The objects a pool passes by reference, set while it forks: each worker
# keeps its fork-time copy, and task pickles name these objects by key.
_SHARED: dict[int, object] = {}


class _TaskPickler(pickle.Pickler):
    """Pickles a task, naming every shared object by key instead of by value."""

    def __init__(self, file, shared: dict[int, object]):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.shared = shared

    def persistent_id(self, obj):
        # membership, not `shared.get(key) is obj`, which holds for obj None
        key = id(obj)
        return key if key in self.shared else None


class _TaskUnpickler(pickle.Unpickler):
    def persistent_load(self, key):
        return _SHARED[key]


def _run_task(payload: bytes):
    fn, args = _TaskUnpickler(io.BytesIO(payload)).load()
    return fn(*args)


class _ForkPool:
    """Up to `workers` fork workers, started by the first fan-out that has more
    than one batch and reused by every later one."""

    def __init__(self, workers: int, shared):
        self.workers = workers
        self.shared: dict[int, object] = {}
        self.pool = None
        self.share(shared)

    def share(self, objs) -> bool:
        """Pass objs by reference; False if the workers forked without one."""
        new = {id(o): o for o in objs if o is not None and id(o) not in self.shared}
        if new and self.pool is not None:
            return False
        self.shared.update(new)
        return True

    def map(self, tasks: list) -> list:
        if self.pool is None:
            global _SHARED
            _SHARED = self.shared
            try:
                self.pool = multiprocessing.get_context("fork").Pool(
                    min(self.workers, len(tasks)))
            finally:
                _SHARED = {}
        payloads = []
        for task in tasks:
            buf = io.BytesIO()
            _TaskPickler(buf, self.shared).dump(task)
            payloads.append(buf.getvalue())
        return self.pool.map(_run_task, payloads, chunksize=1)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool.join()

    def terminate(self) -> None:
        if self.pool is not None:
            self.pool.terminate()


@contextlib.contextmanager
def worker_pool(workers: int, *shared):
    """Fan every batch inside the block out over one pool of fork workers.

    The workers fork at the first fan-out that has more than one batch, as
    min(workers, n_batches) processes, and never when workers is 1.  They
    reach the `shared` objects (model, noise, domains) through the fork, so
    these need not pickle; everything else a task carries is pickled.  An
    enclosing block with the same worker count is reused, unless its workers
    already forked without one of `shared`.  On leaving the block the pool
    is closed and joined, or terminated if the block raised.
    """
    global _ACTIVE_POOL
    outer = _ACTIVE_POOL
    if outer is not None and outer.workers == workers and outer.share(shared):
        yield
        return
    pool = _ACTIVE_POOL = _ForkPool(workers, shared)
    try:
        yield
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        _ACTIVE_POOL = outer


def _map_batches(job, n_batches: int, workers: int) -> list:
    """fn(*args) for every batch b, where job(b) = (fn, args), in batch order.

    fn is a module-level function and args are its picklable arguments.
    Batches are keyed by global index, so fanning out over any number of
    fork workers reduces to the same ordered list a serial loop produces.
    Several batches on several workers run on the pool of the enclosing
    worker_pool block, which forks the workers once for every fan-out in
    it; without one, a pool is opened for this call.
    """
    tasks = [job(b) for b in range(n_batches)]
    if workers <= 1 or n_batches <= 1:
        return [fn(*args) for fn, args in tasks]
    with worker_pool(workers):
        return _ACTIVE_POOL.map(tasks)


def _run_paths(task, n: int, batch_size: int, workers: int) -> list:
    """Run the task(start, stop) = (fn, args) of each batch_size slice of path
    ids [0, n), in order."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    def job(b: int):
        start = b * batch_size
        return task(start, min(start + batch_size, n))
    return _map_batches(job, -(-n // batch_size), workers)


def _tally(res: dict) -> tuple[int, int]:
    """(path-steps, clamped paths) of one simulate_batch result."""
    return int(res["steps_used"].sum()), int(res["clamped"].sum())


# The batch jobs below run one batch_size slice, in a worker or in-process.


def _simulate(model, noise, domain, starts, epsilon, stop_time, dt, seed, ids):
    """simulate_batch of the paths with ids `ids` from starts, which is one
    row for every path or one row per path; also the paths' generators."""
    gens = [make_generator(seed, pid) for pid in ids]
    X0 = np.broadcast_to(starts, (len(ids), starts.shape[-1]))
    return simulate_batch(model, noise, domain, X0, epsilon, stop_time, dt,
                          gens), gens


def _direct_batch(*args):
    """(exited, path-steps, clamped) of _simulate(*args)."""
    res, _ = _simulate(*args)
    return (int(res["exited"].sum()), *_tally(res))


def _level_batch(*args):
    """(survivor end states, path-steps, clamped) of _simulate(*args)."""
    res, _ = _simulate(*args)
    return (res["end_state"][~res["exited"]], *_tally(res))


def direct_tail_estimate(model: ConjugateFieldModel, noise: NoiseModel,
                         domain, x, epsilon: float,
                         threshold_spec: ThresholdSpec, n_paths: int,
                         config: PathConfig, seed: int, workers: int = 1,
                         batch_size: int = DEFAULT_BATCH_SIZE) -> TailEstimate:
    """Plain Monte Carlo estimate of P(no exit before the threshold time).

    Paths start at eps * x and run on the dt grid to the threshold.  With
    threshold time 0 the estimate is exactly 1 (nothing can exit at t = 0
    from a strict interior start).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    x0 = epsilon * np.atleast_1d(np.asarray(x, dtype=float))
    t0 = threshold_spec.time(epsilon)

    def task(start, stop):
        return _direct_batch, (model, noise, domain, x0, epsilon, t0,
                               config.dt, seed, range(start, stop))

    with worker_pool(workers, model, noise, domain):
        parts = _run_paths(task, n_paths, batch_size, workers)
    n_exited, steps, clamps = (sum(col) for col in zip(*parts))
    return _binomial_estimate(n_paths - n_exited, n_paths, "direct",
                              path_steps=steps, n_clamped=clamps)


# ---------------------------------------------------------------------------
# fixed-effort splitting


def splitting_tail_estimate(model: ConjugateFieldModel, noise: NoiseModel,
                            domain, x, epsilon: float,
                            threshold_spec: ThresholdSpec, budget: int,
                            config: PathConfig, seed: int, workers: int = 1,
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
    with worker_pool(workers, model, noise, domain):
        for level, t_level in enumerate(times, start=1):
            duration = t_level - prev_t
            # level ids (level << _LEVEL_SHIFT) | slot are base + slot
            base = level << _LEVEL_SHIFT

            def task(start, stop):
                return _level_batch, (model, noise, domain, states[start:stop],
                                      epsilon, duration, config.dt, seed,
                                      range(base + start, base + stop))

            parts = _run_paths(task, budget, batch_size, workers)
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
                           config: PathConfig, seed: int, workers: int = 1,
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

    def task(start, stop):
        return _adjusted_batch, (model, noise, box, big_domain, x0, epsilon,
                                 t0, t_cap, config.dt, seed, range(start, stop))

    with worker_pool(workers, model, noise, box, big_domain):
        parts = _run_paths(task, n_paths, batch_size, workers)
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
                                 n_samples: int,
                                 batch_size: int = DEFAULT_BATCH_SIZE,
                                 workers: int = 1) -> np.ndarray:
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

    def task(start, stop):
        return _fluctuation_batch, (model, noise, x0, y0, damp, epsilon, T,
                                    config.dt, seed, range(start, stop))

    with worker_pool(workers, model, noise):
        return np.vstack(_run_paths(task, n_samples, batch_size, workers))


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
    marginal as plain 1-d arrays.  sup_diff and
    l1_diff are the sup and integrated absolute differences; mass records the
    sample fraction landing on the grid (should be 1 up to tail spill).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.ndim != 2 or samples.shape[0] < MIN_DENSITY_SAMPLES:
        raise ValueError(
            f"samples must be (n, d) with n >= {MIN_DENSITY_SAMPLES}")
    n, d = samples.shape
    C_ref = np.atleast_2d(np.asarray(C_ref, dtype=float))
    if C_ref.shape != (d, d):
        raise ValueError("reference covariance does not match sample dimension")
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
        sup = max(sup, float(diff.max()))
        l1 = max(l1, float(np.sum(diff) * dx))
        grids.append(centers)
        emps.append(emp)
        refs.append(ref)
    grid, emp, ref = grids, np.array(emps), np.array(refs)
    if d == 1:
        grid, emp, ref = grids[0], emp[0], ref[0]
    return DensityDiagnostic(grid=grid, empirical=emp, reference=ref,
                             sup_diff=sup, l1_diff=l1, mass=mass)
