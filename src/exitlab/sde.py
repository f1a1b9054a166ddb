"""Euler-Maruyama paths with counter-based, per-path random streams.

Randomness contract: path ``p`` of a run seeded with ``s`` consumes the
stream of ``Philox(key=(s, p))`` in order, in blocks of ``BLOCK_STEPS``
steps.  A path's outcome therefore depends only on ``(s, p)`` and the step
grid, never on batch shape, worker count, or what other paths do.  The block
size is a module constant, not a tunable: a continuation run resumes a
path's stream at the block boundary where the previous phase stopped, and
changing the constant would silently change continuations.

Layout: ``simulate_batch`` holds only the paths still alive, as one
C-contiguous ``(d, A)`` array whose column ``i`` is the state of path
``ids[i]``.  On a step where paths exit, the state, the ids and the block
columns of the rest are compacted with ``ndarray.take``; no step gathers
from or scatters into a batch-sized array, and ``steps_used`` is set from
each path's exit step.  A block's constant-noise increments are drawn per
path, mixed with ``xi @ sig0.T`` a few paths at a time, and stored
step-major ``(kb, d, A)``, so a step reads one contiguous ``(d, A)`` slab.

None of this changes an output byte.  Each path draws from its own stream in
the same order.  numpy's stacked ``matmul`` multiplies each path's
``(kb, n)`` block on its own, so grouping paths differently leaves the
product unchanged.  Every later operation acts on each path on its own, in
the same order on the same operands.  Model and box calls take ``(A, d)``
views of the state.  ``SmoothDomain.outside`` and a state-dependent
``sigma_batch`` get row-major copies instead: their built-in forms sum over
the coordinates, and numpy rounds such a sum by memory layout from d = 9 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import BoxDomain, ConjugateFieldModel, NoiseModel, SmoothDomain

BLOCK_STEPS = 512
# Paths whose noise block is drawn, mixed and turned step-major together:
# the two path-major buffers of a 64-path group (1 MB at 512 steps and
# d = n = 2) stay in L2 while they are transposed.
_MIX_PATHS = 64


@dataclass(frozen=True)
class PathConfig:
    """Step size and stopping mode for simulated paths.

    mode "tail_indicator" runs to the threshold time and reports survival;
    mode "full_exit" runs until the path leaves the domain or hits t_cap.
    """

    dt: float = 1e-3
    t_cap: float = 0.0
    mode: str = "tail_indicator"

    def __post_init__(self):
        if not (0.0 < self.dt <= 1e-2):
            raise ValueError("dt must lie in (0, 0.01]")
        if self.t_cap < 0.0 or not math.isfinite(self.t_cap):
            raise ValueError("t_cap must be finite and >= 0 (0 means derived)")
        if 0.0 < self.t_cap < self.dt:
            raise ValueError("t_cap below dt cannot take a single step")
        if self.mode not in ("tail_indicator", "full_exit"):
            raise ValueError("mode must be 'tail_indicator' or 'full_exit'")


@dataclass
class RngStream:
    """Counter-based stream identified by (seed, path_id)."""

    seed: int
    path_id: int

    def __post_init__(self):
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = make_generator(self.seed, self.path_id)
        return self._gen

    def draw(self, count: int) -> np.ndarray:
        return self.generator.standard_normal(count)


def make_generator(seed: int, path_id: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(path_id & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_increments(stream: RngStream, count: int) -> np.ndarray:
    """Next `count` standard normals of the stream, consuming it."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return stream.draw(int(count))


@dataclass
class ExitObservation:
    """Outcome of one simulated path."""

    survived: bool
    tau: float | None
    exit_state: np.ndarray | None
    exit_y: np.ndarray | None
    steps_used: int
    clamped: bool = False
    capped: bool = False


def _initial_outside(model: ConjugateFieldModel, domain, X0: np.ndarray) -> np.ndarray:
    """Starts on the boundary or outside exit immediately (tau = 0)."""
    if isinstance(domain, BoxDomain):
        return domain.not_strictly_inside(model.push_batch(X0))
    return domain.outside(X0)


def _draw(gens: list, ids: np.ndarray, count: int) -> np.ndarray:
    """Next `count` normals from the stream of each listed path, one row each."""
    xi = np.empty((ids.size, count))
    for r, i in enumerate(ids):
        gens[i].standard_normal(out=xi[r])
    return xi


def _step_major_noise(gens: list, ids: np.ndarray, kb: int,
                      sig0: np.ndarray) -> np.ndarray:
    """The next kb constant-noise increments xi @ sig0.T, laid out (kb, d, A)."""
    d, n = sig0.shape
    dW = np.empty((kb, d, ids.size))
    for a in range(0, ids.size, _MIX_PATHS):
        sub = ids[a:a + _MIX_PATHS]
        xi = _draw(gens, sub, kb * n).reshape(sub.size, kb, n)
        dW[:, :, a:a + sub.size] = (xi @ sig0.T).transpose(1, 2, 0)
    return dW


def simulate_batch(model: ConjugateFieldModel, noise: NoiseModel, domain,
                   X0: np.ndarray, epsilon: float, stop_time: float,
                   dt: float, gens: list, want_final: bool = False) -> dict:
    """Advance a batch of paths on the shared grid until exit or stop_time.

    X0 is (m, d); gens holds one Generator per row, consumed in order.
    domain may be None to disable exit detection (pure propagation).
    Returns arrays keyed exited/tau/steps_used/exit_state/exit_y/clamped
    and, if requested, final_state for rows still running at stop_time.
    steps_used is 0 for starts outside the domain, the 1-based step of the
    exit for paths that leave, and the number of grid steps for the rest.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    m, d = X0.shape
    n_noise = noise.n
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1)")
    if stop_time < 0.0 or not math.isfinite(stop_time):
        raise ValueError("stop_time must be finite and >= 0")

    n_steps = int(math.ceil(stop_time / dt - 1e-12)) if stop_time > 0.0 else 0
    exited = np.zeros(m, dtype=bool)
    tau = np.full(m, np.nan)
    steps_used = np.full(m, n_steps, dtype=np.int64)
    exit_state = np.full((m, d), np.nan)
    exit_y = np.full((m, d), np.nan)
    clamped = np.zeros(m, dtype=bool)
    final_state = np.full((m, d), np.nan) if want_final else None

    detect = domain is not None
    box = isinstance(domain, BoxDomain)
    ids = np.arange(m)
    if detect:
        out0 = _initial_outside(model, domain, X0)
        if out0.any():
            exited[out0] = True
            tau[out0] = 0.0
            steps_used[out0] = 0
            exit_state[out0] = X0[out0]
            exit_y[out0] = model.push_batch(X0[out0])
            ids = np.flatnonzero(~out0)
    # Alive paths only, coordinate-major: X[:, i] is the state of path ids[i].
    X = np.ascontiguousarray(X0[ids].T)

    sig0 = noise.sigma0
    const_noise = noise.constant
    k = 0
    while ids.size and k < n_steps:
        kb = min(BLOCK_STEPS, n_steps - k)
        n_alive = ids.size
        dW = xi = None  # drop the last block's noise before drawing the next
        if epsilon > 0.0 and const_noise:
            dW = _step_major_noise(gens, ids, kb, sig0)
        elif epsilon > 0.0:
            xi = _draw(gens, ids, kb * n_noise).reshape(n_alive, kb, n_noise)
        # block column of each alive path, for reading this block's noise
        cols = np.arange(n_alive)
        for j in range(kb):
            last = (k + j + 1) == n_steps
            h = stop_time - (n_steps - 1) * dt if last else dt
            t_next = stop_time if last else (k + j + 1) * dt
            x = X.T
            b = model.drift_batch(x)
            x = x + b * h
            if dW is not None:
                w = dW[j] if cols.size == n_alive else dW[j].take(cols, axis=1)
                x = x + (epsilon * math.sqrt(h)) * w.T
            elif xi is not None:
                sig = noise.sigma_batch(np.ascontiguousarray(X.T))
                x = x + (epsilon * math.sqrt(h)) * np.einsum(
                    "rdn,rn->rd", sig, xi[cols, j, :])
            x, over = model.clamp(x)
            if over.any():
                clamped[ids[over]] = True
            X = x.T
            if detect:
                if box:
                    y = model.push_batch(x)
                    out = domain.outside(y)
                else:
                    y = None
                    out = domain.outside(np.ascontiguousarray(x))
                if out.any():
                    hit = ids[out]
                    exited[hit] = True
                    tau[hit] = t_next
                    steps_used[hit] = k + j + 1
                    exit_state[hit] = x[out]
                    exit_y[hit] = y[out] if y is not None else model.push_batch(x[out])
                    keep = np.flatnonzero(~out)
                    ids = ids.take(keep)
                    cols = cols.take(keep)
                    X = X.take(keep, axis=1)
                    if ids.size == 0:
                        break
        k += kb

    if want_final and ids.size:
        final_state[ids] = X.T
    result = {
        "exited": exited, "tau": tau, "steps_used": steps_used,
        "exit_state": exit_state, "exit_y": exit_y, "clamped": clamped,
    }
    if want_final:
        result["final_state"] = final_state
    return result


def _single_result(res: dict, capped: bool) -> ExitObservation:
    if res["exited"][0]:
        return ExitObservation(
            survived=False, tau=float(res["tau"][0]),
            exit_state=res["exit_state"][0].copy(),
            exit_y=res["exit_y"][0].copy(),
            steps_used=int(res["steps_used"][0]),
            clamped=bool(res["clamped"][0]), capped=False)
    return ExitObservation(
        survived=True, tau=None, exit_state=None, exit_y=None,
        steps_used=int(res["steps_used"][0]),
        clamped=bool(res["clamped"][0]), capped=capped)


def default_full_exit_cap(model: ConjugateFieldModel, epsilon: float,
                          dt: float) -> float:
    """Generous horizon for full-exit runs: escape from scale eps takes about
    log(1/eps)/lambda_d, padded by a factor that makes caps astronomically
    unlikely for healthy configurations."""
    lam_min = model.spectrum.smallest
    base = math.log(1.0 / epsilon) if 0.0 < epsilon < 1.0 else 1.0
    return max(10.0 * (base + 5.0) / lam_min, 100.0 * dt)


def simulate_path(model: ConjugateFieldModel, noise: NoiseModel, domain,
                  x0, epsilon: float, threshold: float, config: PathConfig,
                  stream: RngStream) -> ExitObservation:
    """One path from x0; survival means no exit before the threshold.

    In "tail_indicator" mode the path stops at the threshold time.  In
    "full_exit" mode it runs until it leaves the domain or reaches
    config.t_cap, in which case it comes back flagged capped.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if config.mode == "tail_indicator":
        if threshold < 0.0 or not math.isfinite(threshold):
            raise ValueError("threshold must be finite and >= 0")
        stop = threshold
    else:
        stop = config.t_cap if config.t_cap > 0.0 else default_full_exit_cap(
            model, epsilon, config.dt)
    res = simulate_batch(model, noise, domain, x0[None, :], epsilon, stop,
                         config.dt, [stream.generator])
    return _single_result(res, capped=config.mode == "full_exit")


def simulate_rescaled_fluctuation(model: ConjugateFieldModel, noise: NoiseModel,
                                  y0, epsilon: float, T: float,
                                  config: PathConfig, stream: RngStream
                                  ) -> np.ndarray:
    """Deviation of the pushed-forward state from the deterministic ray.

    Starts at f_inv(eps * y0), runs to time T without exit detection, and
    returns exp(-lambda T) f(X_T)/eps - y0.  For the identity model with
    constant noise this is exactly Gaussian with the finite-time covariance.
    T = 0 or eps = 0 returns exact zeros.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if T < 0.0 or not math.isfinite(T):
        raise ValueError("T must be finite and >= 0")
    d = model.spectrum.d
    if y0.shape != (d,):
        raise ValueError(f"y0 must have shape ({d},)")
    if T == 0.0 or epsilon == 0.0:
        return np.zeros(d)
    x0 = model.pull(epsilon * y0)
    res = simulate_batch(model, noise, None, x0[None, :], epsilon, T,
                         config.dt, [stream.generator], want_final=True)
    xT = res["final_state"][0]
    lam = model.spectrum.as_array()
    return np.exp(-lam * T) * model.push(xT) / epsilon - y0


def rescaled_fluctuation_samples(model: ConjugateFieldModel, noise: NoiseModel,
                                 y0, epsilon: float, T: float,
                                 config: PathConfig, seed: int,
                                 n_samples: int, batch_size: int = 16384
                                 ) -> np.ndarray:
    """n_samples independent fluctuation draws, one path id per sample."""
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    d = model.spectrum.d
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if T == 0.0 or epsilon == 0.0:
        return np.zeros((n_samples, d))
    x0 = model.pull(epsilon * y0)
    lam = model.spectrum.as_array()
    out = np.empty((n_samples, d))
    damp = np.exp(-lam * T)
    for start in range(0, n_samples, batch_size):
        stop = min(start + batch_size, n_samples)
        gens = [make_generator(seed, pid) for pid in range(start, stop)]
        X0 = np.broadcast_to(x0, (stop - start, d))
        res = simulate_batch(model, noise, None, X0, epsilon, T, config.dt,
                             gens, want_final=True)
        out[start:stop] = damp * model.push_batch(res["final_state"]) / epsilon - y0
    return out
