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

from .dynamics import BoxDomain, ConjugateFieldModel, NoiseModel

BLOCK_STEPS = 512
# Paths whose noise block is drawn, mixed and turned step-major together:
# the two path-major buffers of a 64-path group (1 MB at 512 steps and
# d = n = 2) stay in L2 while they are transposed.
_MIX_PATHS = 64


@dataclass(frozen=True)
class PathConfig:
    """Step size of simulated paths and the time cap of full-exit runs."""

    dt: float = 1e-3
    t_cap: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.dt <= 1e-2):
            raise ValueError("dt must lie in (0, 0.01]")
        if self.t_cap < 0.0 or not math.isfinite(self.t_cap):
            raise ValueError("t_cap must be finite and >= 0 (0 means derived)")
        if 0.0 < self.t_cap < self.dt:
            raise ValueError("t_cap below dt cannot take a single step")


def make_generator(seed: int, path_id: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(path_id & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")

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
    clamps = math.isfinite(model.validity_radius)  # nothing to clamp at inf
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
            if clamps:
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
