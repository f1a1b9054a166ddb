"""Euler-Maruyama paths with counter-based, per-path random streams.

Randomness contract: path ``p`` of a run seeded with ``s`` consumes the
stream of ``Philox(key=(s, p))`` in order, in blocks of ``BLOCK_STEPS``
steps.  A path's outcome therefore depends only on ``(s, p)`` and the step
grid, never on batch shape, worker count, or what other paths do.  The block
size is a module constant, not a tunable: a continuation run resumes a
path's stream at the block boundary where the previous phase stopped, and
changing the constant would silently change continuations.

Layout: ``simulate_batch`` holds only the paths still alive.  A block's
normals are drawn per path and stored step-major, ``(kb, width, A)``, in
one buffer per batch (``_noise_buffer``).  Constant noise stores the
increments ``xi @ sig0.T`` (width d; a square diagonal ``sig0`` scales each
coordinate instead); state-dependent noise stores the raw normals (width
n).  The block is walked in sub-blocks of ``_SUB_STEPS`` steps, and a
sub-block takes its noise columns once.  Constant increments are then
scaled by ``eps * sqrt(dt)`` in place; state-dependent ones are mixed per
step by ``sigma(x)``.  Each step writes its state in place into slot ``s``
of a coordinate-major ``(d, S, A)`` trajectory, whose column ``i`` belongs
to path ``ids[i]``.  Exits are checked once per sub-block, on all S steps
as one ``(S*A, d)`` stack: ``argmax`` over the step axis gives each path's
first exit step, which sets ``tau``, ``steps_used`` and the end state.  The
rest are then compacted with ``ndarray.take``.  A path that exits
mid-sub-block keeps stepping (and clamping) to the sub-block's end; those
later states are thrown away, and a clamp counts only on steps up to the
exit.

None of this changes an output byte.  Each path draws from its own stream in
the same order, whole blocks at a time, so the generator state at an exit
is the same as with a per-step check.  numpy's stacked ``matmul`` multiplies
each path's ``(kb, n)`` block on its own, so grouping paths differently
leaves the product unchanged; with a diagonal ``sig0`` each product is one
nonzero term plus exact zeros.  Every later operation acts on each path on
its own, in the same order on the same operands.  Model and box calls take
column-major ``(m, d)`` views of the state.  ``SmoothDomain.outside`` and a
state-dependent ``sigma_batch`` get row-major copies instead: their built-in
forms sum over the coordinates, and numpy rounds such a sum by memory
layout from d = 9 on.
"""

from __future__ import annotations

import math
import mmap
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .dynamics import BoxDomain, ConjugateFieldModel, NoiseModel

BLOCK_STEPS = 512
# Steps that alive paths take between two exit checks; divides BLOCK_STEPS.
_SUB_STEPS = 32
# Paths whose noise block is drawn, mixed and turned step-major together:
# the two path-major buffers of a 64-path group (1 MB at 512 steps and
# d = n = 2) stay in L2 while they are transposed.
_MIX_PATHS = 64
# A batch's noise buffer of this many bytes or more gets a mapping of its own.
_MAPPED_BYTES = 1 << 22
_U64 = 0xFFFFFFFFFFFFFFFF


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


class _PhiloxKey(ISpawnableSeedSequence):
    """Seeds Philox with a given key; answers no other request.

    ``Philox(key=...)`` first builds an OS-entropy SeedSequence that it then
    ignores.  Passing this object as the seed skips that: Philox asks it for
    two uint64 words and uses them as the key, which gives the same stream.
    Any other request raises, so a numpy that seeded differently would fail
    loudly instead of changing the streams.
    """

    __slots__ = ("_key",)

    def __init__(self, key: np.ndarray):
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise TypeError(f"a Philox key is 2 uint64 words, not {n_words} "
                            f"of {np.dtype(dtype)}")
        return self._key

    def spawn(self, n_children):
        raise TypeError("a keyed path stream does not spawn children")


def make_generator(seed: int, path_id: int) -> np.random.Generator:
    """The stream of ``Philox(key=(seed, path_id))``, both taken mod 2**64.

    Either may be a numpy integer: ``operator.index`` makes it a Python int,
    which the 64-bit mask needs.
    """
    key = np.array([operator.index(seed) & _U64, operator.index(path_id) & _U64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def _initial_outside(model: ConjugateFieldModel, domain, X0: np.ndarray) -> np.ndarray:
    """Starts on the boundary or outside exit immediately (tau = 0)."""
    if isinstance(domain, BoxDomain):
        return domain.not_strictly_inside(model.push_batch(X0))
    return domain.outside(X0)


def _noise_buffer(n: int) -> np.ndarray:
    """n uninitialised floats that hold every noise block of one batch.

    The first block is the largest, so later blocks view a prefix.  A buffer
    of ``_MAPPED_BYTES`` or more is an anonymous mapping of its own, unmapped
    when its last view goes.  Taken from the malloc heap, a freed multi-MB
    buffer could be split by small allocations so that the next batch's no
    longer fit, and the heap grew by a second buffer: peak RSS then depended
    on the order of allocations, which differed from run to run.
    """
    if n * 8 < _MAPPED_BYTES:
        return np.empty(n)
    return np.frombuffer(mmap.mmap(-1, n * 8, flags=mmap.MAP_PRIVATE), dtype=np.float64)


def _step_major_noise(gens: list, ids: np.ndarray, kb: int,
                      sig0: np.ndarray, out=None) -> np.ndarray:
    """The next kb increments xi @ sig0.T of each listed path, laid out (kb, d, A).

    xi holds the path's next kb * n normals as kb rows.  A square diagonal
    sig0 skips the matmul and scales coordinate j's slab by sig0[j, j] in
    place: each matmul product is that one term plus exact zeros, so the
    values are the same.  An identity sig0 therefore leaves the raw normals.
    """
    d, n = sig0.shape
    diagonal = d == n and np.array_equal(sig0, np.diag(np.diagonal(sig0)))
    dW = np.empty((kb, d, ids.size)) if out is None else out
    for a in range(0, ids.size, _MIX_PATHS):
        sub = ids[a:a + _MIX_PATHS]
        xi = np.empty((sub.size, kb * n))
        for r, i in enumerate(sub):
            gens[i].standard_normal(out=xi[r])
        xi = xi.reshape(sub.size, kb, n)
        dW[:, :, a:a + sub.size] = (xi if diagonal else xi @ sig0.T).transpose(1, 2, 0)
    if diagonal:
        for j in range(d):
            if sig0[j, j] != 1.0:
                np.multiply(dW[:, j], sig0[j, j], out=dW[:, j])
    return dW


def simulate_batch(model: ConjugateFieldModel, noise: NoiseModel, domain,
                   X0: np.ndarray, epsilon: float, stop_time: float,
                   dt: float, gens: list) -> dict:
    """Advance a batch of paths on the shared grid until exit or stop_time.

    X0 is (m, d); gens holds one Generator per row, consumed in order.
    domain may be None to disable exit detection (pure propagation).
    Returns five arrays keyed exited/tau/steps_used/end_state/clamped.
    A row of end_state is the path's exit state (X0 for a start outside the
    domain), or its state at stop_time if it did not exit.  steps_used is 0
    for starts outside the domain, the 1-based step of the exit for paths
    that leave, and the number of grid steps for the rest.  Both noise forms
    are drawn step-major into one buffer (see the module docstring).
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    m, d = X0.shape
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
    end_state = np.empty((m, d))  # every row is set below
    clamped = np.zeros(m, dtype=bool)

    detect = domain is not None
    box = isinstance(domain, BoxDomain)
    ids = np.arange(m)
    if detect:
        out0 = _initial_outside(model, domain, X0)
        if out0.any():
            exited[out0] = True
            tau[out0] = 0.0
            steps_used[out0] = 0
            end_state[out0] = X0[out0]
            ids = np.flatnonzero(~out0)
    # Alive paths only, coordinate-major: X[:, i] is the state of path ids[i].
    X = np.ascontiguousarray(X0[ids].T)

    const_noise = noise.constant
    # Constant noise stores its increments; state noise stores raw normals.
    sig0 = noise.sigma0 if const_noise else np.eye(noise.n)
    width = sig0.shape[0]  # noise numbers per path and step
    clamps = math.isfinite(model.validity_radius)  # nothing to clamp at inf
    h_last = stop_time - (n_steps - 1) * dt  # the final step's own size
    # Flat buffers that every sub-block views at its own (S, A) shape.
    traj_buf = np.empty(d * _SUB_STEPS * ids.size)
    bh_buf = np.empty(d * ids.size)
    over_buf = np.empty(_SUB_STEPS * ids.size, dtype=bool) if clamps else None
    noise_buf = _noise_buffer(min(BLOCK_STEPS, n_steps) * width * ids.size
                              if epsilon > 0.0 else 0)
    k = 0
    while ids.size and k < n_steps:
        kb = min(BLOCK_STEPS, n_steps - k)
        dW = w = None
        if epsilon > 0.0:
            dW = _step_major_noise(gens, ids, kb, sig0, noise_buf[
                :kb * width * ids.size].reshape(kb, width, ids.size))
        # block column of each alive path, for reading this block's noise
        cols = np.arange(ids.size)
        for j0 in range(0, kb, _SUB_STEPS):
            S = min(_SUB_STEPS, kb - j0)
            A = ids.size
            ends = k + j0 + S == n_steps  # this sub-block takes the final step
            traj = traj_buf[:d * S * A].reshape(d, S, A)
            bh = bh_buf[:d * A].reshape(d, A).T
            if dW is not None:
                w = dW[j0:j0 + S]
                if cols.size != w.shape[2]:
                    w = w.take(cols, axis=2)
                if const_noise:
                    # each slab is read once, so it is scaled where it lies
                    tail = (epsilon * math.sqrt(h_last)) * w[-1] if ends else None
                    np.multiply(w, epsilon * math.sqrt(dt), out=w)
                    if ends:
                        w[-1] = tail
            if clamps:
                over_s = over_buf[:S * A].reshape(S, A)
            prev = X
            for s in range(S):
                h = h_last if ends and s == S - 1 else dt
                x = prev.T
                cur = traj[:, s]
                xt = cur.T
                np.multiply(model.drift_batch(x), h, out=bh)
                np.add(x, bh, out=xt)
                if w is not None and const_noise:
                    np.add(cur, w[s], out=cur)
                elif w is not None:
                    # einsum rounds by layout, so it gets a C-contiguous z
                    sig = noise.sigma_batch(np.ascontiguousarray(x))
                    z = np.ascontiguousarray(w[s].T)
                    np.add(xt, (epsilon * math.sqrt(h)) * np.einsum(
                        "rdn,rn->rd", sig, z), out=xt)
                if clamps:
                    xc, over_s[s] = model.clamp(xt)
                    if xc is not xt:
                        xt[...] = xc
                prev = cur

            gone = None
            if detect:
                flat = traj.reshape(d, S * A).T  # row s*A + i: path i at step s
                if box:
                    out = domain.outside(model.push_batch(flat)).reshape(S, A)
                else:
                    out = domain.outside(np.ascontiguousarray(flat)).reshape(S, A)
                if out.any():
                    gone = out.any(axis=0)
                    first = out.argmax(axis=0)  # first exit step in the sub-block
                    hit = np.flatnonzero(gone)
                    sh = first[hit]
                    hit_ids = ids[hit]
                    step = k + j0 + sh + 1
                    exited[hit_ids] = True
                    tau[hit_ids] = np.where(step == n_steps, stop_time, step * dt)
                    steps_used[hit_ids] = step
                    end_state[hit_ids] = traj[:, sh, hit].T
            if clamps:
                flag = over_s.any(axis=0)
                if gone is not None and flag.any():
                    # a clamp after a path's exit step does not count
                    flag &= ~gone | (over_s.argmax(axis=0) <= first)
                clamped[ids[flag]] = True
            if gone is None:
                X = traj[:, S - 1].copy()
            else:
                keep = np.flatnonzero(~gone)
                ids = ids.take(keep)
                cols = cols.take(keep)
                X = traj[:, S - 1].take(keep, axis=1)
                if ids.size == 0:
                    break
        k += kb

    end_state[ids] = X.T
    return {"exited": exited, "tau": tau, "steps_used": steps_used,
            "end_state": end_state, "clamped": clamped}
