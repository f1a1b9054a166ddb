"""Euler-Maruyama paths with counter-based, per-path random streams.

Randomness contract: path ``p`` of a run seeded with ``s`` consumes the
stream of ``Philox(key=(s, p))`` in order, in blocks of ``BLOCK_STEPS``
steps.  A path's outcome therefore depends only on ``(s, p)`` and the step
grid, never on batch shape, worker count, or what other paths do.  The block
size is a module constant, not a tunable: a continuation run resumes a
path's stream at the block boundary where the previous phase stopped, and
changing the constant would silently change continuations.

Layout: ``simulate_batch`` holds only the rows still alive.  One stream
rule: of ``G`` generators, row ``r`` steps on ``gens[r % G]``, so the row
count is a multiple of ``G`` and rows ``r``, ``r + G``, ... share a stream.
The direct estimator stacks the cells of a sweep cell-major on the streams
of one set of path ids (common random numbers); every other caller has one
row per stream.  A block's normals are drawn once per stream that still
has an alive row, to the longest grid left, and stored step-major,
``(kb, width, A)``, in one buffer per batch (``_noise_buffer``).  Constant
noise stores the increments ``xi @ sig0.T`` (width d; a square diagonal
``sig0`` scales each coordinate instead); state-dependent noise stores the
raw normals (width n).  The block is walked in sub-blocks of at most
``_SUB_STEPS`` steps and ``_SUB_STEPS`` step-rows per stream.  One read
rule: a sub-block reads the block in place while the alive rows are its
columns in order, and otherwise takes its rows' columns with one ``take``.
Constant increments are then scaled by ``eps * sqrt(dt)`` in place, one
scalar when the batch has one epsilon; state-dependent ones are mixed per
step by ``sigma(x)``.  Each row has its own grid: its last step has its
own size, and the steps past it, taken until the sub-block ends, neither
exit nor clamp.  Each step writes its state in place into slot ``s`` of a
coordinate-major ``(d, S, A)`` trajectory, whose column ``i`` belongs to
row ``ids[i]``.  Exits are checked once per sub-block, on all S steps as
one ``(S*A, d)`` stack: ``argmax`` over the step axis gives each row's
first exit step, which sets ``tau``, ``steps_used`` and the end state.  The
rows that exit or reach their stop time are then compacted out with
``ndarray.take``.  A row that exits mid-sub-block keeps stepping (and
clamping) to the sub-block's end; those later states are thrown away, and
a clamp counts only on steps up to the exit.

None of this changes an output byte.  Each row reads its stream in the same
order, whole blocks at a time, and a block drawn longer has the shorter
draw as its prefix.  Rows with different stop times may read a stream past
one row's grid, which that row never uses; only a batch with one stop time
leaves each generator where a continuation resumes it.  numpy's stacked
``matmul`` multiplies each stream's ``(kb, n)`` block on its own, so
grouping paths differently leaves the product unchanged; with a diagonal
``sig0`` each product is one nonzero term plus exact zeros.  Every later operation acts
on each row on its own, in the same order on the same operands: a per-row
epsilon or step size multiplies as the scalar would.  Model and box calls
take column-major ``(m, d)`` views of the state.  ``SmoothDomain.outside``
and a state-dependent ``sigma_batch`` get row-major copies instead: their
built-in forms sum over the coordinates, and numpy rounds such a sum by
memory layout from d = 9 on.
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
# Most steps that alive rows take between two exit checks; divides
# BLOCK_STEPS.  Also the step-rows per stream in one sub-block.
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
                   X0: np.ndarray, epsilon, stop_time, dt: float,
                   gens: list) -> dict:
    """Advance a batch of paths on the dt grid until exit or their stop time.

    X0 is (m, d).  epsilon and stop_time are one value for every row or one
    value per row; epsilon is 0 on every row or on none.  m is a multiple
    of len(gens), and row r reads the normals of gens[r % len(gens)], so
    rows that share a stream step on the same normals.  A row's stop time
    sets its own grid: ceil(stop / dt) steps, the last one of its own size.
    domain may be None to disable exit detection (pure propagation).
    Returns five arrays keyed exited/tau/steps_used/end_state/clamped.
    A row of end_state is the path's exit state (X0 for a start outside the
    domain), or its state at its stop time if it did not exit.  steps_used
    is 0 for starts outside the domain, the 1-based step of the exit for
    paths that leave, and the number of grid steps for the rest.  A stream
    is drawn in whole blocks for as long as one of its rows is alive, to
    the longest grid left in the batch; with one stop time that is the
    grid, so a continuation can resume the generators.  Both noise forms
    are drawn step-major into one buffer (see the module docstring).
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    m, d = X0.shape
    eps = np.broadcast_to(np.asarray(epsilon, dtype=float), (m,))
    stop = np.broadcast_to(np.asarray(stop_time, dtype=float), (m,))
    if not np.all((0.0 <= eps) & (eps < 1.0)):
        raise ValueError("epsilon must lie in [0, 1)")
    draws = bool(eps.any())
    if draws and not eps.all():
        raise ValueError("epsilon must be 0 on every row or on none")
    if not np.all((stop >= 0.0) & (stop < math.inf)):
        raise ValueError("stop_time must be finite and >= 0")
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    G = len(gens)
    if G == 0 or m % G:
        raise ValueError(f"{m} rows are not a multiple of {G} generators")

    n_steps = np.where(stop > 0.0, np.ceil(stop / dt - 1e-12),
                       0.0).astype(np.int64)
    h_last = stop - (n_steps - 1) * dt  # each row's final step size
    exited = np.zeros(m, dtype=bool)
    tau = np.full(m, np.nan)
    steps_used = n_steps.copy()
    end_state = np.empty((m, d))  # every row is set below
    clamped = np.zeros(m, dtype=bool)

    detect = domain is not None
    box = isinstance(domain, BoxDomain)
    alive = n_steps > 0
    if detect:
        out0 = _initial_outside(model, domain, X0)
        exited[out0] = True
        tau[out0] = 0.0
        steps_used[out0] = 0
        alive &= ~out0
    ids = np.flatnonzero(alive)
    end_state[~alive] = X0[~alive]
    # Alive paths only, coordinate-major: X[:, i] is the state of path ids[i].
    X = np.ascontiguousarray(X0[ids].T)

    const_noise = noise.constant
    # Constant noise stores its increments; state noise stores raw normals.
    sig0 = noise.sigma0 if const_noise else np.eye(noise.n)
    width = sig0.shape[0]  # noise numbers per path and step
    clamps = math.isfinite(model.validity_radius)  # nothing to clamp at inf
    # Step-rows per sub-block: _SUB_STEPS for each stream.  Stacked rows
    # that share streams take shorter sub-blocks, so the trajectory stays
    # the size of one row per stream.
    cap = _SUB_STEPS * G
    n_rows = min(_SUB_STEPS * ids.size, max(cap, ids.size))
    # Flat buffers that every sub-block views at its own (S, A) shape.
    traj_buf = np.empty(d * n_rows)
    bh_buf = np.empty(d * ids.size)
    over_buf = np.empty(n_rows, dtype=bool) if clamps else None
    noise_buf = None
    sdt = math.sqrt(dt)
    # one epsilon for the whole batch scales its noise as a scalar
    e_all = float(eps[0]) if m and (eps == eps[0]).all() else None
    k = 0
    while ids.size:
        kb = min(BLOCK_STEPS, int(n_steps[ids].max()) - k)
        # the streams of the alive rows, and each row's block column; None
        # while the alive rows are the block's columns in order
        live, cols = np.unique(ids % G, return_inverse=True)
        if np.array_equal(cols, np.arange(cols.size)):
            cols = None
        dW = w = None
        if draws:
            if noise_buf is None:  # the first block is the largest
                noise_buf = _noise_buffer(kb * width * live.size)
            dW = _step_major_noise(gens, live, kb, sig0, noise_buf[
                :kb * width * live.size].reshape(kb, width, live.size))
        j0 = 0
        next_end = int(n_steps[ids].min())  # the first step that ends a row
        while j0 < kb and ids.size:
            A = ids.size
            S = min(_SUB_STEPS, max(1, cap // A), kb - j0)
            e = e_all if e_all is not None else eps[ids]
            fin = None
            h_at = {}
            if k + j0 + S >= next_end:
                # rows whose last step falls in this sub-block, at step fin_s
                left = n_steps[ids] - (k + j0)
                fin = np.flatnonzero(left <= S)
                fin_s = left[fin] - 1
                last = np.arange(S)[:, None] <= fin_s  # steps up to it
                rows = ids[fin]
                scale_last = eps[rows] * np.sqrt(h_last[rows])  # noise there
                # each alive row's step size on a step where some row ends
                for s in np.unique(fin_s).tolist():
                    h = h_at[s] = np.full((A, 1), dt)
                    at = fin_s == s
                    h[fin[at], 0] = h_last[rows[at]]
            traj = traj_buf[:d * S * A].reshape(d, S, A)
            bh = bh_buf[:d * A].reshape(d, A).T
            if dW is not None:
                w = dW[j0:j0 + S]
                if cols is not None:
                    w = w.take(cols, axis=2)
                if const_noise:
                    # each slab is read once, so it is scaled where it lies
                    if fin is not None:
                        tail = scale_last[:, None] * w[fin_s, :, fin]
                    np.multiply(w, e * sdt, out=w)
                    if fin is not None:
                        w[fin_s, :, fin] = tail
                elif e_all is None:
                    e = e[:, None]
            if clamps:
                over_s = over_buf[:S * A].reshape(S, A)
            prev = X
            for s in range(S):
                h = h_at.get(s, dt)
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
                    np.add(xt, (e * np.sqrt(h)) * np.einsum(
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
                if fin is not None:
                    out[:, fin] &= last  # steps past a row's grid do not count
                if out.any():
                    gone = out.any(axis=0)
                    first = out.argmax(axis=0)  # first exit step in the sub-block
                    hit = np.flatnonzero(gone)
                    sh = first[hit]
                    hit_ids = ids[hit]
                    step = k + j0 + sh + 1
                    exited[hit_ids] = True
                    tau[hit_ids] = np.where(step == n_steps[hit_ids],
                                            stop[hit_ids], step * dt)
                    steps_used[hit_ids] = step
                    end_state[hit_ids] = traj[:, sh, hit].T
            if clamps:
                if fin is not None:
                    over_s[:, fin] &= last
                flag = over_s.any(axis=0)
                if gone is not None and flag.any():
                    # a clamp after a path's exit step does not count
                    flag &= ~gone | (over_s.argmax(axis=0) <= first)
                clamped[ids[flag]] = True
            if fin is not None:
                # rows that reach their stop time end there
                done = fin if gone is None else fin[~gone[fin]]
                end_state[ids[done]] = traj[:, left[done] - 1, done].T
                if gone is None:
                    gone = np.zeros(A, dtype=bool)
                gone[fin] = True
            if gone is None:
                X = traj[:, S - 1].copy()
            else:
                keep = np.flatnonzero(~gone)
                ids = ids.take(keep)
                cols = keep if cols is None else cols.take(keep)
                X = traj[:, S - 1].take(keep, axis=1)
                if ids.size:
                    next_end = int(n_steps[ids].min())
            j0 += S
        k += kb

    return {"exited": exited, "tau": tau, "steps_used": steps_used,
            "end_state": end_state, "clamped": clamped}
