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
has an alive row, to the longest grid left among its own rows (zeros after
it), and stored step-major, ``(kb, width, A)``, in one buffer per batch
(``_noise_buffer``), by up to ``_draw_share()`` threads: each draws a run
of whole ``_MIX_PATHS`` groups into its own columns, the caller the first,
and all are joined before the block is used.  A stand-in for a numpy
Generator (a tracer's counting proxy, say) may keep unlocked state, so it
is drawn by the caller.  Constant
noise stores the increments ``xi @ sig0.T`` (width d; a square diagonal
``sig0`` scales each coordinate instead); state-dependent noise stores the
raw normals (width n).  The block is walked in sub-blocks of at most
``_SUB_STEPS`` steps, and of at most ``_SUB_STEPS`` step-rows per stream or
``_SUB_ROWS`` step-rows in all, whichever is more: a batch with one row per
stream takes ``_SUB_STEPS`` steps, and stacked rows take fewer only once
they pass both budgets.  One read rule: a sub-block reads the block in
place while the alive rows are its columns in order, and otherwise takes
its rows' columns with one ``take``.
Every row has 0 < epsilon < 1, and its increments are scaled by its own
``c = eps * sqrt(dt)``: constant increments in place, by one multiply of
the slab, and state-dependent ones per step, after ``sigma(x)`` mixes
them.  One Euler update, ``_euler``, takes every step: x + b(x) h
plus the noise term, then the clamp to the validity radius.  The grid
steps every row by dt, writing each state in place into slot ``s`` of a
coordinate-major ``(d, S, A)`` trajectory, whose column ``i`` belongs to
row ``ids[i]``.  Exits are checked once per sub-block, on all S steps as
one ``(S*A, d)`` stack: ``argmax`` over the step axis gives each row's
first exit step, which sets ``tau``, ``steps_used`` and the end state.  The
rows that exit or reach their stop time are then compacted out with
``ndarray.take``.  A row that exits mid-sub-block keeps stepping (and
clamping) to the sub-block's end; those later states are thrown away, and
a clamp counts only on steps up to the exit.

Families and last steps: every row is a member of a family that steps one
row, its carrier, while any member is undecided; member ``i`` has epsilon
and start ``2**k_i`` times its carrier's.  Without a fold each row carries
itself, with k = 0.  On a model built by ``ConjugateFieldModel.identity``
(``model.linear``: drift ``lambda * x``) with an infinite validity radius,
constant noise and a box, a row whose epsilon and start are exactly
``2**k`` times those of another row on its stream (equal ``frexp``
mantissas, starts bitwise equal after scaling) folds: the carrier is the
member with the longest grid.  Branch rule: each member's last step, of
its own size, branches off its carrier's state before it, on the same
increment, in the member's own coordinates, through ``_euler`` (sigma of
the state before it, and the clamp).  Its exit and clamp flags replace
those of the grid's dt step in that slot, and a member that reaches its
last step ends in its branch's state.  One exit rule, ``_outside``, judges
every state: member ``i`` on its carrier's states scaled by ``2**k_i``.
Where some row folds, only the branches and the members of carriers whose
extremes, scaled by their tightest member's ``2**k``, leave the box are
judged (a box holds 0, so a smaller k sees a wider box).  Multiplying by a
power of two is exact and commutes with IEEE rounding: each Euler step of
the carrier, scaled by ``2**k``, is the member's own step bit for bit while
states stay in the normal range, which states of order epsilon do by
hundreds of decades.  A family's result rows are therefore the ones its
members get alone.

None of this changes an output byte.  Each row reads its stream in the same
order, whole blocks at a time, and a block drawn longer has the shorter
draw as its prefix; one thread reads a stream, and a keyed Philox stream
reads alike on any thread.  A row never uses the steps it takes past its
own grid, and no stream is drawn past its own rows' grids, so any batch
leaves each generator where a continuation resumes it.
numpy's stacked ``matmul`` multiplies each stream's ``(kb, n)`` block on its
own, so grouping paths differently leaves the product unchanged; with a
diagonal ``sig0`` each product is one nonzero term plus exact zeros.  Every
later operation acts on each row on its own, in the same order on the same
operands: a per-row epsilon or step size multiplies as the scalar would.  Model and box calls
take column-major ``(m, d)`` views of the state.  ``SmoothDomain.outside``
and a state-dependent ``sigma_batch`` get row-major copies instead: their
built-in forms sum over the coordinates, and numpy rounds such a sum by
memory layout from d = 9 on.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .dynamics import BoxDomain, ConjugateFieldModel, NoiseModel

BLOCK_STEPS = 512
# Most steps that alive rows take between two exit checks; divides
# BLOCK_STEPS.
_SUB_STEPS = 32
# Step-rows of one sub-block: _SUB_STEPS per stream, but at least this many,
# so a small stacked batch does not pay an exit check every few steps.
_SUB_ROWS = 1 << 16
# Paths whose noise block one thread draws, mixes and turns step-major
# together: the two path-major buffers of a 64-path group (1 MB at 512 steps
# and d = n = 2) stay in L2 while they are transposed.
_MIX_PATHS = 64
_PID = os.getpid()  # a process forked after import draws on one thread
# A batch's noise buffer of this many bytes or more gets a mapping of its own.
_MAPPED_BYTES = 1 << 22
_U64 = 0xFFFFFFFFFFFFFFFF
_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox's start counter, converted once
_COUNTER.flags.writeable = False


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
    return np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=_COUNTER))


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


def _draw_share() -> int:
    """The threads that may draw a noise block: one per CPU the process may
    run on, but one in a process forked after import (a fan-out's worker)."""
    if os.getpid() != _PID:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _step_major_noise(gens: list, ids: np.ndarray, steps,
                      sig0: np.ndarray, out=None) -> np.ndarray:
    """The next increments xi @ sig0.T of each listed path, laid out (kb, d, A).

    xi holds path ids[i]'s next steps[i] * n normals as rows (steps may be
    one int for all), then zero rows up to kb, the most.  A square diagonal
    sig0 skips the matmul and scales coordinate j's slab by sig0[j, j] in
    place: each matmul product is that one term plus exact zeros, so the
    values are the same.  An identity sig0 therefore leaves the raw normals.
    numpy multiplies a one-row block by gemv, which rounds otherwise than
    the gemm of a longer one, so a one-step block gets a zero second step.
    """
    d, n = sig0.shape
    steps = np.broadcast_to(steps, ids.shape)
    kb = int(steps.max())
    diagonal = d == n and np.array_equal(sig0, np.diag(np.diagonal(sig0)))
    kp = kb + (kb == 1 and not diagonal)  # steps multiplied
    dW = np.empty((kb, d, ids.size)) if out is None else out

    def fill(lo, hi):  # the columns [lo, hi) of one thread, in one group buffer
        xs = (np.empty if kp == kb else np.zeros)((_MIX_PATHS, kp, n))
        for a in range(lo, hi, _MIX_PATHS):
            sub = ids[a:a + _MIX_PATHS].tolist()
            for i, k, row in zip(sub, steps[a:a + _MIX_PATHS].tolist(), xs[:, :kb]):
                if k < kb:
                    row[k:] = 0.0
                    row = row[:k]
                gens[i].standard_normal(out=row)
            xi = xs[:len(sub)]
            dW[:, :, a:a + len(sub)] = (xi if diagonal
                                        else (xi @ sig0.T)[:, :kb]).transpose(1, 2, 0)

    groups = -(-ids.size // _MIX_PATHS)
    T = min(_draw_share(), groups)
    if T == 1 or not all(isinstance(gens[i], np.random.Generator) for i in ids):
        fill(0, ids.size)
    else:
        from concurrent.futures import ThreadPoolExecutor
        edges = [t * groups // T * _MIX_PATHS for t in range(1, T)] + [ids.size]
        with ThreadPoolExecutor(T - 1) as pool:  # joins every helper on leaving
            runs = [pool.submit(fill, lo, hi) for lo, hi in zip(edges, edges[1:])]
            fill(0, edges[0])
        for run in runs:
            run.result()  # raises a helper's exception
    if diagonal:
        for j in range(d):
            if sig0[j, j] != 1.0:
                np.multiply(dW[:, j], sig0[j, j], out=dW[:, j])
    return dW


def _families(model: ConjugateFieldModel, noise: NoiseModel, domain,
              X0: np.ndarray, eps: np.ndarray, n_steps: np.ndarray,
              G: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Each row's carrier row and scale exponent, or None if no row folds.

    Only a model built by ``identity`` (``model.linear``) with an infinite
    validity radius, constant noise and a box fold.  Rows form one family
    when they share a stream, their epsilons have the same frexp mantissa
    and their starts scaled by 2**-exponent are the same bits: row r then
    has epsilon and start 2**k[r] times its carrier's.  The carrier is the
    member with the longest grid, the first such row on a tie.
    """
    m = X0.shape[0]
    # with one row per stream, no row has another to fold onto
    if m == G or not (model.linear
                      and math.isinf(model.validity_radius)
                      and noise.constant and isinstance(domain, BoxDomain)):
        return None
    mant, ex = np.frexp(eps)
    # epsilon < 1 makes -ex >= 0, so this is exact unless it overflows
    norm = np.ldexp(X0, -ex[:, None])
    keys = [np.arange(m) % G, mant.view(np.int64), *norm.view(np.int64).T]
    # lexsort is stable: on a tie in grid length the first row leads
    order = np.lexsort([-n_steps, *keys[::-1]])
    # a family starts where a key changes; a row that overflowed is alone
    new = ~np.isfinite(norm).all(axis=1)[order]
    new[1:] |= new[:-1]
    new[0] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    if new.all():
        return None
    car = np.empty(m, dtype=np.int64)
    car[order] = order[np.flatnonzero(new)][np.cumsum(new) - 1]
    return car, ex - ex[car]


def _outside(model: ConjugateFieldModel, domain, X: np.ndarray) -> np.ndarray:
    """Exit flags of the states X, (m, d): a box judges their images f(x),
    a smooth domain a row-major copy, since its g may sum over coordinates."""
    if isinstance(domain, BoxDomain):
        return domain.outside(model.push_batch(X))
    return domain.outside(np.ascontiguousarray(X))


def _spread(v: np.ndarray, J: np.ndarray, M: int) -> np.ndarray:
    """v, one value per judged member J, as M values with zeros elsewhere."""
    full = np.zeros(M, dtype=v.dtype)
    full[J] = v
    return full


def _euler(model: ConjugateFieldModel, x: np.ndarray, h, out: np.ndarray,
           dw, sigma: NoiseModel | None, c, clamps: bool, bh=None):
    """One Euler step of the states x, (m, d), into out: x + b(x) h, plus
    the noise term, then clamped to the validity radius.

    h is a float or an (m, 1) column.  The noise term is dw itself where
    sigma is None (constant noise: the scaled increments), or the (m, 1)
    column c times sigma(x) applied to the raw normals dw, (m, n), where
    sigma is the state-dependent noise.  Returns the clamp flags, or None
    without clamps.  bh, an (m, d) buffer, takes the drift term.
    """
    bh = np.multiply(model.drift_batch(x), h, out=bh)
    if sigma is not None:
        # einsum rounds by layout, so it gets C-contiguous operands
        dw = c * np.einsum("rdn,rn->rd", sigma.sigma_batch(np.ascontiguousarray(x)),
                           np.ascontiguousarray(dw))
    np.add(x, bh, out=out)
    np.add(out, dw, out=out)
    if not clamps:
        return None
    xc, over = model.clamp(out)
    if xc is not out:
        out[...] = xc
    return over


def simulate_batch(model: ConjugateFieldModel, noise: NoiseModel, domain,
                   X0: np.ndarray, epsilon, stop_time, dt: float,
                   gens: list) -> dict:
    """Advance a batch of paths on the dt grid until exit or their stop time.

    X0 is (m, d).  epsilon and stop_time are one value for every row or one
    value per row, with 0 < epsilon < 1 on every row; a row's increments
    are scaled by its own epsilon * sqrt(dt).  m is a multiple
    of len(gens), and row r reads the normals of gens[r % len(gens)], so
    rows that share a stream step on the same normals.  A row's stop time
    sets its own grid: ceil(stop / dt) steps, the last one of its own size.
    domain may be None to disable exit detection (pure propagation).
    Returns five arrays keyed exited/tau/steps_used/end_state/clamped.
    A row of end_state is the path's exit state (X0 for a start outside the
    domain), or its state at its stop time if it did not exit.  steps_used
    is 0 for starts outside the domain, the 1-based step of the exit for
    paths that leave, and the number of grid steps for the rest.  A stream
    is drawn in whole blocks for as long as one of its rows is alive, each
    to the longest grid left among its own alive rows, so it ends where its
    rows alone leave it, and a continuation can resume it.  Both noise
    forms are drawn step-major into one buffer.  Rows whose epsilon and
    start are a power-of-two multiple of another row's on its stream step
    as one carrier row, the others each as its own; the grid steps dt, each
    row's last step branches off its carrier's, and every exit flag comes
    from _outside, in the row's own coordinates (see the module docstring).
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    m, d = X0.shape
    eps = np.broadcast_to(np.asarray(epsilon, dtype=float), (m,))
    stop = np.broadcast_to(np.asarray(stop_time, dtype=float), (m,))
    if not np.all((0.0 < eps) & (eps < 1.0)):
        raise ValueError("epsilon must lie in (0, 1)")
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
    alive = n_steps > 0
    if detect:
        out0 = _initial_outside(model, domain, X0)
        exited[out0] = True
        tau[out0] = 0.0
        steps_used[out0] = 0
        alive &= ~out0
    end_state[~alive] = X0[~alive]
    # mem: the rows not yet decided; ids: the rows that step, their carriers
    mem = np.flatnonzero(alive)
    fams = _families(model, noise, domain, X0, eps, n_steps, G)
    # without a fold each row carries itself, with k = 0
    car, kexp = fams or (np.arange(m), np.zeros(m, dtype=np.int32))
    # mcol: the column of each member's carrier.  Members stay grouped by
    # carrier, the tightest box (the largest k) first.
    ids, mcol = np.unique(car[mem], return_inverse=True)
    order = np.lexsort((-kexp[mem], mcol))
    mem, mcol = mem[order], mcol[order]
    # Carriers only, coordinate-major: X[:, i] is the state of row ids[i].
    X = np.ascontiguousarray(X0[ids].T)

    # Constant noise stores its increments; state noise stores raw normals
    # and is mixed by sigma(x) on every step.
    sigma = None if noise.constant else noise
    sig0 = noise.sigma0 if sigma is None else np.eye(noise.n)
    width = sig0.shape[0]  # noise numbers per path and step
    clamps = math.isfinite(model.validity_radius)  # nothing to clamp at inf
    # Step-rows per sub-block: _SUB_STEPS for each stream, or _SUB_ROWS if
    # that is more.  Stacked rows that share streams take shorter sub-blocks
    # once they pass the budget.
    cap = max(_SUB_STEPS * G, _SUB_ROWS)
    n_rows = min(_SUB_STEPS * ids.size, max(cap, ids.size))
    # Flat buffers that every sub-block views at its own (S, A) shape.
    traj_buf = np.empty(d * n_rows)
    bh_buf = np.empty(d * ids.size)
    over_buf = np.empty(n_rows, dtype=bool) if clamps else None
    noise_buf = None
    sdt = math.sqrt(dt)
    klead = c = None  # set for the alive rows, again when they change
    k = 0
    while ids.size:
        kb = min(BLOCK_STEPS, int(n_steps[mem].max()) - k)
        # the streams of the alive rows, and each row's block column; None
        # while the alive rows are the block's columns in order
        live, cols = np.unique(ids % G, return_inverse=True)
        if np.array_equal(cols, np.arange(cols.size)):
            cols = None
        # each stream is drawn to the longest grid left among its own rows
        grid = np.zeros(m, dtype=np.int64)
        grid[mem] = n_steps[mem]
        kl = np.minimum(grid.reshape(-1, G).max(axis=0)[live] - k, kb)
        if noise_buf is None:  # the first block is the largest
            noise_buf = _noise_buffer(kb * width * live.size)
        dW = _step_major_noise(gens, live, kl, sig0, noise_buf[
            :kb * width * live.size].reshape(kb, width, live.size))
        j0 = 0
        next_end = int(n_steps[mem].min())  # the first step that ends a member
        while j0 < kb and ids.size:
            A = ids.size
            S = min(_SUB_STEPS, max(1, cap // A), kb - j0)
            if c is None:  # the carriers changed
                c = eps[ids][:, None] * sdt  # each carrier's noise factor
            if fams is not None and klead is None:  # the members changed
                # the k of each carrier's first, tightest member
                klead = kexp[mem[np.searchsorted(mcol, np.arange(A))]]
            # br: the members whose last step, at bs, falls in this sub-block
            br = None
            if k + j0 + S >= next_end:
                mleft = n_steps[mem] - (k + j0)
                br = np.flatnonzero(mleft <= S)
                bs = mleft[br] - 1
                bc = mcol[br]
                brows = mem[br]
            traj = traj_buf[:d * S * A].reshape(d, S, A)
            bh = bh_buf[:d * A].reshape(d, A).T
            w = dW[j0:j0 + S]
            if cols is not None:
                w = w.take(cols, axis=2)
            if br is not None:
                braw = w[bs, :, bc]  # the branches' raw increments
            if sigma is None:
                # each slab is read once, so it is scaled where it lies
                np.multiply(w, c.T, out=w)
            ws = w.T  # ws[..., s], (A, width): the noise of step s
            over_s = over_buf[:S * A].reshape(S, A) if clamps else None
            xs = traj.T  # xs[:, s], (A, d): the states after step s
            x = X.T
            for s in range(S):
                xt = xs[:, s]
                over = _euler(model, x, dt, xt, ws[..., s], sigma, c, clamps, bh)
                if clamps:
                    over_s[s] = over
                x = xt
            w = ws = None  # a taken slab goes before the next is taken or drawn
            if br is not None:
                # each member's last step, of its own size, branches off its
                # carrier's state before it, in the member's own coordinates
                before = np.where(bs == 0, X[:, bc], traj[:, bs - 1, bc]).T
                before = np.ldexp(before, kexp[brows][:, None])
                hb = h_last[brows][:, None]
                cb = eps[brows][:, None] * np.sqrt(hb)
                dwb = cb * braw if sigma is None else braw
                xb = np.empty_like(before)
                over_b = _euler(model, before, hb, xb, dwb, sigma, cb, clamps)

            # Y: the states of the judged members J, (d, S, J.size), or of
            # every member when J is None; None when no member can leave
            gone = J = Y = None
            if fams is not None:
                # a member can leave only where its carrier's extremes,
                # scaled by its group's tightest member's 2**k, leave the box
                ext = np.ldexp([traj.max(axis=1), traj.min(axis=1)], klead)
                near = _outside(model, domain, ext.transpose(0, 2, 1).reshape(2 * A, d))
                near = near.reshape(2, A).any(axis=0)
                if br is not None or near.any():
                    judged = near[mcol]
                    if br is not None:
                        judged[br] = True
                    J = np.flatnonzero(judged)
                    # each judged member in its own coordinates
                    Y = traj.take(mcol[J], axis=2)
                    np.ldexp(Y, kexp[mem[J]], out=Y)
            elif detect:
                Y = traj
            if Y is not None:
                # out[s, i]: column i of Y at step s
                out = _outside(model, domain, Y.reshape(d, -1).T).reshape(S, -1)
                if br is not None:
                    # a member's steps before its last count; its last step
                    # is its branch's
                    at = br if J is None else np.searchsorted(J, br)
                    out[:, at] &= np.arange(S)[:, None] < bs
                    out[bs, at] = _outside(model, domain, xb)
                if out.any():
                    gone = out.any(axis=0)
                    first = out.argmax(axis=0)  # first exit step in the sub-block
                    if J is not None:  # spread over every member
                        gone = _spread(gone, J, mem.size)
                        first = _spread(first, J, mem.size)
                    hit = np.flatnonzero(gone)
                    sh = first[hit]
                    hit_ids = mem[hit]
                    step = k + j0 + sh + 1
                    exited[hit_ids] = True
                    tau[hit_ids] = np.where(step == n_steps[hit_ids],
                                            stop[hit_ids], step * dt)
                    steps_used[hit_ids] = step
                    end_state[hit_ids] = np.ldexp(traj[:, sh, mcol[hit]].T,
                                                  kexp[hit_ids][:, None])
            if clamps:
                # a fold needs an infinite validity radius, so here every
                # member is its own carrier
                if br is not None:
                    over_s[:, bc] &= np.arange(S)[:, None] < bs
                    over_s[bs, bc] = over_b
                flag = over_s.any(axis=0)
                if gone is not None and flag.any():
                    # a clamp after a path's exit step does not count
                    flag &= ~gone | (over_s.argmax(axis=0) <= first)
                clamped[ids[flag]] = True
            if br is not None:
                # a member decided on its last step ends in its branch's state
                own = slice(None) if gone is None else ~gone[br] | (first[br] == bs)
                end_state[brows[own]] = xb[own]
                if gone is None:
                    gone = np.zeros(mem.size, dtype=bool)
                gone[br] = True
            if gone is None:
                X = traj[:, S - 1].copy()
            else:
                # a carrier steps on while one of its members is left
                left = ~gone
                mem = mem[left]
                mcol = mcol[left]
                stays = np.zeros(A, dtype=bool)
                stays[mcol] = True
                if stays.all():
                    X = traj[:, S - 1].copy()
                else:
                    mcol = (np.cumsum(stays) - 1)[mcol]
                    keep = np.flatnonzero(stays)
                    ids = ids.take(keep)
                    cols = keep if cols is None else cols.take(keep)
                    X = traj[:, S - 1].take(keep, axis=1)
                    c = None
                klead = None
                next_end = int(n_steps[mem].min()) if mem.size else 0
            j0 += S
        k += kb

    return {"exited": exited, "tau": tau, "steps_used": steps_used,
            "end_state": end_state, "clamped": clamped}
