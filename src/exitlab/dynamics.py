"""Vector fields linearized by an explicit coordinate change, and exit domains.

A model here is a drift ``b(x) = Df(x)^{-1} (lambda o f(x))`` built from a
linearizing map ``f`` fixing the origin with identity Jacobian.  The map
conjugates the flow of ``b`` to the diagonal linear flow
``y -> exp(lambda t) y``, so the flow's exit time from a box in those
coordinates is closed-form.  Only crossings of smooth domains are integrated
numerically (RK4), and the test suite checks them against the conjugated
exit time of a pulled-back box.

Domains come in two flavors: a box in the linearizing coordinates (the set
paths are observed to leave) and smooth sublevel sets ``{g < 0}`` used as
comparison domains for travel-time brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InclusionViolated, NoExit, OutsideValidity, RankDeficient
from .exponents import Spectrum

# Bisection iterations for exit-time refinement.  54 halvings of one step put
# the crossing bracket near machine precision, far below the dt^2 guarantee.
_BISECT_ITERS = 54

_FACE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _stack_call(fn, X: np.ndarray, shape: tuple, contract: str) -> np.ndarray:
    """fn(X) at construction; a callable written for one point fails here."""
    try:
        out = np.asarray(fn(X), dtype=float)
    except (ValueError, TypeError, IndexError) as exc:
        raise ValueError(f"{contract}; calling it on a stack of "
                         f"{X.shape[0]} rows failed: {exc}") from None
    if out.shape != shape:
        raise ValueError(f"{contract}; on a stack of {X.shape[0]} rows it "
                         f"returned shape {out.shape}, expected {shape}")
    return out


class NoiseModel:
    """Diffusion coefficient sigma(x) of shape (d, n), full rank d at 0.

    Either the constant matrix ``sigma0`` or a state-dependent ``sigma_fn``
    that maps an (m, d) stack of states to the (m, d, n) stack of their
    sigma(x); ``sigma0`` is then sigma(0).  ``n >= d`` columns drive d state
    dimensions; rank deficiency at the origin would collapse the limiting
    covariance and is rejected outright.
    """

    def __init__(self, sigma0, sigma_fn=None):
        sigma0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
        d, n = sigma0.shape
        if not np.all(np.isfinite(sigma0)):
            raise ValueError("sigma entries must be finite")
        if n < d or np.linalg.matrix_rank(sigma0) < d:
            raise RankDeficient(f"sigma(0) must have full rank {d}, got shape {d}x{n}")
        if sigma_fn is not None:
            _stack_call(sigma_fn, np.zeros((2, d)), (2, d, n),
                        f"sigma_fn must map an (m, {d}) stack to (m, {d}, {n})")
        self.sigma0 = sigma0
        self.d = d
        self.n = n
        self._fn = sigma_fn

    @property
    def constant(self) -> bool:
        return self._fn is None

    def sigma_batch(self, X: np.ndarray) -> np.ndarray:
        """Stack of sigma(x) over rows of X, shape (m, d, n)."""
        if self._fn is None:
            return np.broadcast_to(self.sigma0, (X.shape[0],) + self.sigma0.shape)
        return np.asarray(self._fn(X), dtype=float)

    @classmethod
    def state_scaled(cls, base, gamma: float) -> "NoiseModel":
        """sigma(x) = base * (1 + gamma * |x|^2); smooth, equals base at 0."""
        base = np.atleast_2d(np.asarray(base, dtype=float))
        gamma = float(gamma)
        if not math.isfinite(gamma):
            raise ValueError("gamma must be finite")

        def sigma_fn(X):
            fac = 1.0 + gamma * np.sum(X * X, axis=1)
            return base[None, :, :] * fac[:, None, None]

        return cls(base, sigma_fn=sigma_fn)


class BoxDomain:
    """Box ``prod_j [lower_j, upper_j]`` in linearizing coordinates, 0 inside.

    The domain the paths actually leave is the pullback of this box under
    the model's map.
    """

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box sides must be finite")
        if not (np.all(lower < 0.0) and np.all(upper > 0.0)):
            raise ValueError("box must contain 0 strictly: lower < 0 < upper")
        self.lower = lower
        self.upper = upper

    @property
    def d(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def outside(self, Y: np.ndarray) -> np.ndarray:
        """Strictly outside the closed box; works on (d,) or (m, d)."""
        return self._beyond_a_side(Y, np.less, np.greater)

    def not_strictly_inside(self, Y: np.ndarray) -> np.ndarray:
        """On the boundary or outside; exit time is 0 for such starts."""
        return self._beyond_a_side(Y, np.less_equal, np.greater_equal)

    def _beyond_a_side(self, Y, below, above) -> np.ndarray:
        # One coordinate at a time: on the path engine's (m, d) views each
        # column is contiguous, and no reduction runs over a length-d axis.
        Y = np.asarray(Y, dtype=float)
        hit = below(Y[..., 0], self.lower[0]) | above(Y[..., 0], self.upper[0])
        for j in range(1, self.d):
            hit |= below(Y[..., j], self.lower[j])
            hit |= above(Y[..., j], self.upper[j])
        return hit

    def face_points(self, n_per_face: int) -> np.ndarray:
        """Deterministic low-discrepancy samples of the boundary, in y-coords."""
        d = self.d
        if d == 1:
            return np.array([[self.lower[0]], [self.upper[0]]])
        if len(_FACE_PRIMES) < d - 1:
            raise ValueError("face sampling supports up to 13 dimensions")
        # Face centers go first: extremal exit times over a face are often
        # attained there, and a pure lattice only approaches them at O(1/n).
        g = np.sqrt(np.asarray(_FACE_PRIMES[: d - 1], dtype=float))
        k = np.arange(1, n_per_face)[:, None]
        u = np.vstack([np.full((1, d - 1), 0.5), np.mod(k * g, 1.0)])
        pieces = []
        for j in range(d):
            others = [jj for jj in range(d) if jj != j]
            base = np.empty((n_per_face, d))
            base[:, others] = self.lower[others] + u * self.widths[others]
            for side in (self.lower[j], self.upper[j]):
                q = base.copy()
                q[:, j] = side
                pieces.append(q)
        return np.vstack(pieces)


class SmoothDomain:
    """Open set ``{x : g(x) < 0}`` containing the origin.

    ``g`` maps an (m, d) stack of points to the (m,) stack of their values,
    and ``grad``, which only transversality checks need, maps (m, d) to the
    (m, d) stack of gradients.  Given ``dim``, the constructor checks that
    g is negative at the origin.
    """

    def __init__(self, g: Callable, grad: Callable | None = None,
                 name: str = "custom", dim: int | None = None):
        self._g = g
        self._grad = grad
        self.name = name
        if dim is not None:
            v = self.values(np.zeros((1, dim)))
            if not v[0] < 0.0:
                raise ValueError("domain must contain the origin: g(0) < 0")

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        v = np.asarray(self._g(X), dtype=float)
        if v.shape != X.shape[:1]:
            raise ValueError(f"g must map an (m, d) stack to (m,), got {v.shape}")
        return v

    def outside(self, X: np.ndarray) -> np.ndarray:
        """On the boundary or outside (g >= 0); works on (m, d)."""
        return self.values(X) >= 0.0

    def gradient(self, X: np.ndarray) -> np.ndarray:
        if self._grad is None:
            raise ValueError(f"domain {self.name!r} has no gradient")
        X = np.asarray(X, dtype=float)
        G = np.asarray(self._grad(X), dtype=float)
        if G.shape != X.shape:
            raise ValueError(f"grad must map an (m, d) stack to (m, d), got {G.shape}")
        return G

    def boundary_points(self, directions: np.ndarray) -> np.ndarray:
        """Where the rays from 0 along the rows of `directions` cross {g = 0}.

        Each ray doubles its reach until it is outside, then bisects 80
        times; the rays advance together, each on its own bracket.  A row
        whose ray is still inside after 200 doublings comes back as nan.
        Raises NoExit when no ray crosses.
        """
        U = np.atleast_2d(np.asarray(directions, dtype=float))
        nrm = np.sqrt(np.vecdot(U, U))
        if np.any(nrm == 0.0):
            raise ValueError("directions must be nonzero")
        U = U / nrm[:, None]
        lo = np.zeros(U.shape[0])
        hi = np.ones(U.shape[0])
        for _ in range(200):
            out = self.outside(hi[:, None] * U)
            if out.all():
                break
            lo = np.where(out, lo, hi)
            hi = np.where(out, hi, 2.0 * hi)
        if not out.any():
            raise NoExit(f"domain {self.name!r} appears unbounded along every ray")
        U, lo, hi = U[out], lo[out], hi[out]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            beyond = self.outside(mid[:, None] * U)
            hi = np.where(beyond, mid, hi)
            lo = np.where(beyond, lo, mid)
        P = np.full((out.size, U.shape[1]), np.nan)
        P[out] = (0.5 * (lo + hi))[:, None] * U
        return P

    @classmethod
    def ball(cls, radius: float) -> "SmoothDomain":
        radius = float(radius)
        with np.errstate(over="ignore", divide="ignore"):
            inv2 = 1.0 / np.square(radius)
        if not (radius > 0.0 and 0.0 < inv2 < math.inf):
            raise ValueError("radius and 1/radius^2 must be finite and positive")

        r2 = radius * radius

        def g(X):
            # np.sum without its wrapper: the same reduction, bit for bit
            return np.add.reduce(X * X, axis=-1) - r2

        return cls(g, grad=lambda X: 2.0 * X, name=f"ball:{radius!r}")

    @classmethod
    def ellipsoid(cls, semi_axes) -> "SmoothDomain":
        a = np.atleast_1d(np.asarray(semi_axes, dtype=float))
        with np.errstate(over="ignore", divide="ignore"):
            inv2 = 1.0 / (a * a)
        if not np.all((a > 0.0) & (inv2 > 0.0) & (inv2 < math.inf)):
            raise ValueError("semi-axes and 1/semi-axis^2 must be finite and positive")

        def g(X):
            return np.sum(X * X * inv2, axis=-1) - 1.0

        axes_repr = ",".join(repr(float(v)) for v in a)
        return cls(g, grad=lambda X: 2.0 * X * inv2,
                   name=f"ellipsoid:{axes_repr}")


def _deterministic_probe_points(d: int, radius: float) -> np.ndarray:
    """Fixed probe stack for construction-time self checks; row 0 is 0."""
    cap = radius if math.isfinite(radius) else 1.0
    dirs = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        dirs.append(e)
        dirs.append(-e)
    dirs.append(np.full(d, 1.0 / math.sqrt(d)))
    pts = []
    for frac in (0.25, 0.5, 0.9):
        for u in dirs:
            pts.append(frac * cap * u)
    return np.vstack([np.zeros((1, d)), np.unique(np.asarray(pts), axis=0)])


class ConjugateFieldModel:
    """Drift field defined through a linearizing map.

    Every callable maps a stack of m rows to one stack: ``f`` and ``f_inv``
    take (m, d) to (m, d), ``df`` takes (m, d) to the (m, d, d) Jacobians,
    and ``drift`` takes (m, d) to (m, d).

    Parameters
    ----------
    spectrum:
        Eigenvalues of the linearization at 0 (strictly decreasing, positive).
    f, f_inv, df:
        The map, its inverse, and its Jacobian.  Must satisfy f(0) = 0 and
        Df(0) = I to 1e-10; checked at construction on a probe stack, along
        with the inverse round trip and the conjugacy residual
        ``Df(x) b(x) = lambda o f(x)`` (1e-8).
    drift:
        Optional closed form of ``b``, checked against
        ``solve(Df(x), lambda o f(x))`` to 1e-10 on the probe stack.  Without
        it, ``drift_batch`` solves that stacked system.
    validity_radius:
        Sup-norm radius within which the map is trusted.  The engines clamp
        rows into it and flag them; ``transversality_check`` raises
        OutsideValidity beyond it.
    """

    def __init__(self, spectrum: Spectrum, f, f_inv, df, drift=None,
                 validity_radius: float = math.inf, variant: str = "custom"):
        self.spectrum = spectrum
        self._f = f
        self._f_inv = f_inv
        self._df = df
        self._drift = drift
        self.validity_radius = validity_radius
        self.variant = variant
        self._lam = spectrum.as_array()
        self._linear = False
        self._self_check()

    @property
    def linear(self) -> bool:
        """True only for a model built by ``identity``: its f is the identity
        and its drift is exactly ``lambda * x``, whatever ``variant`` says."""
        return self._linear

    @property
    def validity_radius(self) -> float:
        return self._validity_radius

    @validity_radius.setter
    def validity_radius(self, radius: float):
        radius = float(radius)
        if not radius > 0.0:
            raise ValueError("validity_radius must be positive")
        self._validity_radius = radius

    # The methods below assume rows already inside the validity region; the
    # stochastic and deterministic engines clamp and flag before calling.
    def push_batch(self, X: np.ndarray) -> np.ndarray:
        """y = f(x) for every row of X."""
        return self._f(X)

    def pull_batch(self, Y: np.ndarray) -> np.ndarray:
        """x = f^{-1}(y) for every row of Y."""
        return self._f_inv(Y)

    def drift_batch(self, X: np.ndarray) -> np.ndarray:
        """b(x) for every row of X."""
        if self._drift is not None:
            return self._drift(X)
        return _solve_rows(self._df(X), self._lam * self._f(X))

    def clamp(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project rows into the validity cube; returns (clamped, was_outside)."""
        r = self.validity_radius
        if not math.isfinite(r):
            return X, np.zeros(X.shape[0], dtype=bool)
        # One coordinate at a time, as in BoxDomain._beyond_a_side, into
        # column 0 of one abs; np.maximum passes a nan on as np.max does, so
        # a row with a nan is never flagged.
        a = np.abs(X)
        top = a[:, 0]
        for j in range(1, X.shape[1]):
            np.maximum(top, a[:, j], out=top)
        over = top > r
        if not over.any():
            return X, over
        Xc = np.clip(X, -r, r)
        return Xc, over

    def _self_check(self):
        d = self.spectrum.d
        X = _deterministic_probe_points(d, self.validity_radius)
        rows = (X.shape[0], d)
        Y = _stack_call(self._f, X, rows, f"f must map an (m, {d}) stack to (m, {d})")
        J = _stack_call(self._df, X, rows + (d,),
                        f"df must map an (m, {d}) stack to (m, {d}, {d})")
        back = _stack_call(self._f_inv, Y, rows,
                           f"f_inv must map an (m, {d}) stack to (m, {d})")
        if not np.max(np.abs(Y[0])) <= 1e-10:
            raise ValueError("linearizing map must fix the origin: f(0) = 0")
        if not np.max(np.abs(J[0] - np.eye(d))) <= 1e-10:
            raise ValueError("linearizing map must have identity Jacobian at 0")
        scale_x = np.maximum(1.0, np.max(np.abs(X), axis=1))
        if not np.all(np.max(np.abs(back - X), axis=1) <= 1e-10 * scale_x):
            raise ValueError("f_inv does not invert f to 1e-10 on probe points")
        B = _solve_rows(J, self._lam * Y)
        res = (J @ B[:, :, None])[:, :, 0] - self._lam * Y
        scale_y = np.maximum(1.0, np.max(np.abs(Y), axis=1))
        if not np.all(np.max(np.abs(res), axis=1) <= 1e-8 * scale_y):
            raise ValueError("conjugacy residual exceeds 1e-8 on probe points")
        if self._drift is not None:
            b = _stack_call(self._drift, X, rows,
                            f"drift must map an (m, {d}) stack to (m, {d})")
            if not np.max(np.abs(b - B)) <= 1e-10:
                raise ValueError(
                    "drift disagrees with solve(df, lambda o f) on probe points")

    # constructors --------------------------------------------------------
    @classmethod
    def identity(cls, spectrum: Spectrum) -> "ConjugateFieldModel":
        """Linear model b(x) = lambda o x; valid everywhere."""
        d = spectrum.d
        lam = spectrum.as_array()
        model = cls(
            spectrum,
            f=lambda X: np.asarray(X, dtype=float),
            f_inv=lambda Y: np.asarray(Y, dtype=float),
            df=lambda X: np.broadcast_to(np.eye(d), (X.shape[0], d, d)),
            drift=lambda X: X * lam,
            validity_radius=math.inf,
            variant="identity",
        )
        model._linear = True
        return model

    @classmethod
    def component_quadratic(cls, spectrum: Spectrum, coeffs,
                            validity_radius: float | None = None
                            ) -> "ConjugateFieldModel":
        """Componentwise map f_j(x) = x_j + c_j x_j^2.

        The inverse uses the root-stable form 2y / (1 + sqrt(1 + 4 c y)),
        well defined because the default radius 1 / (4|c_j| + 1) keeps
        4 c_j y_j above -1 and the Jacobian away from 0.
        """
        d = spectrum.d
        lam = spectrum.as_array()
        c = np.broadcast_to(np.asarray(coeffs, dtype=float), (d,)).copy()
        if not np.all(np.isfinite(c)):
            raise ValueError("quadratic coefficients must be finite")
        nz = np.abs(c) > 0.0
        default_radius = float(np.min(1.0 / (4.0 * np.abs(c[nz]) + 1.0))) if nz.any() else math.inf
        with np.errstate(over="ignore"):
            # subnormal coefficients overflow to inf, which is the right bound
            diffeo_bound = float(np.min(0.5 / np.abs(c[nz]))) if nz.any() else math.inf
        if validity_radius is None:
            validity_radius = default_radius
        elif not validity_radius < diffeo_bound:
            # the Jacobian 1 + 2 c x vanishes at |x| = 1/(2|c|)
            raise ValueError(
                f"validity_radius {validity_radius:g} reaches the "
                f"diffeomorphism bound {diffeo_bound:g} for these coefficients")

        def df(X):
            J = np.zeros(X.shape + (d,))
            J[:, range(d), range(d)] = 1.0 + 2.0 * c * X
            return J

        return cls(
            spectrum,
            f=lambda X: X + c * X * X,
            f_inv=lambda Y: 2.0 * Y / (1.0 + np.sqrt(np.maximum(1.0 + 4.0 * c * Y, 0.0))),
            df=df,
            drift=lambda X: lam * (X + c * X * X) / (1.0 + 2.0 * c * X),
            validity_radius=validity_radius,
            variant="component_quadratic",
        )


def _solve_rows(J: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row i of the result solves J[i] x = B[i]; J is (m, d, d), B is (m, d)."""
    return np.linalg.solve(J, B[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# deterministic flow


def _rk4_block(model: ConjugateFieldModel, X: np.ndarray, h) -> np.ndarray:
    """One classical Runge-Kutta step for every row of X.

    h is a float, or an (m, 1) column of per-row steps (used when refining
    crossings).  An infinite validity radius has nothing to clamp, so clamp
    is skipped.  The result has the bits of
    ``X + (h / 6) * (k1 + 2 k2 + 2 k3 + k4)``: each sum and product takes the
    same operands, and IEEE addition and multiplication commute.  Only
    arrays made here are written in place; a clamp or a custom drift may
    return its input.
    """
    clamps = math.isfinite(model.validity_radius)

    def rhs(Z):
        if clamps:
            Z, _ = model.clamp(Z)
        return model.drift_batch(Z)

    half = 0.5 * h
    k1 = rhs(X)
    Z = k1 * half
    Z += X
    k2 = rhs(Z)
    acc = k2 * 2.0
    acc += k1
    Z = k2 * half
    Z += X
    k3 = rhs(Z)
    acc += k3 * 2.0
    Z = k3 * h
    Z += X
    acc += rhs(Z)
    acc *= h / 6.0
    acc += X
    return acc


def flow_exit_times_batch(model: ConjugateFieldModel, domain, X0: np.ndarray,
                          dt: float = 1e-3, t_cap: float | None = None
                          ) -> np.ndarray:
    """Exit times of the deterministic flow for every row of X0.

    Rows starting on the boundary or outside get exit time 0, and rows that
    do not exit by t_cap (default 1000 / smallest lambda) come back as nan.

    From a BoxDomain the exit time is closed-form and dt is not used: the
    flow is y(t) = exp(lambda t) f(x0) in the linearizing coordinates, so
    coordinate j reaches the face on its side at log(bound_j / |y_j|) /
    lambda_j, and the row exits at the smallest of these.  A row with
    y = 0 sits at the fixed point and never exits.

    A SmoothDomain's crossing is integrated with RK4 at step dt, bracketed
    on the step grid and refined by bisection on the step fraction to far
    below dt^2; OutsideValidity is raised when a row still inside leaves
    the validity region.  These crossings give the travel-time bracket, so
    their bits reach the phi_minus and phi_plus columns of rows.csv, which
    the benchmark digests pin.  Solving them on the exact trajectory
    would move those bits, so that waits for a change that re-records the
    digests.

    The grid loop holds only the rows still inside, row-major, and drops the
    crossed ones on the steps where some cross.  Each crossing is recorded
    as (row, step k, state at the start of step k), and after the loop all
    of them are bisected together: one stack of starts, each row halving its
    own step fraction, so a call makes _BISECT_ITERS partial steps however
    many grid steps see crossings.  This cannot change a byte of tau.  The
    RK4 step, drift, clamp and domain values each act on every row on its
    own, so a row's operands do not depend on which rows share its batch,
    and the stacks stay C-contiguous, since numpy rounds a sum over
    coordinates by memory layout from d = 9 on.

    The loop also drops a row whose first step returns its start bit for
    bit, as from a subnormal start: that row would take the same step until
    t_cap, so it stays nan.  A row that moves keeps moving, since its linear
    coordinates grow and its increments with them, so later steps are not
    checked.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_cap is None:
        t_cap = _default_t_cap(model)
    if isinstance(domain, BoxDomain):
        Y = model.push_batch(X0)
        bound = np.where(Y > 0.0, domain.upper, -domain.lower)
        with np.errstate(divide="ignore", over="ignore"):
            tau = np.min(np.log(bound / np.abs(Y)) / model.spectrum.as_array(),
                         axis=1)
        tau[domain.not_strictly_inside(Y)] = 0.0
        tau[~(tau <= t_cap)] = np.nan  # y = 0 gives inf
        return tau
    return _smooth_exit_times(model, domain, X0, dt, t_cap)


def _default_t_cap(model: ConjugateFieldModel) -> float:
    return 1000.0 / model.spectrum.smallest


def _smooth_exit_times(model: ConjugateFieldModel, domain: SmoothDomain,
                       X0: np.ndarray, dt: float, t_cap: float,
                       first_only: bool = False) -> np.ndarray:
    """flow_exit_times_batch on a SmoothDomain.

    With first_only the grid loop stops one step after the first step that
    sees a crossing, and the rows still inside stay nan.  The smallest exit
    time is then among the rows that have one: a crossing on the next step
    can round below one on the first, but a crossing two or more steps
    later is at least a whole step later.
    """
    m = X0.shape[0]
    tau = np.full(m, np.nan)
    g0 = domain.values(X0)
    tau[g0 >= 0.0] = 0.0
    # Rows still inside only: X[i] is the state of row ids[i].
    ids = np.flatnonzero(g0 < 0.0)
    X = X0[ids]
    bounded = math.isfinite(model.validity_radius)
    h = float(dt)
    rows, steps, starts = [], [], []
    n_steps = stop = int(math.ceil(t_cap / dt - 1e-12))
    for k in range(n_steps):
        if ids.size == 0 or k == stop:
            break
        if bounded and np.max(np.abs(X)) > model.validity_radius:
            raise OutsideValidity("trajectory left the validity region")
        nxt = _rk4_block(model, X, h)
        crossed = domain.values(nxt) > 0.0
        keep = None
        if crossed.any():
            rows.append(ids[crossed])
            steps.append(np.full(rows[-1].size, k))
            starts.append(X[crossed])
            if first_only:
                stop = min(stop, k + 2)
            keep = ~crossed
        if k == 0:
            # a row whose first step returns its start bit for bit takes
            # that step again until t_cap and never crosses, so it stays nan
            moved = ~(nxt == X).all(axis=1)
            keep = moved if keep is None else keep & moved
        if keep is not None:
            keep = np.flatnonzero(keep)
            ids = ids.take(keep)
            nxt = nxt.take(keep, axis=0)
        X = nxt
    if rows:
        rows = np.concatenate(rows)
        start = np.vstack(starts)
        lo = np.zeros(rows.size)
        hi = np.ones(rows.size)
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            # one partial step per row with its own fraction of dt
            trial = _rk4_block(model, start, (mid * dt)[:, None])
            outside = domain.values(trial) > 0.0
            hi[outside] = mid[outside]
            lo[~outside] = mid[~outside]
        tau[rows] = np.concatenate(steps) * dt + 0.5 * (lo + hi) * dt
    return tau


# Box boundary samples per face behind the travel-time bracket; build_config
# checks the inclusion on the same sample that the run uses.
_BOUNDARY_SAMPLES = 64


def check_inclusion(model: ConjugateFieldModel, box: BoxDomain,
                    inner: SmoothDomain, outer: SmoothDomain,
                    n_boundary_samples: int = _BOUNDARY_SAMPLES) -> np.ndarray:
    """The pulled-back box boundary sample, in x-coords.

    Raises InclusionViolated unless every sampled point lies strictly inside
    both the inner and the outer comparison domain.
    """
    if n_boundary_samples < 1:
        raise ValueError("n_boundary_samples must be >= 1")
    pts_x = model.pull_batch(box.face_points(n_boundary_samples))
    for dom, role in ((inner, "inner"), (outer, "outer")):
        vals = dom.values(pts_x)
        if np.any(vals >= 0.0):
            bad = pts_x[np.argmax(vals)]
            raise InclusionViolated(
                f"box boundary point {bad} is not strictly inside the {role} "
                f"domain {dom.name!r}")
    return pts_x


def travel_time_bounds(model: ConjugateFieldModel, box: BoxDomain,
                       inner: SmoothDomain, outer: SmoothDomain,
                       n_boundary_samples: int = _BOUNDARY_SAMPLES,
                       dt: float = 1e-3) -> tuple[float, float]:
    """(T_minus, T_plus): extreme flow travel times from the box boundary.

    T_minus is the fastest exit from the inner comparison domain, T_plus the
    slowest exit from the outer one, both over a deterministic sample of the
    box boundary.  The sampled boundary must lie inside both domains,
    otherwise InclusionViolated is raised (see check_inclusion).  NoExit is
    raised when a sample fails to exit the outer domain or none exits the
    inner one; the inner flow stops one grid step after its first crossing.
    """
    pts_x = check_inclusion(model, box, inner, outer, n_boundary_samples)
    t_outer = flow_exit_times_batch(model, outer, pts_x, dt=dt)
    # T_minus needs only the first crossings of the inner boundary
    t_inner = _smooth_exit_times(model, inner, pts_x, dt,
                                 _default_t_cap(model), first_only=True)
    if np.all(np.isnan(t_inner)) or np.any(np.isnan(t_outer)):
        raise NoExit("a boundary sample failed to exit a comparison domain")
    t_minus = float(np.nanmin(t_inner))
    t_plus = float(np.max(t_outer))
    return t_minus, t_plus


@dataclass(frozen=True)
class TransversalityReport:
    """Result of a boundary transversality sweep."""

    ok: bool
    min_inner_product: float
    n_samples: int


def transversality_check(model: ConjugateFieldModel, domain: SmoothDomain,
                         n_samples: int = 64) -> TransversalityReport:
    """Check the drift points strictly outward on the domain boundary.

    Samples boundary points along deterministic directions (the 2d axis
    directions first, then seeded random ones) and evaluates <n_hat, b>
    with the outward normal from the domain gradient.  Passing means every
    sampled inner product is strictly positive; a nan one fails.  Directions
    whose ray never leaves the domain are skipped, so unbounded domains are
    handled; at least one direction must cross the boundary.  A boundary
    point beyond the model's validity radius raises OutsideValidity.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = model.spectrum.d
    axes = np.vstack([np.eye(d), -np.eye(d)])
    dirs = axes
    if n_samples > 2 * d:
        gen = np.random.Generator(
            np.random.Philox(key=np.array([0x7A3D5C1, n_samples],
                                          dtype=np.uint64)))
        extra = gen.standard_normal((n_samples - 2 * d, d))
        norms = np.linalg.norm(extra, axis=1)
        extra = extra[norms > 1e-12] / norms[norms > 1e-12, None]
        dirs = np.vstack([axes, extra])
    P = domain.boundary_points(dirs)
    P = P[~np.isnan(P[:, 0])]  # rays that never leave the domain are skipped
    r = model.validity_radius
    if np.max(np.abs(P)) > r:
        raise OutsideValidity(
            f"boundary point with |x|_inf = {np.max(np.abs(P)):g} exceeds "
            f"validity radius {r:g}")
    G = domain.gradient(P)
    gn = np.sqrt(np.vecdot(G, G))
    if np.any(gn == 0.0):
        raise ValueError("domain gradient vanishes on the boundary")
    # np.min keeps a nan, and a nan inner product fails the check
    worst = float(np.min(np.vecdot(G / gn[:, None], model.drift_batch(P))))
    return TransversalityReport(ok=worst > 0.0, min_inner_product=worst,
                                n_samples=P.shape[0])
