"""Vector fields linearized by an explicit coordinate change, and exit domains.

A model here is a drift ``b(x) = Df(x)^{-1} (lambda o f(x))`` built from a
linearizing map ``f`` fixing the origin with identity Jacobian.  The map
conjugates the flow of ``b`` to the diagonal linear flow
``y -> exp(lambda t) y``, which gives exact closed-form oracles for flows and
deterministic exit times; the numerical integrators in this module are checked
against those oracles in the test suite.

Domains come in two flavors: a box in the linearizing coordinates (the set
paths are observed to leave) and smooth sublevel sets ``{g < 0}`` used as
comparison domains for travel-time brackets.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InclusionViolated,
    NoExit,
    OutsideValidity,
    RankDeficient,
    StepTooLarge,
)
from .exponents import Spectrum

# Bisection iterations for exit-time refinement.  54 halvings of one step put
# the crossing bracket near machine precision, far below the dt^2 guarantee.
_BISECT_ITERS = 54

_FACE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NoiseModel:
    """Diffusion coefficient sigma(x) of shape (d, n), full rank d at 0.

    Either a constant matrix or a named state-dependent family.  ``n >= d``
    columns drive d state dimensions; rank deficiency at the origin would
    collapse the limiting covariance and is rejected outright.
    """

    def __init__(self, sigma0, sigma_fn=None, sigma_batch_fn=None, name="constant"):
        sigma0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
        d, n = sigma0.shape
        if not np.all(np.isfinite(sigma0)):
            raise ValueError("sigma entries must be finite")
        if n < d or np.linalg.matrix_rank(sigma0) < d:
            raise RankDeficient(f"sigma(0) must have full rank {d}, got shape {d}x{n}")
        self.sigma0 = sigma0
        self.d = d
        self.n = n
        self._fn = sigma_fn
        self._batch_fn = sigma_batch_fn
        self.name = name

    @property
    def constant(self) -> bool:
        return self._fn is None

    def sigma(self, x) -> np.ndarray:
        if self._fn is None:
            return self.sigma0
        return np.asarray(self._fn(np.asarray(x, dtype=float)), dtype=float)

    def sigma_batch(self, X: np.ndarray) -> np.ndarray:
        """Stack of sigma(x) over rows of X, shape (m, d, n)."""
        if self._fn is None:
            return np.broadcast_to(self.sigma0, (X.shape[0],) + self.sigma0.shape)
        if self._batch_fn is not None:
            return np.asarray(self._batch_fn(X), dtype=float)
        return np.stack([self.sigma(row) for row in X])

    @classmethod
    def constant_matrix(cls, sigma) -> "NoiseModel":
        return cls(sigma, name="constant")

    @classmethod
    def state_scaled(cls, base, gamma: float) -> "NoiseModel":
        """sigma(x) = base * (1 + gamma * |x|^2); smooth, equals base at 0."""
        base = np.atleast_2d(np.asarray(base, dtype=float))
        gamma = float(gamma)

        def fn(x):
            return base * (1.0 + gamma * float(np.dot(x, x)))

        def batch_fn(X):
            fac = 1.0 + gamma * np.sum(X * X, axis=1)
            return base[None, :, :] * fac[:, None, None]

        return cls(base, sigma_fn=fn, sigma_batch_fn=batch_fn,
                   name=f"state_scaled:{gamma!r}")


class BoxDomain:
    """Box ``prod_j [lower_j, upper_j]`` in linearizing coordinates, 0 inside.

    ``l0_cap`` is the declared bound on the box half-widths; the domain the
    paths actually leave is the pullback of this box under the model's map.
    """

    def __init__(self, lower, upper, l0_cap: float | None = None):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box sides must be finite")
        if not (np.all(lower < 0.0) and np.all(upper > 0.0)):
            raise ValueError("box must contain 0 strictly: lower < 0 < upper")
        half = float(max(np.max(np.abs(lower)), np.max(np.abs(upper))))
        if l0_cap is None:
            l0_cap = half
        l0_cap = float(l0_cap)
        if not (l0_cap > 0.0 and half <= l0_cap * (1.0 + 1e-12)):
            raise ValueError("l0_cap must be positive and at least the largest half-width")
        self.lower = lower
        self.upper = upper
        self.l0_cap = l0_cap

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

    def clearance(self, Y: np.ndarray) -> np.ndarray:
        """Signed distance-like quantity: negative inside, 0 on the boundary."""
        Y = np.asarray(Y, dtype=float)
        return np.max(np.maximum(self.lower - Y, Y - self.upper), axis=-1)

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

    ``grad`` is only needed for transversality checks.  ``vectorized`` means
    g accepts an (m, d) array and returns (m,).
    """

    def __init__(self, g: Callable, grad: Callable | None = None,
                 name: str = "custom", vectorized: bool = False,
                 dim: int | None = None):
        self._g = g
        self._grad = grad
        self.name = name
        self._vectorized = vectorized
        if dim is not None:
            v = self.value(np.zeros(dim))
            if not v < 0.0:
                raise ValueError("domain must contain the origin: g(0) < 0")

    def value(self, x) -> float:
        return float(self._g(np.asarray(x, dtype=float)))

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self._vectorized:
            return np.asarray(self._g(X), dtype=float).reshape(X.shape[0])
        return np.array([self.value(row) for row in X])

    def outside(self, X: np.ndarray) -> np.ndarray:
        """On the boundary or outside (g >= 0); works on (m, d)."""
        return self.values(X) >= 0.0

    def gradient(self, x) -> np.ndarray:
        if self._grad is None:
            raise ValueError(f"domain {self.name!r} has no gradient")
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def boundary_point(self, direction: np.ndarray) -> np.ndarray:
        """Point where the ray from 0 along `direction` crosses {g = 0}."""
        u = np.asarray(direction, dtype=float)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            raise ValueError("direction must be nonzero")
        u = u / nrm
        lo, hi = 0.0, 1.0
        for _ in range(200):
            if self.value(hi * u) >= 0.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise NoExit(f"domain {self.name!r} appears unbounded along the ray")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.value(mid * u) >= 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi) * u

    @classmethod
    def ball(cls, radius: float) -> "SmoothDomain":
        radius = float(radius)
        if radius <= 0.0:
            raise ValueError("radius must be positive")

        def g(x):
            x = np.asarray(x, dtype=float)
            return np.sum(x * x, axis=-1) - radius * radius

        return cls(g, grad=lambda x: 2.0 * np.asarray(x, dtype=float),
                   name=f"ball:{radius!r}", vectorized=True)

    @classmethod
    def ellipsoid(cls, semi_axes) -> "SmoothDomain":
        a = np.atleast_1d(np.asarray(semi_axes, dtype=float))
        if np.any(a <= 0.0):
            raise ValueError("semi-axes must be positive")
        inv2 = 1.0 / (a * a)

        def g(x):
            x = np.asarray(x, dtype=float)
            return np.sum(x * x * inv2, axis=-1) - 1.0

        axes_repr = ",".join(repr(float(v)) for v in a)
        return cls(g, grad=lambda x: 2.0 * np.asarray(x, dtype=float) * inv2,
                   name=f"ellipsoid:{axes_repr}", vectorized=True)


def _deterministic_probe_points(d: int, radius: float) -> np.ndarray:
    """Fixed probe set for construction-time self checks."""
    cap = radius if math.isfinite(radius) else 1.0
    dirs = [np.zeros(d)]
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
    return np.unique(np.asarray(pts), axis=0)


class ConjugateFieldModel:
    """Drift field defined through a linearizing map.

    Parameters
    ----------
    spectrum:
        Eigenvalues of the linearization at 0 (strictly decreasing, positive).
    f, f_inv, df:
        The map, its inverse, and its Jacobian.  Must satisfy f(0) = 0 and
        Df(0) = I to 1e-10; checked at construction on a probe set, along
        with the inverse round trip and the conjugacy residual
        ``Df(x) b(x) = lambda o f(x)`` (1e-8).
    validity_radius:
        Sup-norm radius within which the map is trusted.  ``drift`` raises
        OutsideValidity beyond it; batch callers clamp instead and flag.
    """

    def __init__(self, spectrum: Spectrum, f, f_inv, df,
                 validity_radius: float = math.inf, variant: str = "custom",
                 f_batch=None, f_inv_batch=None, drift_batch=None,
                 check: bool = True):
        self.spectrum = spectrum
        self._f = f
        self._f_inv = f_inv
        self._df = df
        self.validity_radius = float(validity_radius)
        if not self.validity_radius > 0.0:
            raise ValueError("validity_radius must be positive")
        self.variant = variant
        self._f_batch = f_batch
        self._f_inv_batch = f_inv_batch
        self._drift_batch = drift_batch
        self._lam = spectrum.as_array()
        if check:
            self._self_check()

    # point API ---------------------------------------------------------
    def push(self, x) -> np.ndarray:
        """y = f(x)."""
        return np.asarray(self._f(np.asarray(x, dtype=float)), dtype=float)

    def pull(self, y) -> np.ndarray:
        """x = f^{-1}(y)."""
        return np.asarray(self._f_inv(np.asarray(y, dtype=float)), dtype=float)

    def jacobian(self, x) -> np.ndarray:
        return np.asarray(self._df(np.asarray(x, dtype=float)), dtype=float)

    def drift(self, x) -> np.ndarray:
        """b(x); raises OutsideValidity when |x|_inf exceeds the radius."""
        x = np.asarray(x, dtype=float)
        if np.max(np.abs(x)) > self.validity_radius:
            raise OutsideValidity(
                f"|x|_inf = {np.max(np.abs(x)):g} exceeds validity radius "
                f"{self.validity_radius:g}")
        J = self.jacobian(x)
        return np.linalg.solve(J, self._lam * self.push(x))

    # batch API -----------------------------------------------------------
    # Batch methods assume rows already inside the validity region; the
    # stochastic and deterministic engines clamp and flag before calling.
    def push_batch(self, X: np.ndarray) -> np.ndarray:
        if self._f_batch is not None:
            return self._f_batch(X)
        return np.stack([self.push(row) for row in X])

    def pull_batch(self, Y: np.ndarray) -> np.ndarray:
        if self._f_inv_batch is not None:
            return self._f_inv_batch(Y)
        return np.stack([self.pull(row) for row in Y])

    def drift_batch(self, X: np.ndarray) -> np.ndarray:
        if self._drift_batch is not None:
            return self._drift_batch(X)
        out = np.empty_like(X)
        for r, row in enumerate(X):
            J = self.jacobian(row)
            out[r] = np.linalg.solve(J, self._lam * self.push(row))
        return out

    def clamp(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project rows into the validity cube; returns (clamped, was_outside)."""
        r = self.validity_radius
        if not math.isfinite(r):
            return X, np.zeros(X.shape[0], dtype=bool)
        over = np.max(np.abs(X), axis=1) > r
        if not over.any():
            return X, over
        Xc = np.clip(X, -r, r)
        return Xc, over

    def _self_check(self):
        d = self.spectrum.d
        pts = _deterministic_probe_points(d, self.validity_radius)
        y0 = self.push(np.zeros(d))
        if np.max(np.abs(y0)) > 1e-10:
            raise ValueError("linearizing map must fix the origin: f(0) = 0")
        if np.max(np.abs(self.jacobian(np.zeros(d)) - np.eye(d))) > 1e-10:
            raise ValueError("linearizing map must have identity Jacobian at 0")
        for x in pts:
            y = self.push(x)
            back = self.pull(y)
            if np.max(np.abs(back - x)) > 1e-10 * max(1.0, np.max(np.abs(x))):
                raise ValueError("f_inv does not invert f to 1e-10 on probe points")
            b = np.linalg.solve(self.jacobian(x), self._lam * y)
            res = self.jacobian(x) @ b - self._lam * y
            if np.max(np.abs(res)) > 1e-8 * max(1.0, np.max(np.abs(y))):
                raise ValueError("conjugacy residual exceeds 1e-8 on probe points")
        if self._f_batch is not None or self._drift_batch is not None:
            # vectorized fast paths must agree with the row-wise definitions
            ref_y = np.stack([self.push(x) for x in pts])
            if np.max(np.abs(self.push_batch(pts) - ref_y)) > 1e-12:
                raise ValueError("f_batch disagrees with f on probe points")
            ref_b = np.stack(
                [np.linalg.solve(self.jacobian(x), self._lam * self.push(x))
                 for x in pts])
            if np.max(np.abs(self.drift_batch(pts) - ref_b)) > 1e-10:
                raise ValueError("drift_batch disagrees with drift on probe points")

    # constructors --------------------------------------------------------
    @classmethod
    def identity(cls, spectrum: Spectrum) -> "ConjugateFieldModel":
        """Linear model b(x) = lambda o x; valid everywhere."""
        d = spectrum.d
        lam = spectrum.as_array()
        return cls(
            spectrum,
            f=lambda x: np.array(x, dtype=float),
            f_inv=lambda y: np.array(y, dtype=float),
            df=lambda x: np.eye(d),
            validity_radius=math.inf,
            variant="identity",
            f_batch=lambda X: np.asarray(X, dtype=float),
            f_inv_batch=lambda Y: np.asarray(Y, dtype=float),
            drift_batch=lambda X: X * lam,
        )

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

        def f(x):
            return x + c * x * x

        def f_inv(y):
            disc = np.sqrt(np.maximum(1.0 + 4.0 * c * y, 0.0))
            return 2.0 * y / (1.0 + disc)

        def df(x):
            return np.diag(1.0 + 2.0 * c * x)

        def drift_batch(X):
            return lam * (X + c * X * X) / (1.0 + 2.0 * c * X)

        return cls(
            spectrum, f=f, f_inv=f_inv, df=df,
            validity_radius=validity_radius,
            variant="component_quadratic",
            f_batch=lambda X: X + c * X * X,
            f_inv_batch=lambda Y: 2.0 * Y / (1.0 + np.sqrt(np.maximum(1.0 + 4.0 * c * Y, 0.0))),
            drift_batch=drift_batch,
        )


# ---------------------------------------------------------------------------
# deterministic flow


def _rk4_block(model: ConjugateFieldModel, X: np.ndarray, h) -> np.ndarray:
    """One classical Runge-Kutta step for every row of X.

    h may be a scalar or a per-row array (used when refining crossings).
    """
    def rhs(Z):
        Zc, _ = model.clamp(Z)
        return model.drift_batch(Zc)

    h = np.asarray(h, dtype=float)
    if h.ndim == 1:
        h = h[:, None]
    k1 = rhs(X)
    k2 = rhs(X + (0.5 * h) * k1)
    k3 = rhs(X + (0.5 * h) * k2)
    k4 = rhs(X + h * k3)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow(model: ConjugateFieldModel, x0, t: float, dt: float = 1e-3) -> np.ndarray:
    """Integrate dx/dt = b(x) from x0 for time t with fixed-step RK4.

    The step is t/n with n = ceil(t/dt), so the local step never exceeds dt
    and the global error is O(dt^4).  Raises StepTooLarge if dt > t and
    OutsideValidity if the committed trajectory leaves the trusted region.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("t must be finite and >= 0")
    if t == 0.0:
        return x0.copy()
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > t:
        raise StepTooLarge(f"dt = {dt:g} exceeds the horizon t = {t:g}")
    n = int(math.ceil(t / dt - 1e-12))
    h = t / n
    X = x0[None, :].copy()
    r = model.validity_radius
    for _ in range(n):
        if np.max(np.abs(X)) > r:
            raise OutsideValidity("trajectory left the validity region")
        X = _rk4_block(model, X, h)
    if np.max(np.abs(X)) > r:
        raise OutsideValidity("trajectory left the validity region")
    return X[0]


def _domain_clearance(model: ConjugateFieldModel, domain, X: np.ndarray) -> np.ndarray:
    """Continuous crossing function: negative inside, positive outside."""
    if isinstance(domain, BoxDomain):
        return domain.clearance(model.push_batch(X))
    return domain.values(X)


def flow_exit_times_batch(model: ConjugateFieldModel, domain, X0: np.ndarray,
                          dt: float = 1e-3, t_cap: float | None = None
                          ) -> np.ndarray:
    """Exit times of the deterministic flow for every row of X0.

    Rows starting on the boundary or outside get exit time 0.  Crossings are
    bracketed on the step grid and refined by bisection on the step fraction
    to far below dt^2.  Rows that never exit before t_cap come back as nan.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_cap is None:
        t_cap = 1000.0 / model.spectrum.smallest
    m = X0.shape[0]
    tau = np.full(m, np.nan)
    c0 = _domain_clearance(model, domain, X0)
    tau[c0 >= 0.0] = 0.0
    active = np.flatnonzero(c0 < 0.0)
    X = X0.copy()
    n_steps = int(math.ceil(t_cap / dt - 1e-12))
    for k in range(n_steps):
        if active.size == 0:
            break
        prev = X[active]
        if np.max(np.abs(prev)) > model.validity_radius:
            raise OutsideValidity("trajectory left the validity region")
        nxt = _rk4_block(model, prev, dt)
        c = _domain_clearance(model, domain, nxt)
        crossed = c > 0.0
        if crossed.any():
            rows = active[crossed]
            start = prev[crossed]
            lo = np.zeros(rows.size)
            hi = np.ones(rows.size)
            for _ in range(_BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                # one partial step per row with its own fraction of dt
                trial = _rk4_block(model, start, mid * dt)
                outside = _domain_clearance(model, domain, trial) > 0.0
                hi[outside] = mid[outside]
                lo[~outside] = mid[~outside]
            tau[rows] = k * dt + 0.5 * (lo + hi) * dt
        X[active] = nxt
        active = active[~crossed]
    return tau


def flow_exit_time(model: ConjugateFieldModel, domain, x0,
                   dt: float = 1e-3, t_cap: float | None = None) -> float:
    """First time the flow from x0 leaves the domain; NoExit past t_cap."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if np.all(x0 == 0.0):
        raise ValueError("the origin is a fixed point and never exits")
    tau = flow_exit_times_batch(model, domain, x0[None, :], dt=dt, t_cap=t_cap)
    if math.isnan(tau[0]):
        cap = t_cap if t_cap is not None else 1000.0 / model.spectrum.smallest
        raise NoExit(f"no exit before t = {cap:g}")
    return float(tau[0])


def travel_time_bounds(model: ConjugateFieldModel, box: BoxDomain,
                       inner: SmoothDomain, outer: SmoothDomain,
                       n_boundary_samples: int = 64, dt: float = 1e-3
                       ) -> tuple[float, float]:
    """(T_minus, T_plus): extreme flow travel times from the box boundary.

    T_minus is the fastest exit from the inner comparison domain, T_plus the
    slowest exit from the outer one, both over a deterministic sample of the
    box boundary.  The sampled boundary must lie inside both domains,
    otherwise InclusionViolated is raised.
    """
    if n_boundary_samples < 1:
        raise ValueError("n_boundary_samples must be >= 1")
    pts_y = box.face_points(n_boundary_samples)
    pts_x = model.pull_batch(pts_y)
    for dom, role in ((inner, "inner"), (outer, "outer")):
        vals = dom.values(pts_x)
        if np.any(vals >= 0.0):
            bad = pts_x[np.argmax(vals)]
            raise InclusionViolated(
                f"box boundary point {bad} is not strictly inside the {role} "
                f"domain {dom.name!r}")
    t_inner = flow_exit_times_batch(model, inner, pts_x, dt=dt)
    t_outer = flow_exit_times_batch(model, outer, pts_x, dt=dt)
    if np.any(np.isnan(t_inner)) or np.any(np.isnan(t_outer)):
        raise NoExit("a boundary sample failed to exit a comparison domain")
    t_minus = float(np.min(t_inner))
    t_plus = float(np.max(t_outer))
    return t_minus, t_plus


class TransversalityReport:
    """Result of a boundary transversality sweep."""

    def __init__(self, ok: bool, min_inner_product: float, n_samples: int):
        self.ok = ok
        self.min_inner_product = min_inner_product
        self.n_samples = n_samples

    def __repr__(self):
        return (f"TransversalityReport(ok={self.ok}, "
                f"min_inner_product={self.min_inner_product!r}, "
                f"n_samples={self.n_samples})")


def transversality_check(model: ConjugateFieldModel, domain: SmoothDomain,
                         n_samples: int = 64) -> TransversalityReport:
    """Check the drift points strictly outward on the domain boundary.

    Samples boundary points along deterministic directions (the 2d axis
    directions first, then seeded random ones) and evaluates <n_hat, b>
    with the outward normal from the domain gradient.  Passing means every
    sampled inner product is strictly positive.  Directions whose ray never
    leaves the domain are skipped, so unbounded domains are handled; at
    least one direction must cross the boundary.
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
    worst = math.inf
    n_crossed = 0
    for u in dirs:
        try:
            p = domain.boundary_point(u)
        except NoExit:
            continue
        n_crossed += 1
        grad = domain.gradient(p)
        gn = float(np.linalg.norm(grad))
        if gn == 0.0:
            raise ValueError("domain gradient vanishes on the boundary")
        ip = float(np.dot(grad / gn, model.drift(p)))
        worst = min(worst, ip)
    if n_crossed == 0:
        raise NoExit(f"no sampled ray crossed the boundary of {domain.name!r}")
    return TransversalityReport(ok=worst > 0.0, min_inner_product=worst,
                                n_samples=n_crossed)
