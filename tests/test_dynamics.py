import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitlab import (
    BoxDomain,
    ConjugateFieldModel,
    NoExit,
    NoiseModel,
    OutsideValidity,
    RankDeficient,
    SmoothDomain,
    Spectrum,
    SpectrumInvalid,
    flow_exit_times_batch,
    parse_config,
    transversality_check,
    travel_time_bounds,
)
from exitlab.dynamics import _BISECT_ITERS, check_inclusion
from exitlab.harness import run_flow_report

S1 = Spectrum([1.0])
S2 = Spectrum([1.0, 0.5])
ID1 = ConjugateFieldModel.identity(S1)
ID2 = ConjugateFieldModel.identity(S2)


def quad_forward(c, x):
    return x + c * x * x


def quad_inverse(c, y):
    # stable root of c x^2 + x - y = 0 near 0
    return 2.0 * y / (1.0 + np.sqrt(1.0 + 4.0 * c * y))


def pulled_back_interval(c, half):
    """The 1-d box [-half, half] of y = x + c x^2, pulled back to x and
    written as a smooth domain, so the RK4 crossing engine sees it.  The
    flow leaves it at log(half / |f(x0)|).  g is scaled by the half-width,
    so it does not underflow on a tiny interval."""
    a, b = quad_inverse(c, -half), quad_inverse(c, half)
    mid, w = 0.5 * (a + b), 0.5 * (b - a)
    return SmoothDomain(lambda X: ((X[:, 0] - mid) / w) ** 2 - 1.0,
                        name=f"interval:{a!r},{b!r}")


class TestNoiseModel:
    def test_constant_matrix(self):
        sigma = [[1.0, 0.5], [0.0, 2.0]]
        nm = NoiseModel(np.array(sigma))
        assert nm.constant
        batch = nm.sigma_batch(np.zeros((3, 2)))
        assert batch.shape == (3, 2, 2)
        np.testing.assert_array_equal(batch, [sigma] * 3)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            NoiseModel(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_state_scaled(self):
        nm = NoiseModel.state_scaled(np.eye(2), gamma=0.5)
        assert not nm.constant
        batch = nm.sigma_batch(np.array([[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(batch[0], np.eye(2))
        np.testing.assert_allclose(batch[1], 2.0 * np.eye(2))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_state_scaled_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            NoiseModel.state_scaled(np.eye(2), gamma)

    def test_state_scaled_batch_matches_rows(self):
        base = np.array([[1.0, 0.3], [0.0, 1.0]])
        nm = NoiseModel.state_scaled(base, 0.25)
        X = np.array([[0.1, -0.2], [0.0, 0.0], [0.5, 0.4]])
        batch = nm.sigma_batch(X)
        for k, row in enumerate(X):
            assert batch[k].tobytes() == nm.sigma_batch(X[k:k + 1])[0].tobytes()
            np.testing.assert_allclose(
                batch[k], base * (1.0 + 0.25 * (row @ row)), atol=1e-15)

    def test_point_sigma_fn_rejected(self):
        base = np.eye(2)
        with pytest.raises(ValueError, match=r"sigma_fn must map an \(m, 2\) "
                                             r"stack to \(m, 2, 2\)"):
            NoiseModel(base, sigma_fn=lambda x: base * (1.0 + float(x @ x)))


class TestBoxDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxDomain([0.0], [1.0])
        with pytest.raises(ValueError):
            BoxDomain([-1.0], [0.0])
        with pytest.raises(ValueError):
            BoxDomain([-1.0, -1.0], [1.0])

    def test_outside_and_clearance(self):
        box = BoxDomain([-1.0, -0.5], [1.0, 0.5])
        inside = np.array([[0.0, 0.0], [0.9, -0.4]])
        strictly_out = np.array([[0.0, 0.7], [-2.0, 0.0]])
        assert not box.outside(inside).any()
        assert box.outside(strictly_out).all()
        # boundary points are exits but not strictly outside
        edge = np.array([1.0, 0.0])
        assert not box.outside(edge)
        assert box.not_strictly_inside(edge)
        assert not box.not_strictly_inside(inside).any()

    def test_face_points_lie_on_boundary(self):
        box = BoxDomain([-1.0, -0.5], [1.0, 0.5])
        pts = box.face_points(8)
        assert pts.shape == (4 * 8, 2)
        on_face = np.isclose(pts, box.lower) | np.isclose(pts, box.upper)
        assert on_face.any(axis=1).all()
        assert not box.outside(pts - np.sign(pts) * 1e-9).any()

    def test_face_points_include_centers(self):
        box = BoxDomain([-1.0, -0.5], [1.0, 0.5])
        pts = box.face_points(8)
        for center in ([-1.0, 0.0], [1.0, 0.0], [0.0, -0.5], [0.0, 0.5]):
            assert np.isclose(pts, center).all(axis=1).any()

    def test_one_dimensional_faces(self):
        box = BoxDomain([-0.5], [0.5])
        np.testing.assert_array_equal(box.face_points(16), [[-0.5], [0.5]])


class TestSmoothDomain:
    def test_ball_contains_origin(self):
        ball = SmoothDomain.ball(1.0)
        assert ball.values(np.zeros((1, 2)))[0] == -1.0
        assert not ball.outside(np.zeros((1, 2)))[0]
        assert ball.outside(np.array([[1.0, 0.0]]))[0]

    def test_ellipsoid(self):
        el = SmoothDomain.ellipsoid([2.0, 1.0])
        v = el.values(np.array([[2.0, 0.0], [0.0, 0.5]]))
        assert v[0] == pytest.approx(0.0, abs=1e-14)
        assert v[1] < 0.0
        with pytest.raises(ValueError):
            SmoothDomain.ellipsoid([1.0, -1.0])

    @pytest.mark.parametrize("size", [math.nan, math.inf, 0.0])
    def test_non_finite_or_zero_sizes_rejected(self, size):
        with pytest.raises(ValueError, match="finite and positive"):
            SmoothDomain.ball(size)
        with pytest.raises(ValueError, match="finite and positive"):
            SmoothDomain.ellipsoid([1.0, size])

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_sizes_whose_inverse_square_overflows_rejected(self, size):
        with pytest.raises(ValueError, match="finite and positive"):
            SmoothDomain.ball(size)
        with pytest.raises(ValueError, match="finite and positive"):
            SmoothDomain.ellipsoid([1.0, size])

    def test_boundary_point_on_ray(self):
        ball = SmoothDomain.ball(2.0)
        P = ball.boundary_points(np.array([[3.0, 4.0], [0.0, -1.0]]))
        np.testing.assert_allclose(np.linalg.norm(P, axis=1), 2.0, atol=1e-12)
        np.testing.assert_allclose(P[0] / np.linalg.norm(P[0]), [0.6, 0.8],
                                   atol=1e-12)
        np.testing.assert_allclose(P[1], [0.0, -2.0], atol=1e-12)

    def test_unbounded_ray_raises(self):
        half = SmoothDomain(lambda x: x[:, 0] - 1.0)
        with pytest.raises(NoExit):
            half.boundary_points(np.array([[-1.0]]))
        P = half.boundary_points(np.array([[-1.0], [2.0]]))
        assert np.isnan(P[0, 0])
        assert P[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_must_contain_origin(self):
        with pytest.raises(ValueError, match="origin"):
            SmoothDomain(lambda x: 1.0 - x[:, 0], dim=1)

    def test_point_g_rejected(self):
        with pytest.raises(ValueError, match=r"must map an \(m, d\) stack to \(m,\)"):
            SmoothDomain(lambda x: float(x[0] @ x[0]) - 1.0, dim=2)


class TestConjugateFieldModel:
    def test_identity_drift_is_linear(self):
        X = np.array([[0.3, -0.4]])
        np.testing.assert_allclose(ID2.drift_batch(X), [[0.3, -0.2]], atol=1e-15)

    def test_quadratic_spec_drift(self):
        m = ConjugateFieldModel.component_quadratic(S1, [1.0])
        b = m.drift_batch(np.array([[0.1]]))
        assert b[0, 0] == pytest.approx(0.11 / 1.2, rel=1e-14)

    def test_quadratic_default_radius(self):
        m = ConjugateFieldModel.component_quadratic(S1, [1.0])
        assert m.validity_radius == pytest.approx(0.2, abs=1e-15)

    def test_quadratic_radius_capped_by_jacobian_zero(self):
        # Df vanishes at |x| = 1/(2c); radii beyond that are not a diffeomorphism.
        with pytest.raises(ValueError):
            ConjugateFieldModel.component_quadratic(S1, [1.0], validity_radius=0.5)
        m = ConjugateFieldModel.component_quadratic(S1, [1.0], validity_radius=0.4)
        assert m.validity_radius == 0.4

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0])
    def test_validity_radius_assignment_checked(self, radius):
        m = ConjugateFieldModel.identity(S1)
        with pytest.raises(ValueError, match="validity_radius"):
            m.validity_radius = radius
        assert m.validity_radius == math.inf
        m.validity_radius = 2.0
        assert m.validity_radius == 2.0

    def test_roundtrip(self):
        m = ConjugateFieldModel.component_quadratic(S2, [1.0, -0.5])
        X = np.array([[0.1, -0.15]])
        np.testing.assert_allclose(m.pull_batch(m.push_batch(X)), X, atol=1e-12)

    def test_outside_validity_raises(self):
        # the boundary of a ball of radius 0.3 leaves the validity radius 0.2
        m = ConjugateFieldModel.component_quadratic(S1, [1.0])
        with pytest.raises(OutsideValidity):
            transversality_check(m, SmoothDomain.ball(0.3), n_samples=4)

    def test_batch_matches_rows(self):
        c = np.array([0.8, -0.6])
        m = ConjugateFieldModel.component_quadratic(S2, c)
        X = np.array([[0.1, 0.05], [-0.12, 0.2], [0.0, 0.0]])
        for method in (m.push_batch, m.drift_batch):
            whole = method(X)
            for k in range(X.shape[0]):
                assert whole[k].tobytes() == method(X[k:k + 1])[0].tobytes()
        # the closed-form drift against the stacked solve(df, lambda o f)
        def df(X):
            return np.stack([np.diag(r) for r in 1.0 + 2.0 * c * X])

        solved = ConjugateFieldModel(S2, m.push_batch, m.pull_batch, df,
                                     validity_radius=m.validity_radius)
        np.testing.assert_allclose(m.drift_batch(X), solved.drift_batch(X),
                                   atol=1e-14)
        Y = m.push_batch(X)
        np.testing.assert_allclose(m.pull_batch(Y), X, atol=1e-12)

    def test_clamp_flags_out_of_range_rows(self):
        m = ConjugateFieldModel.component_quadratic(S1, [1.0])
        X = np.array([[0.1], [0.35], [-0.5]])
        Xc, over = m.clamp(X)
        np.testing.assert_array_equal(over, [False, True, True])
        assert np.all(np.abs(Xc) <= m.validity_radius + 1e-15)
        assert Xc[0, 0] == 0.1

    @pytest.mark.parametrize("d", [1, 2, 4, 9])
    def test_clamp_flags_match_the_row_max(self, d):
        # clamp builds its flags one coordinate at a time; they must equal
        # the row-wise max test, which never flags a row holding a nan
        lam = np.linspace(1.0, 0.2, d)
        m = ConjugateFieldModel.component_quadratic(Spectrum(lam), np.ones(d))
        r = m.validity_radius
        rng = np.random.default_rng(d)
        X = rng.uniform(-1.5 * r, 1.5 * r, (400, d))
        picks = rng.random((400, d))
        X[picks < 0.1] = np.nan
        X[(picks >= 0.1) & (picks < 0.2)] = r
        X[(picks >= 0.2) & (picks < 0.3)] = -r
        X[:3] = [[np.nan] * d, [r] * d, [-r] * d]
        for view in (X, np.asfortranarray(X)):
            Xc, over = m.clamp(view)
            np.testing.assert_array_equal(over, np.max(np.abs(X), axis=1) > r)
            assert over.any() and not over.all()
            np.testing.assert_array_equal(Xc, np.clip(X, -r, r))

    def test_broken_forward_map_rejected(self):
        with pytest.raises(ValueError, match=r"f\(0\) = 0"):
            ConjugateFieldModel(S1, lambda x: x + 0.1, lambda y: y - 0.1,
                                lambda x: np.ones((len(x), 1, 1)),
                                validity_radius=1.0)

    def test_broken_jacobian_rejected(self):
        with pytest.raises(ValueError, match="identity Jacobian"):
            ConjugateFieldModel(S1, lambda x: 2.0 * x, lambda y: 0.5 * y,
                                lambda x: np.full((len(x), 1, 1), 2.0),
                                validity_radius=1.0)

    def test_broken_inverse_rejected(self):
        with pytest.raises(ValueError, match="f_inv does not invert f"):
            ConjugateFieldModel(S1, lambda x: x + x ** 3, lambda y: y,
                                lambda x: (1.0 + 3.0 * x ** 2)[:, :, None],
                                validity_radius=0.5)

    def test_broken_drift_rejected(self):
        with pytest.raises(ValueError, match="drift disagrees"):
            ConjugateFieldModel(S1, lambda x: x, lambda y: y,
                                lambda x: np.ones((len(x), 1, 1)),
                                drift=lambda x: 1.001 * x, validity_radius=1.0)

    @pytest.mark.parametrize("which", ["f", "f_inv", "df", "drift"])
    def test_point_callable_rejected(self, which):
        # written for one point of shape (d,): wrong on an (m, d) stack
        lam = S2.as_array()
        parts = {"f": lambda X: X, "f_inv": lambda Y: Y,
                 "df": lambda X: np.broadcast_to(np.eye(2), (len(X), 2, 2)),
                 "drift": lambda X: X * lam}
        parts[which] = {"f": lambda x: np.array([x[0], x[1]]),
                        "f_inv": lambda y: np.asarray(y)[0],
                        "df": lambda x: np.eye(2),
                        "drift": lambda x: np.dot(lam, x)}[which]
        shape = r"\(m, 2, 2\)" if which == "df" else r"\(m, 2\)"
        with pytest.raises(ValueError,
                           match=rf"{which} must map an \(m, 2\) stack to {shape}"):
            ConjugateFieldModel(S2, **parts)

    def test_custom_model_accepted(self):
        # cubic perturbation with an inverse by Newton on the monotone branch;
        # no closed-form drift, so drift_batch solves the stacked system
        c = 0.2

        def f(x):
            return x + c * x ** 3

        def df(x):
            return (1.0 + 3.0 * c * x ** 2)[:, :, None]

        def f_inv(y):
            out = y.copy()
            for _ in range(60):
                out = out - (out + c * out ** 3 - y) / (1.0 + 3.0 * c * out ** 2)
            return out

        m = ConjugateFieldModel(S1, f, f_inv, df, validity_radius=0.5)
        X = np.array([[0.3], [-0.1]])
        np.testing.assert_allclose(m.pull_batch(m.push_batch(X)), X, atol=1e-12)
        np.testing.assert_allclose(m.drift_batch(X), f(X) / (1.0 + 3.0 * c * X ** 2),
                                   rtol=1e-14)


class TestFlow:
    """The RK4 crossing engine against the conjugated exit time."""

    def test_fourth_order_convergence(self):
        m = ConjugateFieldModel.component_quadratic(S1, [1.0], validity_radius=0.4)
        x0 = np.array([[0.02]])
        exact = math.log(0.15 / quad_forward(1.0, 0.02))
        err = []
        for dt in (0.1, 0.05, 0.025):
            tau = flow_exit_times_batch(m, pulled_back_interval(1.0, 0.15), x0, dt=dt)
            err.append(abs(tau[0] - exact))
        assert err[0] / err[1] > 8.0
        assert err[1] / err[2] > 8.0

    @given(st.floats(min_value=-0.9, max_value=0.9),
           st.floats(min_value=-0.15, max_value=0.15),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_conjugacy_identity(self, c, x0, t):
        # the interval whose conjugated exit time from x0 is t
        m = ConjugateFieldModel.component_quadratic(S1, [c])
        half = math.exp(t) * abs(quad_forward(c, x0))
        with np.errstate(invalid="ignore"):  # -half below the range of f
            edges = (quad_inverse(c, -half), quad_inverse(c, half))
        # np.max passes a nan edge on, and the comparison then skips it
        if half == 0.0 or not np.max(np.abs(edges)) < 0.9 * m.validity_radius:
            return
        tau = flow_exit_times_batch(m, pulled_back_interval(c, half),
                                    np.array([[x0]]))
        assert tau[0] == pytest.approx(t, abs=1e-8)

    def test_flow_leaving_validity_raises(self):
        # the flow from 0.15 passes the validity radius 0.2 inside ball:0.3
        m = ConjugateFieldModel.component_quadratic(S1, [1.0])
        with pytest.raises(OutsideValidity):
            flow_exit_times_batch(m, SmoothDomain.ball(0.3), np.array([[0.15]]))


class TestFlowExitTime:
    def test_identity_log_two(self):
        t = flow_exit_times_batch(ID1, BoxDomain([-1.0], [1.0]), np.array([[0.5]]))
        assert t[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_boundary_start_is_zero(self):
        box = BoxDomain([-1.0], [1.0])
        assert flow_exit_times_batch(ID1, box, np.array([[1.0]]))[0] == 0.0

    def test_origin_never_exits(self):
        tau = flow_exit_times_batch(ID1, BoxDomain([-1.0], [1.0]), np.zeros((1, 1)))
        assert np.isnan(tau[0])

    def test_cap_raises_no_exit(self):
        # run_flow_report turns a nan row into NoExit; 1e300 / 5e-324
        # overflows, so this start's exit time is inf, past the cap 1000
        cfg = parse_config("model.lambdas = 1.0\n"
                           "domain.lower = -1e300\ndomain.upper = 1e300\n"
                           "threshold.alpha = 1.5\nsweep.epsilons = 0.5\n"
                           "initial.points = 1e-323\n")
        with pytest.raises(NoExit, match="no exit before t = 1000"):
            run_flow_report(cfg)

    def test_quadratic_closed_form(self):
        m = ConjugateFieldModel.component_quadratic(S1, [1.0], validity_radius=0.4)
        # edges must be inside the range of f on the validity interval
        # (f(-0.4) = -0.24 caps the negative side)
        box = BoxDomain([-0.2], [0.2])
        X0 = np.array([[0.05], [0.1], [-0.08]])
        tau = flow_exit_times_batch(m, box, X0)
        # box edges are conjugated coordinates: f(x(t)) = e^t f(x0)
        # crosses |y| = L at t = ln(L / |f(x0)|)
        want = np.log(0.2 / np.abs(quad_forward(1.0, X0[:, 0])))
        np.testing.assert_allclose(tau, want, rtol=0.0, atol=1e-14)

    def test_smooth_domain_exit(self):
        t = flow_exit_times_batch(ID2, SmoothDomain.ball(1.0), np.array([[0.5, 0.0]]))
        assert t[0] == pytest.approx(math.log(2.0), abs=1e-8)

    def test_batch_matches_scalar(self):
        # the closed-form box exit against RK4 on the same interval in x
        m = ConjugateFieldModel.component_quadratic(S1, [1.0])
        X0 = np.array([[0.1], [0.02], [-0.07], [-0.15], [0.13]])
        closed = flow_exit_times_batch(m, BoxDomain([-0.15], [0.15]), X0)
        rk4 = flow_exit_times_batch(m, pulled_back_interval(1.0, 0.15), X0)
        assert np.all(closed > 0.0)
        np.testing.assert_allclose(closed, rk4, rtol=0.0, atol=1e-12)

    def test_batch_cap_gives_nan(self):
        taus = flow_exit_times_batch(ID1, BoxDomain([-10.0], [10.0]),
                                     np.array([[0.5]]), t_cap=0.1)
        assert np.isnan(taus[0])


def _flow_starts():
    rng = np.random.default_rng(11)
    face = ID2.pull_batch(BoxDomain([-1.0, -1.0], [1.0, 1.0]).face_points(16))
    d9 = rng.uniform(-0.5, 0.5, (12, 9))
    quad = rng.uniform(0.05, 0.09, (16, 2)) * rng.choice([-1.0, 1.0], (16, 2))
    quad[3] = [0.2, 0.0]  # y = f(x) beyond the box side: tau = 0
    ellipse = rng.uniform(-0.6, 0.6, (16, 2))
    ellipse[5] = [1.0, 0.0]  # on the boundary: tau = 0
    return {
        # face points of a box cross on many steps; mirrored pairs share one
        "identity_ball": (ID2, SmoothDomain.ball(2.0),
                          np.vstack([face, [[2.0, 0.0], [0.0, -2.5]]]), None),
        # the closed form, one row at a time
        "quadratic_box": (ConjugateFieldModel.component_quadratic(S2, [1.0, -0.5]),
                          BoxDomain([-0.15, -0.1], [0.15, 0.1]), quad, None),
        # finite validity radius: every RK4 stage goes through clamp
        "quadratic_ball": (ConjugateFieldModel.component_quadratic(S2, [1.0, -0.5]),
                           SmoothDomain.ball(0.15), quad, None),
        # a sum over 9 coordinates rounds by memory layout
        "d9_ellipsoid": (ConjugateFieldModel.identity(
                             Spectrum(list(np.linspace(3.0, 1.0, 9)))),
                         SmoothDomain.ellipsoid(np.linspace(1.0, 1.5, 9)),
                         d9, None),
        # a domain that is not built in, written on row stacks
        "custom_ellipse": (ID2, SmoothDomain(
                               lambda X: X[:, 0] ** 2 + 2.0 * X[:, 1] ** 2 - 1.0,
                               name="custom ellipse"),
                           ellipse, None),
        # the small starts are still inside at t_cap: nan
        "t_cap_nan": (ID2, SmoothDomain.ball(2.0),
                      np.vstack([face[::4], 0.01 * face[::4]]), 1.5),
    }


FLOW_CASES = _flow_starts()


def _flow_taus(case, rows):
    model, domain, X0, t_cap = FLOW_CASES[case]
    return flow_exit_times_batch(model, domain, X0[rows], t_cap=t_cap)


class TestFlowExitBatchInvariance:
    """A row's flow exit time does not depend on the rows batched with it."""

    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_batch_singletons_and_shuffled_agree(self, case):
        m = FLOW_CASES[case][2].shape[0]
        whole = _flow_taus(case, np.arange(m))
        singles = np.concatenate([_flow_taus(case, np.array([i]))
                                  for i in range(m)])
        perm = np.random.default_rng(m).permutation(m)
        shuffled = np.empty(m)
        shuffled[perm] = _flow_taus(case, perm)
        assert singles.tobytes() == whole.tobytes()
        assert shuffled.tobytes() == whole.tobytes()

    def test_cases_reach_their_branches(self):
        dt = 1e-3
        tau = _flow_taus("identity_ball", np.arange(66))
        assert (tau == 0.0).sum() == 2
        steps = np.floor(tau[tau > 0.0] / dt)
        _, per_step = np.unique(steps, return_counts=True)
        assert per_step.size > 10 and per_step.max() >= 2
        for case in ("quadratic_box", "quadratic_ball", "custom_ellipse"):
            tau = _flow_taus(case, np.arange(16))
            assert (tau == 0.0).sum() == 1 and (tau > 0.0).sum() == 15, case
        assert math.isfinite(FLOW_CASES["quadratic_ball"][0].validity_radius)
        assert (_flow_taus("d9_ellipsoid", np.arange(12)) > 0.0).all()
        tau = _flow_taus("t_cap_nan", np.arange(32))
        assert np.isnan(tau[16:]).all() and np.isfinite(tau[:16]).all()

    def test_drift_calls_do_not_grow_with_crossing_steps(self):
        # one batched bisection: at most 4 drift calls per grid step plus 4
        # per halving, however many grid steps see crossings
        calls = [0]
        lam = S2.as_array()

        def drift(X):
            calls[0] += 1
            return X * lam

        model = ConjugateFieldModel(
            S2, f=lambda X: X, f_inv=lambda Y: Y,
            df=lambda X: np.broadcast_to(np.eye(2), (len(X), 2, 2)), drift=drift)
        calls[0] = 0  # the construction-time self check calls drift too
        dt = 1e-3
        X0 = BoxDomain([-1.0, -1.0], [1.0, 1.0]).face_points(64)
        tau = flow_exit_times_batch(model, SmoothDomain.ball(2.0), X0, dt=dt)
        grid_steps = int(np.max(tau) // dt) + 1
        assert np.unique(np.floor(tau / dt)).size > 50
        assert calls[0] <= 4 * (grid_steps + _BISECT_ITERS)


class TestTravelTimeBounds:
    def test_one_dimensional_log_two(self):
        tm, tp = travel_time_bounds(ID1, BoxDomain([-0.5], [0.5]),
                                    SmoothDomain.ball(1.0), SmoothDomain.ball(1.0))
        assert tm == pytest.approx(math.log(2.0), abs=1e-9)
        assert tp == pytest.approx(math.log(2.0), abs=1e-9)

    @pytest.mark.parametrize("model_lines, domain_lines", [
        ("model.lambdas = 1.0",
         "domain.lower = -1.0\ndomain.upper = 1.0\n"
         "domain.inner = ball:1.05\ndomain.outer = ball:1.5"),
        ("model.lambdas = 1.0, 0.5",
         "domain.lower = -1.0\ndomain.upper = 1.0\n"
         "domain.inner = ball:1.5\ndomain.outer = ball:2.0"),
        ("model.variant = component_quadratic\nmodel.lambdas = 1.0, 0.5\n"
         "model.quad_coeff = 1.0, -0.5",
         "domain.lower = -0.1, -0.05\ndomain.upper = 0.1, 0.05\n"
         "domain.inner = ball:0.13\ndomain.outer = ball:0.18"),
    ])
    def test_bracket_is_the_full_flows_min_and_max(self, model_lines,
                                                   domain_lines):
        # the inner flow stops after its first crossings, yet T_minus keeps
        # every bit of the minimum over full runs
        cfg = parse_config(f"{model_lines}\n{domain_lines}\n"
                           "threshold.alpha = 1.5\nsweep.epsilons = 0.1\n")
        pts = check_inclusion(cfg.model, cfg.box, cfg.inner, cfg.outer)
        full = [flow_exit_times_batch(cfg.model, dom, pts, dt=cfg.path.dt)
                for dom in (cfg.inner, cfg.outer)]
        assert travel_time_bounds(cfg.model, cfg.box, cfg.inner, cfg.outer,
                                  dt=cfg.path.dt) == (
            float(np.min(full[0])), float(np.max(full[1])))

    def test_equal_spectrum_rejected(self):
        with pytest.raises(SpectrumInvalid):
            ConjugateFieldModel.identity(Spectrum([1.0, 1.0]))

    def test_refinement_stability_d2(self):
        box = BoxDomain([-0.25, -0.25], [0.25, 0.25])
        inner = SmoothDomain.ball(0.5)
        outer = SmoothDomain.ball(1.0)
        tm64, tp64 = travel_time_bounds(ID2, box, inner, outer,
                                        n_boundary_samples=64)
        tm640, tp640 = travel_time_bounds(ID2, box, inner, outer,
                                          n_boundary_samples=640)
        assert abs(tp64 - tp640) <= 1e-3
        # slowest escape to the unit circle starts at the face center (0, 0.25)
        assert tp64 == pytest.approx(2.0 * math.log(4.0), abs=1e-9)

    def test_ordering(self):
        box = BoxDomain([-0.25, -0.25], [0.25, 0.25])
        tm, tp = travel_time_bounds(ID2, box, SmoothDomain.ball(0.5),
                                    SmoothDomain.ball(2.0))
        assert 0.0 < tm < tp

    def test_inclusion_violation(self):
        with pytest.raises(Exception) as exc:
            travel_time_bounds(ID1, BoxDomain([-1.0], [1.0]),
                               SmoothDomain.ball(0.9), SmoothDomain.ball(2.0))
        assert type(exc.value).__name__ == "InclusionViolated"

    def test_boundary_touching_violation(self):
        # box corner exactly on the inner domain boundary is not strict
        with pytest.raises(Exception) as exc:
            travel_time_bounds(ID1, BoxDomain([-1.0], [1.0]),
                               SmoothDomain.ball(1.0), SmoothDomain.ball(2.0))
        assert type(exc.value).__name__ == "InclusionViolated"


class TestTransversality:
    def test_identity_disk_minimum_on_slow_axis(self):
        rep = transversality_check(ID2, SmoothDomain.ball(1.0), n_samples=32)
        assert rep.ok
        assert rep.min_inner_product == pytest.approx(0.5, abs=1e-12)

    def test_half_space(self):
        half = SmoothDomain(lambda x: x[:, 0] - 1.0,
                            grad=lambda x: np.tile([1.0, 0.0], (len(x), 1)),
                            name="half-space")
        rep = transversality_check(ID2, half, n_samples=16)
        assert rep.ok
        assert rep.min_inner_product == pytest.approx(1.0, rel=1e-9)
        assert rep.n_samples < 16  # non-crossing rays were skipped

    def test_reversed_field_fails(self):
        class Reversed:
            spectrum = S2
            validity_radius = math.inf

            def drift_batch(self, X):
                return -X

        rep = transversality_check(Reversed(), SmoothDomain.ball(1.0),
                                   n_samples=8)
        assert not rep.ok
        assert rep.min_inner_product < 0.0

    def test_no_crossing_anywhere_raises(self):
        whole = SmoothDomain(lambda x: -np.ones(len(x)),
                             grad=lambda x: np.zeros_like(x), name="everything")
        with pytest.raises(NoExit):
            transversality_check(ID1, whole, n_samples=4)

    def test_nan_inner_product_fails(self):
        # the drift is nan on part of the boundary: the check must not pass
        class NanOnLeft:
            spectrum = S2
            validity_radius = math.inf

            def drift_batch(self, X):
                return np.where(X[:, :1] < 0.0, np.nan, X)

        rep = transversality_check(NanOnLeft(), SmoothDomain.ball(1.0),
                                   n_samples=16)
        assert not rep.ok
        assert math.isnan(rep.min_inner_product)
