import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemoduli import (
    DomainError,
    EuclideanNorm,
    LpNorm,
    Norm,
    PreconditionError,
    regular_polygon_norm,
    weighted_lp_norm,
)
from planemoduli import moduli, triangle
from planemoduli.triangle import (
    build_figure,
    is_quasi_orthogonal,
    lambda_point,
    lambda_point_batch,
    projection_bound_margin,
    quasi_normal_cone,
)
from planemoduli.verify import _sample_family, standard_norms

EUCLID = EuclideanNorm()
LINF = LpNorm("inf")
L1 = LpNorm(1)
L3 = LpNorm(3)
HEXAGON = regular_polygon_norm(6)

# log-spaced lambda sweep: catches shallow dips of ||x + t*y|| at every scale
SWEEP = np.concatenate([[0.0], 1.5 * 2.0 ** (-np.arange(41) / 2.0), -1.5 * 2.0 ** (-np.arange(41) / 2.0)])


def sweep_min(norm, X, Y):
    V = X[:, None, :] + SWEEP[None, :, None] * Y[:, None, :]
    return np.min(norm(V), axis=1)


# -- quasi-orthogonality ------------------------------------------------------


def test_is_quasi_orthogonal_examples():
    assert is_quasi_orthogonal(EUCLID, (0.0, 1.0), (1.0, 0.0))
    assert not is_quasi_orthogonal(EUCLID, (1.0, 0.1), (1.0, 0.0))
    assert is_quasi_orthogonal(LINF, (-1.0, 1.0), (1.0, 1.0))  # inside the corner cone
    assert is_quasi_orthogonal(LINF, (0.0, 1.0), (1.0, 0.5))  # facet direction
    assert not is_quasi_orthogonal(LINF, (1.0, 1.0), (1.0, 1.0))
    # scale invariance in x
    assert is_quasi_orthogonal(EUCLID, (0.0, -3.0), (2.0, 0.0))


def test_quasi_normal_cone_smooth():
    cone = quasi_normal_cone(EUCLID, (1.0, 0.0))
    assert cone.is_degenerate()
    assert cone.theta_lo == pytest.approx(np.pi / 2, abs=1e-12)
    assert cone.contains_angle(np.pi / 2)
    assert cone.contains_angle(-np.pi / 2)  # sign symmetry
    assert not cone.contains_angle(np.pi / 4)

    cone3 = quasi_normal_cone(L3, (1.0, 0.0))
    assert cone3.is_degenerate()
    assert cone3.theta_lo == pytest.approx(np.pi / 2, abs=1e-12)


def test_quasi_normal_cone_linf_corner():
    cone = quasi_normal_cone(LINF, (1.0, 1.0))
    assert cone.theta_lo == pytest.approx(np.pi / 2, abs=1e-12)
    assert cone.theta_hi == pytest.approx(np.pi, abs=1e-12)
    assert cone.contains_angle(3 * np.pi / 4)  # direction (-1, 1)
    assert cone.contains_angle(0.0)  # (1,0) ~ (-1,0), an endpoint up to sign
    assert not cone.contains_angle(np.pi / 4)


def test_cone_matches_sweep_criterion():
    # membership in the cone must agree with the operational definition
    for norm, x in ((LINF, (1.0, 1.0)), (HEXAGON, HEXAGON.sphere_point(0.0)), (EUCLID, (0.0, 1.0))):
        x = np.asarray(x, dtype=float)
        cone = quasi_normal_cone(norm, x)
        phis = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        Y = norm.sphere_point(phis)
        minima = sweep_min(norm, np.broadcast_to(x, Y.shape), Y)
        for phi, mv in zip(phis, minima):
            member = cone.contains_angle(float(phi), tol=2e-3)
            boundary = cone.contains_angle(float(phi), tol=2e-3) != cone.contains_angle(float(phi), tol=-2e-3)
            if boundary:
                continue
            assert member == (mv >= 1.0 - 1e-9), (norm.kind, phi, mv, member)


def test_quasi_orthogonality_agrees_with_sweep():
    rng = np.random.default_rng(7)
    skipped = 0
    total = 0
    for norm in (EUCLID, L3, LINF, HEXAGON):
        n = 2500
        X = norm.sphere_point(rng.uniform(0, 2 * np.pi, n))
        Y = norm.sphere_point(rng.uniform(0, 2 * np.pi, n))
        pm, pp = norm._support_batch(X)
        s1 = np.sum(pm * Y, axis=-1)
        s2 = np.sum(pp * Y, axis=-1)
        pairing = np.where(s1 * s2 <= 0, 0.0, np.minimum(np.abs(s1), np.abs(s2)))
        minima = sweep_min(norm, X, Y)
        # a pairing residual of delta dips the sweep by only O(delta^2); skip
        # the thin band where the two tests measurably diverge
        band = (pairing > 1e-9) & (pairing < 1e-3)
        skipped += int(np.sum(band))
        total += n
        impl = pairing <= 1e-9
        sweep = minima >= 1.0 - 1e-9
        agree = impl == sweep
        assert np.all(agree | band)
    assert skipped < 0.2 * total


# -- lambda -------------------------------------------------------------------


def test_lambda_point_euclidean_closed_form():
    lam = lambda_point(EUCLID, (1.0, 0.0), (0.0, 1.0), 0.6)
    assert lam == pytest.approx(0.2, abs=1e-12)


def test_lambda_point_polygon_values():
    assert lambda_point(LINF, (1.0, 0.0), (0.0, 1.0), 0.5) == 0.0
    assert lambda_point(LINF, (1.0, 0.5), (0.0, 1.0), 0.6) == pytest.approx(0.2, abs=1e-12)
    # on the diamond, moving from a vertex along the opposite diagonal costs eps
    assert lambda_point(L1, (1.0, 0.0), (0.0, 1.0), 0.3) == pytest.approx(0.3, abs=1e-12)
    # corner cone of the square: interior direction, lambda = eps
    assert lambda_point(LINF, (1.0, 1.0), (-1.0, 1.0), 0.4) == pytest.approx(0.4, abs=1e-12)


def test_lambda_point_rejects():
    with pytest.raises(DomainError):
        lambda_point(EUCLID, (1.0, 0.0), (0.0, 1.0), 1.2)
    with pytest.raises(PreconditionError):
        lambda_point_batch(EUCLID, np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]), 0.5)


def test_lambda_point_batch_empty():
    lam = lambda_point_batch(EUCLID, np.empty((0, 2)), np.empty((0, 2)), 0.5)
    assert lam.shape == (0,)


# -- the lambda solver against the bisection it replaced ----------------------------


def _bisect_lambda(norm, X, Y, eps, tol=1e-9):
    """Reference: LAMBDA_ITERATIONS halvings of [0, 1] on every row, with the
    bracket invariant g(lo) > 0 >= g(hi); rows with g(0) <= tol give 0."""
    y1 = X + np.broadcast_to(eps, len(X))[:, None] * Y
    at_zero = np.asarray(norm(y1)) - 1.0 <= tol
    lo, hi = np.zeros(len(X)), np.ones(len(X))
    for _ in range(triangle.LAMBDA_ITERATIONS):
        mid = 0.5 * (lo + hi)
        pos = (np.asarray(norm(y1 - mid[:, None] * X)) - 1.0) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return np.where(at_zero, 0.0, hi)


RANDOM_POLYGONS = _sample_family("random-polygons", 10, np.random.default_rng(2020))[0]
LAMBDA_NORMS = (
    *standard_norms(),
    weighted_lp_norm(2.5, 1.3, 0.7),
    weighted_lp_norm(1, 1.3, 0.7),
    weighted_lp_norm("inf", 1.3, 0.7),
    *(norm for _, norm in RANDOM_POLYGONS),
)
LAMBDA_IDS = (
    *("euclidean", "lp1", "lp1.5", "lp3", "lp-inf", "hexagon", "octagon", "weighted", "weighted-lp1", "weighted-lp-inf"),
    *(label for label, _ in RANDOM_POLYGONS),
)


@pytest.mark.parametrize("norm", LAMBDA_NORMS, ids=LAMBDA_IDS)
def test_lambda_solver_matches_bisection(norm, monkeypatch):
    thetas = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False) + 0.01, norm.special_angles()])
    X0 = norm.sphere_point(thetas)
    Yk, real = moduli._qn_directions(norm, X0, 9)
    Xc, Yc = np.broadcast_to(X0, Yk.shape)[real], Yk[real]
    X, Y = np.concatenate([Xc, Xc]), np.concatenate([Yc, -Yc])
    calls = []
    call = Norm.__call__

    def counted(self, v):
        calls.append(len(v))
        return call(self, v)

    g = lambda lam, y1: np.abs(np.asarray(norm(y1 - lam[:, None] * X)) - 1.0)  # noqa: E731
    for eps in (1e-6, 0.3, 0.7, 0.999999, 1.0):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(Norm, "__call__", counted)
            lam = lambda_point_batch(norm, X, Y, eps)
        ref = _bisect_lambda(norm, X, Y, eps)
        assert np.all((lam >= 0.0) & (lam <= 1.0)), eps
        # within the bisection's final bracket, or, where g is flat at the
        # rounding level (near eps = 1), at a residual no larger than its own
        y1 = X + eps * Y
        close = np.abs(lam - ref) <= 2.0**-47
        assert np.all(close | (g(lam, y1) <= g(ref, y1) + 4 * np.spacing(1.0))), eps
        # a row's steps depend on that row alone, also when it is solved alone
        for i in range(0, len(X), 17):
            assert lambda_point_batch(norm, X[i : i + 1], Y[i : i + 1], eps)[0] == lam[i], (eps, i)
        # g(1) = eps - 1 is not evaluated; one call for g(0), then the open rows
        assert len(calls) <= triangle.LAMBDA_ITERATIONS + 2, eps
        if norm.kind == "euclidean" and eps == 0.3:
            assert sum(calls) / len(X) <= 12


@settings(deadline=None, max_examples=80)
@given(st.floats(min_value=0.0, max_value=2 * math.pi), st.floats(min_value=0.0, max_value=1.0))
def test_lambda_in_range_euclidean(theta, eps):
    x = np.array([math.cos(theta), math.sin(theta)])
    y = np.array([-math.sin(theta), math.cos(theta)])
    lam = lambda_point(EUCLID, x, y, eps)
    assert -1e-12 <= lam <= eps + 1e-12
    assert lam == pytest.approx(1.0 - math.sqrt(1.0 - eps**2), abs=2e-7)


def random_quasi_pairs(norm, rng, n):
    """Random (x, y, sign) with y drawn from the quasi-normal set at x."""
    thetas = rng.uniform(0, 2 * np.pi, n)
    xs, ys = [], []
    for th in thetas:
        x = np.asarray(norm.sphere_point(th))
        cone = quasi_normal_cone(norm, x)
        phi = rng.uniform(cone.theta_lo, cone.theta_hi) if not cone.is_degenerate() else cone.theta_lo
        y = np.asarray(norm.sphere_point(phi))
        if rng.uniform() < 0.5:
            y = -y
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


def test_lambda_bounds_across_families():
    rng = np.random.default_rng(11)
    for norm in (EUCLID, L3, L1, LINF, HEXAGON):
        X, Y = random_quasi_pairs(norm, rng, 400)
        eps = rng.uniform(0.0, 1.0, 400)
        lam = lambda_point_batch(norm, X, Y, eps)
        assert np.all(lam >= -1e-12)
        assert np.all(lam <= eps + 1e-9)


def test_lambda_convexity_in_eps():
    rng = np.random.default_rng(13)
    for norm in (EUCLID, L3, LINF, HEXAGON):
        X, Y = random_quasi_pairs(norm, rng, 200)
        e1 = rng.uniform(0.0, 1.0, 200)
        e2 = rng.uniform(0.0, 1.0, 200)
        t = rng.uniform(0.0, 1.0, 200)
        em = t * e1 + (1 - t) * e2
        l1v = lambda_point_batch(norm, X, Y, e1)
        l2v = lambda_point_batch(norm, X, Y, e2)
        lm = lambda_point_batch(norm, X, Y, em)
        assert np.all(lm <= t * l1v + (1 - t) * l2v + 1e-8)


# -- figures ------------------------------------------------------------------


def test_build_figure_euclidean_eps_one():
    fig = build_figure(EUCLID, (1.0, 0.0), (0.0, 1.0), 1.0)
    assert np.allclose(fig.y1, [1.0, 1.0], atol=1e-12)
    # the root is tangential at eps=1, so the solver resolves it to ~sqrt(ulp)
    assert fig.lam == pytest.approx(1.0, abs=1e-7)
    assert np.allclose(fig.z, [0.0, 1.0], atol=1e-7)
    assert np.allclose(fig.d, [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert np.allclose(fig.y2, [1.0, 1 / math.sqrt(2)], atol=1e-12)
    assert float(fig.norm(fig.y1 - fig.z)) == pytest.approx(1.0, abs=1e-7)


def test_build_figure_cathetus_identity():
    fig = build_figure(EUCLID, (1.0, 0.0), (0.0, 1.0), 0.6)
    assert float(EUCLID(fig.y1 - fig.z)) == pytest.approx(0.2, abs=1e-10)
    assert float(np.dot(fig.p, fig.x - fig.z)) == pytest.approx(0.2, abs=1e-10)
    assert fig.residuals()["cathetus_identity"] <= 1e-8


def test_build_figure_facet_point():
    fig = build_figure(LINF, (1.0, 0.0), (0.0, 1.0), 0.5)
    assert fig.lam == 0.0
    assert np.allclose(fig.z, fig.y1, atol=1e-12)
    assert projection_bound_margin(fig) == pytest.approx(0.5, abs=1e-10)


def test_build_figure_rejects():
    with pytest.raises(DomainError):
        build_figure(EUCLID, (1.0, 0.0), (0.0, 1.0), 1.5)
    with pytest.raises(PreconditionError):
        build_figure(EUCLID, (1.0, 0.0), (0.6, 0.8), 0.5)


def test_figure_residuals_random():
    rng = np.random.default_rng(17)
    for norm in (EUCLID, L3, L1, LINF, HEXAGON):
        X, Y = random_quasi_pairs(norm, rng, 150)
        eps = rng.uniform(1e-6, 1.0, 150)
        for i in range(len(X)):
            fig = build_figure(norm, X[i], Y[i], eps[i])
            res = fig.residuals()
            assert res["cathetus_identity"] <= 1e-8, (norm.kind, res)
            assert res["unit_z"] <= 1e-9
            assert res["p_kills_y"] <= 1e-9
            assert projection_bound_margin(fig) >= -1e-9


def test_projection_margin_small_eps_ratio():
    fig = build_figure(EUCLID, (1.0, 0.0), (0.0, 1.0), 1e-4)
    ratio = float(EUCLID(fig.x - fig.z)) / 1e-4
    assert ratio == pytest.approx(1.0, abs=1e-3)
    assert projection_bound_margin(fig) > 0.0


def test_figure_json_fields():
    fig = build_figure(EUCLID, (1.0, 0.0), (0.0, 1.0), 0.6)
    d = fig.to_json_dict()
    assert set(d) == {"norm", "x", "y", "eps", "lam", "y1", "z", "d", "y2", "p"}
    assert d["eps"] == 0.6
