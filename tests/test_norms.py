import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemoduli import (
    EuclideanNorm,
    InputError,
    LpNorm,
    PolygonNorm,
    RepresentationError,
    WeightedLpNorm,
    lp_norm,
    norm_from_json,
    norm_key,
    regular_polygon_norm,
)

SQUARE = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
DIAMOND = [(1, 0), (0, 1), (-1, 0), (0, -1)]
IRREGULAR = [(1.2, 0), (0.5, 0.9), (-0.4, 1.1), (-1.2, 0), (-0.5, -0.9), (0.4, -1.1)]


def family():
    return [
        EuclideanNorm(),
        LpNorm(1),
        LpNorm(1.5),
        LpNorm(2),
        LpNorm(3),
        LpNorm("inf"),
        WeightedLpNorm(2, (1.0, 2.0)),
        WeightedLpNorm(1, (1.0, 2.0)),
        WeightedLpNorm("inf", (2.0, 0.5)),
        WeightedLpNorm(3, (1.3, 0.7)),
        regular_polygon_norm(6),
        regular_polygon_norm(8),
        PolygonNorm(IRREGULAR),
    ]


def random_unit(norm, rng, n):
    return norm.sphere_point(rng.uniform(0.0, 2.0 * np.pi, size=n))


# -- evaluation -------------------------------------------------------------


def test_eval_known_values():
    assert EuclideanNorm()((3.0, 4.0)) == pytest.approx(5.0, abs=1e-15)
    assert LpNorm("inf")((1.0, -2.0)) == pytest.approx(2.0, abs=1e-15)
    assert PolygonNorm(SQUARE)((0.5, 0.5)) == pytest.approx(0.5, abs=1e-15)
    assert LpNorm(1)((0.3, -0.4)) == pytest.approx(0.7, abs=1e-15)
    assert WeightedLpNorm(2, (1.0, 2.0))((3.0, 2.0)) == pytest.approx(5.0, abs=1e-14)


def test_eval_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 2))
    for norm in family():
        batch = norm(pts)
        singles = np.array([norm(p) for p in pts])
        assert np.allclose(batch, singles, rtol=0, atol=1e-14)


def test_eval_rejects_bad_input():
    n = EuclideanNorm()
    with pytest.raises(InputError):
        n((1.0, np.nan))
    with pytest.raises(InputError):
        n([1.0, 2.0, 3.0])


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=-20, max_value=20),
)
def test_gauge_axioms(ax, ay, bx, by, t):
    a = np.array([ax, ay])
    b = np.array([bx, by])
    for norm in family():
        na, nb = norm(a), norm(b)
        assert na >= 0.0
        assert norm(-a) == pytest.approx(na, rel=1e-12, abs=1e-12)
        assert norm(t * a) == pytest.approx(abs(t) * na, rel=1e-12, abs=1e-10)
        assert norm(a + b) <= na + nb + 1e-12 * (1.0 + na + nb)


def test_zero_iff_zero():
    for norm in family():
        assert norm((0.0, 0.0)) == 0.0
        assert norm((1e-9, -1e-9)) > 0.0


# |s|^p underflows or overflows long before the 1/p root would bring it back;
# the gauge is scaled by the larger coordinate so that it does neither
SHARP = WeightedLpNorm(100, (1e4, 1e-4))


def test_gauge_at_extreme_scales():
    assert LpNorm(100)((1e-6, 0.0)) == 1e-6
    assert SHARP((1.0, 0.0)) == 1e4
    assert SHARP((0.0, 1.0)) == 1e-4


def test_sharp_weighted_sphere_and_supports():
    th = np.linspace(0.0, 2.0 * np.pi, 97)
    X = SHARP.sphere_point(th)
    assert np.all(np.abs(SHARP(X) - 1.0) <= 4 * np.spacing(1.0))
    for x in X[::8]:
        s = SHARP.support_set(x)
        for p in (s.p_minus, s.p_plus):
            assert np.all(np.isfinite(p))
            assert float(p @ x) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("p", [1.01, 3.0, 100.0])
def test_gauge_is_homogeneous_at_extreme_scales(p):
    norm = LpNorm(p)
    V = np.random.default_rng(11).normal(size=(64, 2))
    base = norm(V)
    for t in (1e-200, 1e200):
        assert np.all(np.abs(norm(t * V) - t * base) <= 4 * np.spacing(t * base))


def _reduction_gauge(norm, a):
    """The gauges as axis reductions over the coordinates, as they were
    written before they were computed by columns."""
    if isinstance(norm, EuclideanNorm):
        return np.sqrt(np.sum(a * a, axis=-1))
    s = a if norm._unit else a * norm.w
    if norm.p == 1.0:
        return np.sum(np.abs(s), axis=-1)
    if math.isinf(norm.p):
        return np.max(np.abs(s), axis=-1)
    if norm.p == 2.0:
        return np.sqrt(np.sum(s * s, axis=-1))
    return np.sum(np.abs(s) ** norm.p, axis=-1) ** (1.0 / norm.p)


def test_column_gauges_equal_the_reductions():
    A = np.random.default_rng(12).normal(size=(500, 2)) * np.exp(np.random.default_rng(13).uniform(-5, 5, (500, 1)))
    A[:3] = [(0.0, 0.0), (-0.0, 2.0), (3.0, -0.0)]
    exact = [EuclideanNorm(), *(LpNorm(p) for p in (1, 2, "inf")), *(WeightedLpNorm(p, (1.3, 0.7)) for p in (1, 2, "inf"))]
    for norm in exact:
        assert np.array_equal(norm(A), _reduction_gauge(norm, A)), norm
        assert all(norm(a) == _reduction_gauge(norm, a) for a in A[:40]), norm
    # the scaled gauge of the other p rounds differently, by a few ulps
    for norm in (LpNorm(1.5), LpNorm(3), WeightedLpNorm(3, (1.3, 0.7)), LpNorm(7.5)):
        ref = _reduction_gauge(norm, A)
        assert np.all(np.abs(norm(A) - ref) <= 4 * np.spacing(ref)), norm


# -- duality ----------------------------------------------------------------


def test_dual_known_pairs():
    assert LpNorm(1).dual().p == math.inf
    assert LpNorm("inf").dual().p == 1.0
    assert LpNorm(3).dual().p == pytest.approx(1.5, abs=1e-15)
    assert isinstance(EuclideanNorm().dual(), EuclideanNorm)
    dual_sq = PolygonNorm(SQUARE).dual()
    got = sorted(map(tuple, np.round(dual_sq.vertices, 12)))
    assert got == sorted(map(tuple, DIAMOND))
    w = WeightedLpNorm(2, (1.0, 2.0)).dual()
    assert np.allclose(w.w, [1.0, 0.5])


def test_dual_is_support_function():
    # ||p||_* = sup { <p, x> : ||x|| = 1 }, checked on a dense sphere sample
    # (vertex angles included so the polygon sup is exact)
    rng = np.random.default_rng(1)
    base = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    for norm in family():
        X = norm.sphere_point(np.concatenate([base, norm.special_angles()]))
        dual = norm.dual()
        for p in rng.normal(size=(8, 2)):
            sup = float(np.max(X @ p))
            assert sup == pytest.approx(dual(p), rel=3e-5, abs=1e-8)


def test_bipolar_identity():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(1000, 2)) * 3.0
    for norm in family():
        back = norm.dual().dual()
        assert np.allclose(norm(pts), back(pts), rtol=0, atol=1e-9)


def test_bipolar_polygon_vertices_exact():
    for norm in (regular_polygon_norm(6), PolygonNorm(IRREGULAR), PolygonNorm(SQUARE)):
        back = norm.dual().dual()
        assert len(back.vertices) == len(norm.vertices)
        dists = np.linalg.norm(norm.vertices[:, None, :] - back.vertices[None, :, :], axis=-1)
        assert np.max(np.min(dists, axis=1)) <= 1e-9


# -- sphere parametrization --------------------------------------------------


def test_sphere_point_is_unit():
    thetas = np.linspace(-7.0, 7.0, 500)
    for norm in family():
        X = norm.sphere_point(thetas)
        assert np.max(np.abs(norm(X) - 1.0)) <= 1e-12


def test_sphere_point_antipodal():
    th = np.linspace(0.0, np.pi, 37)
    for norm in family():
        assert np.allclose(norm.sphere_point(th + np.pi), -norm.sphere_point(th), atol=1e-12)


# -- support sets -------------------------------------------------------------


def test_support_set_euclidean():
    s = EuclideanNorm().support_set((0.6, 0.8))
    assert np.allclose(s.p_minus, [0.6, 0.8], atol=1e-12)
    assert s.is_degenerate()


def test_support_set_linf_corner():
    s = LpNorm("inf").support_set((1.0, 1.0))
    assert np.allclose(s.p_minus, [1.0, 0.0], atol=1e-12)
    assert np.allclose(s.p_plus, [0.0, 1.0], atol=1e-12)
    assert not s.is_degenerate()
    assert np.allclose(s.lerp(0.5), [0.5, 0.5], atol=1e-12)


def test_support_set_lp3_axis():
    s = LpNorm(3).support_set((1.0, 0.0))
    assert np.allclose(s.p_minus, [1.0, 0.0], atol=1e-12)
    assert s.is_degenerate()


def test_support_set_rejects_off_sphere():
    with pytest.raises(InputError):
        EuclideanNorm().support_set((1.0, 1.0))


def _support_by_loop(polygon, X):
    """The per-row loop that _support_batch's tie handling replaced."""
    A = polygon._functionals
    m = len(A)
    U = X / np.asarray(polygon._eval(X))[..., None]
    S = U @ A.T
    tie = S >= (np.max(S, axis=-1)[:, None] - 1e-9)
    idx = np.argmax(S, axis=-1)
    Pm, Pp = A[idx].copy(), A[idx].copy()
    for r in np.nonzero(np.sum(tie, axis=-1) > 1)[0]:
        cols = np.nonzero(tie[r])[0]
        starts = [c for c in cols if not tie[r][(c - 1) % m]]
        if len(starts) != 1:
            continue
        j = starts[0]
        Pm[r] = A[j]
        Pp[r] = A[(j + len(cols) - 1) % m]
    return Pm, Pp


def _polygonal_norms(rng):
    """The polygonal norms of family(), topped up to 24 with random polygons."""
    from planemoduli.verify import _sample_family

    norms = [n for n in family() if n._polygon() is not None]
    norms += [n for _, n in _sample_family("random-polygons", 24 - len(norms), rng)[0]]
    assert len(norms) == 24
    return norms


def test_support_batch_matches_the_tie_loop():
    rng = np.random.default_rng(17)
    for norm in _polygonal_norms(rng):
        vertices = norm.special_angles()
        angles = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 3000), vertices, vertices + 1e-10, vertices - 1e-10])
        X = norm.sphere_point(angles)
        got, want = norm._support_batch(X), _support_by_loop(norm._polygon(), X)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), norm
    assert EuclideanNorm()._polygon() is None and LpNorm(3)._polygon() is None


def test_lone_point_evaluates_as_in_a_batch():
    # a point must get the same bits alone as in a batch of any shape: each
    # polygon score is one product-sum, max_j(a0 F_j0 + a1 F_j1), with no
    # matrix product whose rounding depends on the row count
    rng = np.random.default_rng(17)
    for norm in _polygonal_norms(rng):
        polygon = norm._polygon()

        def reference(a):
            return np.max([a[..., 0] * f0 + a[..., 1] * f1 for f0, f1 in polygon._functionals], axis=0)

        angles = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 40), norm.special_angles()])
        P = rng.uniform(-3.0, 3.0, (40, 2))
        C = rng.uniform(-3.0, 3.0, (6, 13, 2))  # the shape of the d-minus candidates
        values, S = norm(P), norm.sphere_point(angles)
        for a in (P, C, P[:1], C[:1]):
            assert np.array_equal(polygon._eval(a), reference(a)), norm
        for i, p in enumerate(P):
            assert norm(p) == values[i] and norm(p[None, :])[0] == values[i], (norm, i)
            assert polygon._eval(p) == reference(p), (norm, i)
        for i, theta in enumerate(angles):
            assert np.array_equal(norm.sphere_point(float(theta)), S[i]), (norm, i)
        pm, pp = norm._support_batch(S)
        for i in range(len(S)):
            alone = norm._support_batch(S[i : i + 1])
            assert np.array_equal(alone[0], pm[i : i + 1]) and np.array_equal(alone[1], pp[i : i + 1]), (norm, i)


def test_support_pairing_and_dual_norm():
    rng = np.random.default_rng(3)
    for norm in family():
        X = random_unit(norm, rng, 10_000)
        pm, pp = norm._support_batch(X)
        dual = norm.dual()
        for P in (pm, pp):
            pairing = np.sum(P * X, axis=-1)
            assert np.max(np.abs(pairing - 1.0)) <= 1e-9
            assert np.max(np.abs(dual(P) - 1.0)) <= 1e-9


def test_support_segment_orientation():
    # p_minus precedes p_plus counterclockwise at every polygon vertex
    for norm in (LpNorm(1), LpNorm("inf"), regular_polygon_norm(6), PolygonNorm(IRREGULAR)):
        for th in norm.special_angles():
            s = norm.support_set(np.asarray(norm.sphere_point(th)))
            cross = s.p_minus[0] * s.p_plus[1] - s.p_minus[1] * s.p_plus[0]
            assert cross > 1e-12


# -- serialization -------------------------------------------------------------


def test_json_round_trip():
    for norm in family():
        d = norm.to_json_dict()
        clone = norm_from_json(json.dumps(d))
        assert clone.to_json_dict() == d
        assert norm_key(clone) == norm_key(norm)
        pts = np.random.default_rng(4).normal(size=(64, 2))
        assert np.allclose(norm(pts), clone(pts), atol=1e-15)


def test_polygon_spec_is_one_immutable_vertex_list():
    # every spec of a polygon shares one tuple of vertex pairs, which no
    # holder of a spec can change, and serializes as the list of lists
    hexagon = regular_polygon_norm(6)
    a, b = hexagon.to_json_dict(), hexagon.to_json_dict()
    assert a is not b and a["vertices"] is b["vertices"]
    assert all(isinstance(v, tuple) for v in a["vertices"])
    listed = {"kind": "polygon", "vertices": [[float(x), float(y)] for x, y in hexagon.vertices]}
    assert json.dumps(a, sort_keys=True) == json.dumps(listed, sort_keys=True)


def test_json_inf_token():
    n = norm_from_json({"kind": "lp", "p": "inf"})
    assert math.isinf(n.p)


def test_json_rejects_unknown():
    with pytest.raises(InputError):
        norm_from_json({"kind": "taxicab"})
    with pytest.raises(InputError):
        norm_from_json("not json at all {")
    with pytest.raises(InputError):
        norm_from_json({"kind": "lp"})


# -- validation ----------------------------------------------------------------


def test_polygon_rejects_clockwise():
    with pytest.raises(RepresentationError, match="counterclockwise"):
        PolygonNorm(list(reversed(SQUARE)))


def test_polygon_rejects_asymmetric():
    with pytest.raises(RepresentationError, match="symmetric"):
        PolygonNorm([(1, 0), (0, 1), (-1, 0.2), (0, -1)])


def test_polygon_rejects_odd_and_tiny():
    with pytest.raises(RepresentationError):
        PolygonNorm([(1, 0), (0, 1), (-1, 0)])
    with pytest.raises(RepresentationError):
        PolygonNorm([(1, 0), (-1, 0)])


def test_polygon_rejects_collinear():
    with pytest.raises(RepresentationError):
        PolygonNorm([(1, 0), (1, 1), (-1, 1), (-1, 0), (-1, -1), (1, -1)])


def test_polygon_rejects_nonconvex():
    with pytest.raises(RepresentationError):
        PolygonNorm([(2, 0), (0.1, 0.1), (0, 2), (-2, 0), (-0.1, -0.1), (0, -2)])


def test_bad_p_rejected():
    for bad in (0.5, -1, "nope", np.nan):
        with pytest.raises(RepresentationError):
            lp_norm(bad)


def test_regular_polygon_vertex_count():
    hexagon = regular_polygon_norm(6)
    assert len(hexagon.vertices) == 6
    assert hexagon((1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(RepresentationError):
        regular_polygon_norm(5)
