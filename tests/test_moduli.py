"""Modulus curves checked against closed forms and independent constructions."""

import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemoduli import (
    DomainError,
    InputError,
    ModulusKind,
    Norm,
    UnsupportedNormError,
    area_additivity_check,
    canonical_json,
    curve_to_csv,
    curve_to_json_dict,
    euclidean_norm,
    hilbert_reference,
    lp_norm,
    modulus,
    modulus_curve,
    parse_curve_csv,
    polygon_norm,
    reevaluate_witness,
    regular_polygon_norm,
    rows_to_csv,
    weighted_lp_norm,
)
from planemoduli import moduli
from planemoduli import modulus_batch
from planemoduli.engine import Problem, extremize_batch
from planemoduli.moduli import KIND_NAMES, ChordScans, CurveSample, _objective, kind_domain
from planemoduli.verify import ModulusCache, SuiteSettings, _sample_family, _sample_polygon, norm_label, standard_norms

EUCLID = euclidean_norm()
SQUARE = lp_norm("inf")
LP3 = lp_norm(3.0)
HEXAGON = regular_polygon_norm(6)

# reduced search settings: plenty for the tolerances used here, much faster
FAST = dict(grid_n=256, refine_rounds=4, cone_samples=9, grid_n_2d=96)


def K(token):
    return ModulusKind.parse(token)


# -- kind tokens ----------------------------------------------------------------


@pytest.mark.parametrize(
    "token",
    [
        "delta",
        "rho",
        "banas",
        "lambda-minus",
        "lambda-plus",
        "phi-minus",
        "phi-plus",
        "zeta-minus",
        "zeta-plus",
        "gamma-minus",
        "gamma-plus",
        "d-minus",
        "d-plus",
        "milman-minus",
        "milman-plus",
        "delta-t:0.25",
        "beta-t:0.75",
    ],
)
def test_kind_token_round_trip(token):
    assert ModulusKind.parse(token).token() == token


def test_kind_validation():
    with pytest.raises(InputError):
        ModulusKind("no-such-kind")
    with pytest.raises(DomainError):
        ModulusKind("delta-t")  # missing weight
    with pytest.raises(DomainError):
        ModulusKind("beta-t", 1.0)
    with pytest.raises(InputError):
        ModulusKind("delta", 0.5)
    with pytest.raises(InputError):
        ModulusKind.parse("delta-t:abc")


# -- Euclidean closed forms -------------------------------------------------------


@pytest.mark.parametrize(
    "token,eps,expected",
    [
        ("delta", 1.0, 1.0 - math.sqrt(3.0) / 2.0),
        ("banas", 1.0, 1.0 - math.sqrt(3.0) / 2.0),
        ("delta-t:0.25", 1.0, 1.0 - math.sqrt(1.0 - 0.1875)),
        ("rho", 0.5, math.sqrt(1.25) - 1.0),
        ("lambda-minus", 0.6, 0.2),
        ("lambda-plus", 0.6, 0.2),
        ("phi-minus", 0.5, 0.125),
        ("phi-plus", 1.0, 0.5),
        ("zeta-plus", 1.0, math.sqrt(2.0)),
        ("zeta-minus", 1.0, math.sqrt(2.0)),
        ("gamma-minus", 0.5, 0.25),
        ("gamma-plus", 0.5, 0.25),
        ("d-minus", 0.3, 0.3),
        ("d-plus", 0.3, 0.3),
        ("milman-minus", 0.8, math.sqrt(1.64) - 1.0),
        ("milman-plus", 0.8, math.sqrt(1.64) - 1.0),
    ],
)
def test_hilbert_reference_closed_forms(token, eps, expected):
    assert hilbert_reference(K(token), eps) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "token,eps,expected",
    [
        # In the Euclidean plane every chord of length e has ||x+z|| = sqrt(4-e^2)
        # (parallelogram law), every support functional is x itself, and the
        # quasi-orthogonal directions are the rotations of x by +-90 degrees.
        ("phi-minus", 0.5, 0.125),
        ("phi-plus", 0.5, 0.125),
        ("zeta-plus", 1.0, math.sqrt(2.0)),
        ("lambda-minus", 0.6, 0.2),
        ("gamma-minus", 0.5, 0.25),
        ("d-minus", 0.3, 0.3),
        ("delta", 1.0, 1.0 - math.sqrt(0.75)),
        ("banas", 1.0, 1.0 - math.sqrt(0.75)),
        ("delta-t:0.25", 1.0, 1.0 - math.sqrt(1.0 - 0.1875)),
        ("rho", 0.5, math.sqrt(1.25) - 1.0),
        ("milman-minus", 0.8, math.sqrt(1.64) - 1.0),
        ("milman-plus", 0.8, math.sqrt(1.64) - 1.0),
    ],
)
def test_euclidean_moduli_match_closed_forms(token, eps, expected):
    sample = modulus(EUCLID, K(token), eps, **FAST)
    assert sample.value == pytest.approx(expected, abs=1e-6)


def test_euclidean_delta_equals_banas():
    # the chord objective is constant over configurations, so inf == sup
    lo = modulus(EUCLID, K("delta"), 0.8, **FAST)
    hi = modulus(EUCLID, K("banas"), 0.8, **FAST)
    assert abs(lo.value - hi.value) <= 1e-9


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.9))
def test_euclidean_phi_matches_square_law(eps):
    sample = modulus(EUCLID, K("phi-plus"), eps, grid_n=128, refine_rounds=3)
    assert sample.value == pytest.approx(eps * eps / 2.0, abs=1e-5)


# -- max-norm special values ------------------------------------------------------


def test_max_norm_facet_values_are_exact():
    # configurations inside one facet make these objectives collapse exactly
    assert modulus(SQUARE, K("lambda-minus"), 0.5, **FAST).value <= 1e-12
    assert modulus(SQUARE, K("phi-minus"), 0.8, **FAST).value <= 1e-12
    assert modulus(SQUARE, K("delta"), 1.0, **FAST).value <= 1e-12
    assert modulus(SQUARE, K("zeta-minus"), 0.7, **FAST).value == pytest.approx(1.0, abs=1e-9)


def test_max_norm_vertex_values():
    # at a unit-ball vertex the quasi-normal cone is a quarter turn wide, and
    # the longest descent runs the full eps
    assert modulus(SQUARE, K("lambda-plus"), 0.5, **FAST).value == pytest.approx(0.5, abs=1e-7)
    assert modulus(SQUARE, K("zeta-plus"), 0.5, **FAST).value == pytest.approx(1.5, abs=1e-7)
    # chord pairs straddling a vertex realize <p1-p2, x1-x2> = 2 * (eps/2) * ... = 1
    assert modulus(SQUARE, K("gamma-plus"), 0.5, **FAST).value == pytest.approx(1.0, abs=1e-9)
    # support functionals at adjacent facets sit at l1-distance 2 in the dual
    assert modulus(SQUARE, K("d-plus"), 0.5, **FAST).value == pytest.approx(2.0, abs=1e-9)


def test_max_norm_zeta_minus_stays_one():
    for eps in (0.3, 0.7, 1.0):
        sample = modulus(SQUARE, K("zeta-minus"), eps, **FAST)
        assert sample.value == pytest.approx(1.0, abs=1e-9)


# -- smooth non-Euclidean norm against an independent sweep ------------------------


def tangent_sweep_min(norm, eps, n=4001, h=1e-5):
    """Oracle for zeta-minus on smooth strictly convex norms: the only
    quasi-orthogonal directions are the two tangents, approximated here by
    central differences of the sphere parametrization."""
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    X = norm.sphere_point(th)
    T = norm.sphere_point(th + h) - norm.sphere_point(th - h)
    Y = T / np.asarray(norm(T))[..., None]
    vals = np.minimum(np.asarray(norm(X + eps * Y)), np.asarray(norm(X - eps * Y)))
    return float(np.min(vals))


def test_lp3_zeta_minus_matches_tangent_sweep():
    sample = modulus(LP3, K("zeta-minus"), 0.5, grid_n=512, refine_rounds=5)
    oracle = tangent_sweep_min(LP3, 0.5)
    assert sample.value == pytest.approx(oracle, abs=5e-5)
    assert 1.0 - 1e-9 <= sample.value <= 1.5 + 1e-9


# -- conventions and domains ------------------------------------------------------


@pytest.mark.parametrize(
    "token,expected",
    [("delta", 0.0), ("rho", 0.0), ("zeta-minus", 1.0), ("zeta-plus", 1.0), ("lambda-plus", 0.0), ("d-plus", 0.0)],
)
def test_zero_eps_conventions(token, expected):
    sample = modulus(EUCLID, K(token), 0.0)
    assert sample.value == expected
    assert sample.refine_tol == 0.0
    assert sample.witness.get("degenerate") is True


def test_domain_rejections():
    with pytest.raises(DomainError):
        modulus(EUCLID, K("lambda-minus"), 1.2)
    with pytest.raises(DomainError):
        modulus(EUCLID, K("delta"), 2.3)
    with pytest.raises(DomainError):
        modulus(EUCLID, K("rho"), -0.5)
    with pytest.raises(DomainError):
        modulus_curve(EUCLID, K("delta"), [0.5, 0.5])
    with pytest.raises(DomainError):
        modulus_curve(EUCLID, K("lambda-plus"), [0.5, 1.5])


# -- curves -----------------------------------------------------------------------


def test_lambda_plus_curve_euclidean():
    grid = [0.2, 0.4, 0.6]
    curve = modulus_curve(EUCLID, K("lambda-plus"), grid, **FAST)
    want = [1.0 - math.sqrt(1.0 - e * e) for e in grid]
    got = curve.values()
    assert np.allclose(got, want, atol=1e-6)
    assert np.all(np.diff(got) > 0)
    for s in curve.samples:
        assert s.grid_n == 256
        assert 0 < s.refine_tol < 1e-3


def test_plus_minus_ordering_spot_checks():
    lam_lo = modulus(HEXAGON, K("lambda-minus"), 0.5, **FAST).value
    lam_hi = modulus(HEXAGON, K("lambda-plus"), 0.5, **FAST).value
    assert lam_lo <= lam_hi + 1e-9
    assert lam_hi <= 0.5 + 1e-9
    g_lo = modulus(LP3, K("gamma-minus"), 0.7, **FAST).value
    g_hi = modulus(LP3, K("gamma-plus"), 0.7, **FAST).value
    assert g_lo <= g_hi + 1e-9
    curve = modulus_curve(EUCLID, K("delta"), [0.3, 0.6, 0.9, 1.2], grid_n=128, refine_rounds=3)
    assert np.all(np.diff(curve.values()) > 0)


# -- row independence of the objectives -------------------------------------------
# extremize refines all kept cells in one objective call, and extremize_batch
# hands the rows of several points to one objective call; both give the same
# values as one call per cell and per point only if every row is computed on
# its own, a lone row included


ROW_NORMS = (LP3, HEXAGON, _sample_polygon(np.random.default_rng(20160906)))
ALL_TOKENS = [*(k for k in KIND_NAMES if k not in ("delta-t", "beta-t")), "delta-t:0.3", "beta-t:0.7"]
TWO_ANGLE = ("rho", "milman-minus", "milman-plus")


def _angle_halves(norm, d):
    """Two batches of (n, d) angles: a 9^d refine stencil around a vertex (or
    around 1.0 on a smooth norm) and a coarse-scan-like mix of seeded random
    angles and exact vertex angles, where support ties occur."""
    special = np.mod(norm.special_angles(), 2.0 * math.pi)
    axis = (special[0] if special.size else 1.0) + np.linspace(-0.5, 0.5, 9) * 1e-3
    stencil = np.stack([m.ravel() for m in np.meshgrid(*([axis] * d), indexing="ij")], axis=-1)
    mixed = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, (23, d))
    if special.size:
        exact = np.stack([m.ravel() for m in np.meshgrid(*([special] * d), indexing="ij")], axis=-1)
        mixed = np.concatenate([mixed, exact])
    return stencil, mixed


def _objective_of(norm, points):
    """The objective that modulus_batch builds for its points, with a fresh
    chord store on every call."""
    return _objective(norm, points, norm.dual(), 9, lambda requests: ChordScans().chords(norm, 64, requests))


@pytest.mark.parametrize("token", ALL_TOKENS)
def test_objectives_are_row_independent(token):
    kind = K(token)
    for norm in ROW_NORMS:
        A, B = _angle_halves(norm, 2 if kind.name in TWO_ANGLE else 1)
        solo = lambda P, point=(kind, 0.6): _objective_of(norm, [point])([P])[0]  # noqa: E731
        assert np.array_equal(solo(np.concatenate([A, B])), np.concatenate([solo(A), solo(B)])), norm
        for P in (A, B):
            batch = solo(P)
            assert all(solo(P[i : i + 1])[0] == batch[i] for i in range(len(P))), norm
        # a multi-point batch, split into its per-point slices as the lockstep
        # engine and the witness pass split it: each point gets the values it
        # gets alone, rho and milman among single-angle points included
        A1, B1 = _angle_halves(norm, 1)
        points = [(kind, 0.6), (kind, 0.3), *((K(t), 0.45) for t in ("delta", "zeta-plus", "d-minus", "lambda-minus"))]
        arrays = [A, B, np.concatenate([B, A]), B1, A1, A1]
        together = _objective_of(norm, points)(arrays)
        for point, P, values in zip(points, arrays, together):
            assert np.array_equal(values, solo(P, point)), (norm, point)


# -- points of one norm solved as one batch ----------------------------------------

BATCH_SETTINGS = dict(grid_n=96, refine_rounds=3, cone_samples=9, grid_n_2d=64)


def _same_outcome(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


@pytest.mark.parametrize("norm", ROW_NORMS, ids=("lp3", "hexagon", "random-polygon"))
def test_modulus_batch_equals_solo_modulus(norm):
    points = [(K(t), eps) for eps in (0.3, 1.6) for t in ALL_TOKENS]
    solo = []
    for kind, eps in points:
        try:
            solo.append(modulus(norm, kind, eps, **BATCH_SETTINGS))
        except DomainError as exc:  # lambda kinds end at eps = 1
            solo.append(exc)
    assert sum(isinstance(s, DomainError) for s in solo) == 2
    for order in (list(range(len(points))), [*range(1, len(points), 2), *range(0, len(points), 2)][::-1]):
        batch = modulus_batch(norm, [points[i] for i in order], **BATCH_SETTINGS)
        for i, got in zip(order, batch):
            assert _same_outcome(got, solo[i]), points[i]


def test_modulus_batch_returns_each_points_own_error():
    points = [(K("delta"), 0.5), (K("delta"), 2.5), (K("lambda-plus"), 1.2), (K("rho"), 0.5), (K("zeta-minus"), float("nan"))]
    batch = modulus_batch(HEXAGON, points, **BATCH_SETTINGS)
    for (kind, eps), got in zip(points, batch):
        try:
            want = modulus(HEXAGON, kind, eps, **BATCH_SETTINGS)
        except DomainError as exc:
            want = exc
        assert _same_outcome(got, want), (kind, eps)
    assert [type(b).__name__ for b in batch] == ["CurveSample", "DomainError", "DomainError", "CurveSample", "DomainError"]
    assert modulus_batch(HEXAGON, [], **BATCH_SETTINGS) == []


def test_modulus_curve_is_one_batch(monkeypatch):
    calls = []
    real = moduli._solve

    def counted(norm, points, *args):
        calls.append(len(points))
        return real(norm, points, *args)

    monkeypatch.setattr(moduli, "_solve", counted)
    curve = modulus_curve(LP3, K("gamma-plus"), [0.3, 0.6, 0.9], **BATCH_SETTINGS)
    assert calls == [3]
    calls.clear()
    want = [modulus(LP3, K("gamma-plus"), e, **BATCH_SETTINGS) for e in (0.3, 0.6, 0.9)]
    assert curve.samples == want and calls == [1, 1, 1]


# -- the chord solver against the bisection it replaced -----------------------------


def _band(norm, eps):
    """The solver's band around eps: 1e-11 max(1, eps) on a polygonal norm,
    whose level sets may be flat arcs, and none on a strictly convex one."""
    return 1e-11 * np.maximum(1.0, eps) if norm._polygon() is not None else 0.0


def _bisect_chords(norm, thetas, targets, eps, sides, is_far):
    """Reference: CHORD_ITERATIONS halvings of [0, pi] on every row, with the
    same band and the same near/far membership test as the solver."""
    lo = np.zeros_like(thetas)
    hi = np.full_like(thetas, np.pi)
    band = _band(norm, eps)
    for _ in range(moduli.CHORD_ITERATIONS):
        mid = 0.5 * (lo + hi)
        c = np.asarray(norm(norm.sphere_point(thetas + sides * mid) - targets))
        move_hi = np.where(is_far, c > eps + band, c >= eps - band)
        hi = np.where(move_hi, mid, hi)
        lo = np.where(move_hi, lo, mid)
    return np.where(is_far, lo, hi)


def _branch_rows(norm, thetas, eps):
    """The rows _chord_scans solves: every angle on each of the norm's chord
    branches (four on a polygonal norm, two on a strictly convex one)."""
    branches = moduli._chord_branches(norm)
    b = len(branches)
    sides = np.repeat([s for s, _ in branches], len(thetas))
    is_far = np.repeat([e == "far" for _, e in branches], len(thetas))
    X = norm.sphere_point(thetas)
    return np.tile(thetas, b), np.tile(X, (b, 1)), np.full(b * len(thetas), eps), sides, is_far


def _chord_length(norm, rows, u):
    thetas, targets, _, sides, _ = rows
    return np.asarray(norm(norm.sphere_point(thetas + sides * u) - targets))


def _check_against_bisection(norm, rows, u):
    """u keeps the bisection's bracket semantics and lands where bisection
    does: within one final bracket width, or, where the chord length is too
    flat in u for that (near the diameter), at a chord residual no larger
    than the bisection's, up to the rounding of the chord length itself.
    Rows without a crossing in (0, pi) get the bisection's end exactly.
    Returns the mask of those rows. As in the solver, c(pi) is 2, not its
    evaluation, which can round to 2 - 1 ulp where no band absorbs it."""
    eps, is_far = rows[2], rows[4]
    ref = _bisect_chords(norm, *rows)
    band = _band(norm, eps)
    thr = np.where(is_far, eps + band, eps - band)
    length = lambda u: np.where(u == np.pi, 2.0, _chord_length(norm, rows, u))  # noqa: E731
    c, c_ref = length(u), length(ref)
    past = lambda c: np.where(is_far, c > thr, c >= thr)  # noqa: E731
    edge = past(np.zeros_like(u)) | ~past(np.full_like(u, 2.0))
    assert np.array_equal(u[edge], ref[edge])
    assert np.all(np.where(is_far, ~past(c), past(c)) | edge)
    close = np.abs(u - ref) <= math.ldexp(math.pi, -45)
    assert np.all(close | (np.abs(c - eps) <= np.abs(c_ref - eps) + 4 * np.spacing(eps)))
    return edge


RANDOM_POLYGONS = _sample_family("random-polygons", 50, np.random.default_rng(2020))[0]
WEIGHTED_CHORD_NORMS = (weighted_lp_norm(2.5, 1.3, 0.7), weighted_lp_norm(1, 1.3, 0.7), weighted_lp_norm("inf", 1.3, 0.7))
CHORD_NORMS = (*standard_norms(), *WEIGHTED_CHORD_NORMS, *(norm for _, norm in RANDOM_POLYGONS))
CHORD_IDS = (
    *("euclidean", "lp1", "lp1.5", "lp3", "lp-inf", "hexagon", "octagon", "weighted", "weighted-lp1", "weighted-lp-inf"),
    *(label for label, _ in RANDOM_POLYGONS),
)


@pytest.mark.parametrize("norm", CHORD_NORMS, ids=CHORD_IDS)
def test_chord_solver_matches_bisection(norm, monkeypatch):
    thetas = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False) + 0.01, norm.special_angles()])
    calls = []
    call = Norm.__call__

    def counted(self, v):
        calls.append(len(v))
        return call(self, v)

    for eps in (1e-6, 0.3, 0.7, 1.9, 1.999998, 2.0):
        rows = _branch_rows(norm, thetas, eps)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(Norm, "__call__", counted)
            u = moduli._chord_offsets_rows(norm, *rows)
        _check_against_bisection(norm, rows, u)
        # a row's steps depend on that row alone, also when it is solved alone
        for i in range(0, len(u), 23):
            assert moduli._chord_offsets_rows(norm, *(a[i : i + 1] for a in rows))[0] == u[i], (eps, i)
        # c(pi) = 2 is not evaluated; each call evaluates the rows still open
        assert len(calls) <= moduli.CHORD_ITERATIONS + 1, eps
        if norm.kind == "euclidean" and eps == 0.3:
            assert sum(calls) / len(u) <= 12
        # a polygonal norm solves its chords in closed form: the check of the
        # solved offsets and the rare polish step, not the ITP loop
        if norm._polygon() is not None:
            assert sum(calls) / len(u) <= 1.5, eps


@pytest.mark.parametrize("norm", (SQUARE, HEXAGON), ids=("lp-inf", "hexagon"))
def test_chord_solver_at_the_domain_edges(norm):
    # eps = 0: no near row has a crossing; eps = 2: no far row has one;
    # eps = 2 + 5e-10, just past the diameter: no row reaches the near
    # threshold. None may divide by zero or otherwise warn.
    thetas = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False) + 0.01, norm.special_angles()])
    for eps, no_crossing in ((0.0, "near"), (2.0, "far"), (2.0 + 5e-10, "near")):
        rows = _branch_rows(norm, thetas, eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = moduli._chord_offsets_rows(norm, *rows)
        edge = _check_against_bisection(norm, rows, u)
        assert np.all(edge[rows[4] == (no_crossing == "far")]), eps


@pytest.mark.parametrize(
    "norm,theta,eps,near,far",
    [
        # from (1, 0), the chords of length 1 end on the flat stretch from the
        # corner (1, 1) to (0, 1), and mirrored on the other side
        (SQUARE, 0.0, 1.0, math.pi / 4, math.pi / 2),
        # a facet-length chord of the hexagon spans a sixth of a turn, from a
        # vertex, a facet midpoint and a generic point alike
        (HEXAGON, 0.0, 1.0, math.pi / 3, math.pi / 3),
        (HEXAGON, math.pi / 6, 1.0, math.pi / 3, math.pi / 3),
        (HEXAGON, 0.2, 1.0, math.pi / 3, math.pi / 3),
    ],
)
def test_chord_near_and_far_ends(norm, theta, eps, near, far):
    rows = _branch_rows(norm, np.array([theta]), eps)
    u = moduli._chord_offsets_rows(norm, *rows)
    # the 1e-11 band moves each end by about 1e-11 in u, outward from the
    # level set: the near end comes earlier, the far end later
    want = np.array([near, far, near, far])
    assert np.all(np.abs(u - want) <= 2e-11), u - want
    assert np.all(np.where(rows[4], u >= want, u <= want))


# -- chords on strictly convex norms ------------------------------------------------
# their level set on each arc side is one point, solved at eps itself: the
# witness chords have length eps, not eps shifted by a band

SMOOTH_CHORD_NORMS = (EUCLID, lp_norm(1.01), LP3, lp_norm(100), weighted_lp_norm(3, 1.3, 0.7))
SMOOTH_CHORD_EPS = (1e-6, 0.3, 1.2, 1.999998, 2.0)


@pytest.mark.parametrize("norm", SMOOTH_CHORD_NORMS, ids=("euclidean", "lp1.01", "lp3", "lp100", "weighted-lp3"))
def test_smooth_witness_chords_have_length_eps(norm):
    points = [(K(token), eps) for token in CHORD_TOKENS for eps in SMOOTH_CHORD_EPS]
    for (kind, eps), sample in zip(points, modulus_batch(norm, points, **FAST)):
        w = sample.witness
        x, z = (w["x"], w["z"]) if "z" in w else (w["x1"], w["x2"])
        length = norm(np.subtract(x, z))
        assert abs(length - eps) <= 1e-12 * max(1.0, eps), (kind.token(), eps, length - eps)


@pytest.mark.parametrize("norm", (*SMOOTH_CHORD_NORMS, lp_norm(20)), ids=("euclidean", "lp1.01", "lp3", "lp100", "weighted-lp3", "lp20"))
def test_smooth_chords_of_length_two_end_at_the_antipode(norm):
    # a strictly convex sphere meets ||x - z|| = 2 only at z = -x, so delta(2)
    # is 1; nearly flat spheres such as l_20's round c(u) to 2 well before it
    sample = modulus(norm, K("delta"), 2.0, **FAST)
    assert sample.value >= 1.0 - 1e-14
    assert np.allclose(sample.witness["z"], np.negative(sample.witness["x"]), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("eps", [1.9, 1.999998])
def test_euclidean_closed_forms_near_the_diameter(eps):
    # at the compute defaults; delta and banas have slope 1/sqrt(8e-6) ~ 354 in
    # eps at 1.999998, so a chord 2e-11 too short would miss by 7e-9
    tokens = [token for token in ALL_TOKENS if kind_domain(K(token))[1] >= eps]
    for token, sample in zip(tokens, modulus_batch(EUCLID, [(K(token), eps) for token in tokens])):
        assert abs(sample.value - hilbert_reference(K(token), eps)) <= 1e-12, token


def test_lp100_phi_plus_grows_quadratically():
    # the chords at eps 1e-6 are 1e-6 long, not the underflowed 5.8e-4 of a
    # gauge that raises the coordinates to the power 100 before its root
    small, double = (modulus(lp_norm(100), K("phi-plus"), eps, **FAST).value for eps in (1e-6, 2e-6))
    assert double / small == pytest.approx(4.0, rel=0.01)


# -- d-minus over the support segments of polygonal norms ---------------------------

D_MINUS_POLYGONS = _sample_family("random-polygons", 10, np.random.default_rng(31))[0]
D_MINUS_NORMS = (lp_norm(1), SQUARE, HEXAGON, regular_polygon_norm(8), *(norm for _, norm in D_MINUS_POLYGONS))
D_MINUS_IDS = ("lp1", "lp-inf", "hexagon", "octagon", *(label for label, _ in D_MINUS_POLYGONS))


@pytest.mark.parametrize("norm", D_MINUS_NORMS, ids=D_MINUS_IDS)
def test_d_minus_is_the_minimum_over_the_segments(norm):
    # support segments at polygon vertices join two adjacent facet functionals
    F = norm._polygon()._functionals
    n = len(F)
    dual = norm.dual()
    j1, j2 = np.random.default_rng(5).integers(0, n, (2, 300))
    pm1, pp1, pm2, pp2 = F[j1], F[(j1 + 1) % n], F[j2], F[(j2 + 1) % n]
    v, s, t = moduli._d_minus_over_segments(dual, pm1, pp1, pm2, pp2)
    # the returned (s, t) replays to the returned value
    assert np.array_equal(np.asarray(dual((pm1 + s[:, None] * (pp1 - pm1)) - (pm2 + t[:, None] * (pp2 - pm2)))), v)
    assert np.all((0.0 <= s) & (s <= 1.0) & (0.0 <= t) & (t <= 1.0))
    # against the least value on a 257 x 257 grid of (s, t), once per distinct
    # segment pair, with the dual gauge as the max of its facet functionals
    G = dual._polygon()._functionals
    grid = np.linspace(0.0, 1.0, 257)
    for a, b in set(zip(j1.tolist(), j2.tolist())):
        i = np.flatnonzero((j1 == a) & (j2 == b))
        c0, c1, c2 = (G @ w[i[0]] for w in (pm1 - pm2, pp1 - pm1, pp2 - pm2))
        on_grid = np.max(c0[:, None, None] + c1[:, None, None] * grid[:, None] - c2[:, None, None] * grid, axis=0)
        assert np.all(v[i] <= np.min(on_grid) + 1e-15), (a, b)


def test_d_minus_is_zero_where_corner_segments_share_a_functional():
    # on l_inf at eps 2, x1 = (1, 1) and x2 = (1, -1): J(x1) runs from (1, 0)
    # to (0, 1), J(x2) from (0, -1) to (1, 0), so p1 = p2 = (1, 0) is a pair
    v, s, t = moduli._d_minus_over_segments(SQUARE.dual(), *np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, -1.0]], [[1.0, 0.0]]]))
    assert (v[0], s[0], t[0]) == (0.0, 0.0, 1.0)
    assert modulus(SQUARE, K("d-minus"), 2.0, **FAST).value == 0.0


def test_d_minus_segments_need_a_polygonal_dual():
    segment = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    with pytest.raises(UnsupportedNormError):
        moduli._d_minus_over_segments(EUCLID, *segment, *segment)


# -- coarse chord scans shared across the chord kinds of one run -----------------

CHORD_TOKENS = ("delta", "banas", "delta-t:0.3", "beta-t:0.7", "phi-minus", "phi-plus", "gamma-minus", "gamma-plus", "d-minus", "d-plus")
SCAN_SETTINGS = SuiteSettings(grid_n=96, refine_rounds=3, cone_samples=9, grid_n_2d=64)


def _coarse_rows(norm):
    # the half-turn grid, with the spacing of grid_n points per full turn and
    # at least 64 points
    return max(64, -(-SCAN_SETTINGS.grid_n // 2))


@pytest.mark.parametrize("norm", ROW_NORMS, ids=("lp3", "hexagon", "random-polygon"))
def test_shared_chord_scans_match_fresh_points(norm):
    cache = ModulusCache(SCAN_SETTINGS)
    for eps in (0.7, 1.6):
        for token in CHORD_TOKENS:
            shared = cache.sample(norm, K(token), eps)
            assert shared == modulus(norm, K(token), eps, **SCAN_SETTINGS.modulus_kwargs()), (token, eps)
    # the engine's coarse scans are kept, one per eps; the chord kinds of a
    # polygonal norm are enumerated, not searched, and keep none
    assert len(cache.chord_scans) == (0 if norm._polygon() is not None else 2)


def _scan_rows(norm, eps):
    # the rows of one chord scan: the kept coarse grid, or on a polygonal
    # norm the breakpoint angles of eps, which are enumerated and not kept
    if norm._polygon() is None:
        return _coarse_rows(norm)
    (angles,) = moduli._breakpoint_angles(norm, norm._polygon(), [eps])
    return len(angles)


@pytest.mark.parametrize("norm", ROW_NORMS, ids=("lp3", "hexagon", "random-polygon"))
def test_chord_kinds_bisect_the_coarse_grid_once(norm, monkeypatch):
    eps = 0.9
    rows = []
    bisect = moduli._chord_offsets_rows

    def counted(norm, thetas, *args):
        rows.append(len(thetas))
        return bisect(norm, thetas, *args)

    kept = norm._polygon() is None
    scan_rows = len(moduli._chord_branches(norm)) * _scan_rows(norm, eps)
    monkeypatch.setattr(moduli, "_chord_offsets_rows", counted)
    # one kind at a time, and all ten kinds as one batch: a kept scan is
    # bisected once across both, a polygon's breakpoints once per batch
    for fill, batches in (
        (lambda cache: [cache.sample(norm, K(token), eps) for token in CHORD_TOKENS], len(CHORD_TOKENS)),
        (lambda cache: cache.sample_many(norm, [(K(token), eps) for token in CHORD_TOKENS]), 1),
    ):
        rows.clear()
        fill(ModulusCache(SCAN_SETTINGS))
        assert rows.count(scan_rows) == (1 if kept else batches)
    rows.clear()
    for token in CHORD_TOKENS:
        modulus(norm, K(token), eps, **SCAN_SETTINGS.modulus_kwargs())
    assert rows.count(scan_rows) == len(CHORD_TOKENS)


@pytest.mark.parametrize("norm", ROW_NORMS, ids=("lp3", "hexagon", "random-polygon"))
def test_kept_scans_compute_their_supports_once(norm, monkeypatch):
    eps = 0.9
    rows = []
    cls = type(norm)
    support = cls._support_batch

    def counted(self, X):
        rows.append(len(X))
        return support(self, X)

    monkeypatch.setattr(cls, "_support_batch", counted)
    cache = ModulusCache(SCAN_SETTINGS)
    if norm._polygon() is None:
        # a kept scan serves the ten kinds asked one at a time
        for token in CHORD_TOKENS:
            cache.sample(norm, K(token), eps)
    else:
        # a polygon's breakpoint scan is not kept; it serves one batch
        cache.sample_many(norm, [(K(token), eps) for token in CHORD_TOKENS])
    # X and the partner array of each branch, once each, across the ten kinds
    assert rows.count(_scan_rows(norm, eps)) == 1 + len(moduli._chord_branches(norm))


def test_chord_scans_are_read_only_and_keyed_on_exact_eps():
    scans = ChordScans()
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    (scan,) = scans.chords(HEXAGON, 64, [(0.7, thetas)])
    (again,) = scans.chords(HEXAGON, 64, [(0.7, thetas.copy())])
    assert again is scan
    supports = [*scan.x_support(), *(a for pair in scan.z_supports() for a in pair)]
    assert scan.x_support() is scan.x_support() and scan.z_supports() is scan.z_supports()
    for arr in (scan.thetas, scan.X, *scan.Zs, *supports):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0.0
    # a different theta array is bisected afresh and not kept
    (other,) = scans.chords(HEXAGON, 64, [(0.7, thetas[:10])])
    assert other is not scan and other.X.flags.writeable and len(scans) == 1
    # eps equal to 12 digits but not exactly is a different scan
    scans.chords(HEXAGON, 64, [(0.7 + 1e-13, thetas)])
    assert len(scans) == 2
    # identical requests in one call share one scan
    a, b = scans.chords(HEXAGON, 64, [(0.5, thetas), (0.5, thetas.copy())])
    assert a is b and len(scans) == 3


def test_polygon_chord_chunks_keep_the_bits(monkeypatch):
    # the closed-form polygon chords are solved in chunks of rows; each row
    # depends on itself alone, so any chunking gives the same samples
    points = [(K(token), eps) for token in CHORD_TOKENS for eps in (0.7, 1.6)]
    whole = modulus_batch(ROW_NORMS[2], points, **BATCH_SETTINGS)
    monkeypatch.setattr(moduli, "_POLYGON_CHUNK", 7)
    assert modulus_batch(ROW_NORMS[2], points, **BATCH_SETTINGS) == whole


# -- chord kinds on polygonal norms, enumerated at their breakpoints ---------------

PROBE_EPS = (1e-6, 0.3, 1.5, 1.999998, 2.0)


@pytest.mark.parametrize("norm", ROW_NORMS[1:], ids=("hexagon", "random-polygon"))
def test_polygon_chord_kinds_solve_once_per_batch(norm, monkeypatch):
    # no engine search: per batch, one chord solve finds the vertices'
    # partners at every eps, one solves the chords at every breakpoint angle,
    # one at the midpoint angles of banas and beta-t, and one the witnesses;
    # each breakpoint scan's supports are computed once for all ten kinds
    eps_values = (0.9, 1.6)
    rows, support_rows = [], []
    chord, cls = moduli._chord_offsets_rows, type(norm)
    support = cls._support_batch

    def counted_chord(norm, thetas, *args):
        rows.append(len(thetas))
        return chord(norm, thetas, *args)

    def counted_support(self, X):
        support_rows.append(len(X))
        return support(self, X)

    def no_search(*args, **kwargs):
        raise AssertionError("a polygon chord kind reached the engine")

    breakpoints = moduli._breakpoint_angles(norm, norm._polygon(), eps_values)
    monkeypatch.setattr(moduli, "_chord_offsets_rows", counted_chord)
    monkeypatch.setattr(cls, "_support_batch", counted_support)
    monkeypatch.setattr(moduli, "extremize", no_search)
    monkeypatch.setattr(moduli, "extremize_batch", no_search)
    points = [(K(token), eps) for token in CHORD_TOKENS for eps in eps_values]
    samples = modulus_batch(norm, points, **BATCH_SETTINGS)
    assert all(isinstance(s, CurveSample) and s.refine_tol == moduli._POLYGON_TOL for s in samples)
    branches = len(moduli._chord_branches(norm))
    assert len(rows) == 4
    assert rows[0] == branches * len(moduli._half_turn_vertices(norm)) * len(eps_values)
    assert rows[1] == branches * sum(len(b) for b in breakpoints)
    assert rows[3] == branches * len(points)
    # x and each branch's partners, per eps; the witnesses' are one-row scans
    want = Counter()
    for angles in breakpoints:
        want[len(angles)] += 1 + branches
    assert Counter(n for n in support_rows if n > 1) == want
    # a lone point takes the same path and gets the same sample
    assert modulus(norm, *points[0], **BATCH_SETTINGS) == samples[0]


@pytest.mark.parametrize("norm", (SQUARE, HEXAGON, *ROW_NORMS[2:]), ids=("lp-inf", "hexagon", "random-polygon"))
def test_polygon_breakpoints_hold_the_vertex_angles(norm):
    # sorted angles in [0, pi) that hold every vertex angle mod pi, at every eps
    vertices = moduli._half_turn_vertices(norm)
    for eps, angles in zip(PROBE_EPS, moduli._breakpoint_angles(norm, norm._polygon(), PROBE_EPS)):
        assert np.all(np.diff(angles) > 0.0) and angles[0] >= 0.0 and angles[-1] < math.pi
        assert np.all(np.isin(vertices, angles)), eps


def test_chord_direction_angles_on_the_square():
    # on the max-norm square the chords x - z = eps (1, 1) and eps (-1, 1)
    # start at (1, eps - 1), (eps - 1, 1), (1 - eps, 1) and (-1, eps - 1)
    polygon = SQUARE._polygon()
    for eps in (0.3, 1.5):
        got = moduli._chord_direction_angles(polygon, eps)
        starts = np.array([(1.0, eps - 1.0), (eps - 1.0, 1.0), (1.0 - eps, 1.0), (-1.0, eps - 1.0)])
        want = np.mod(np.arctan2(starts[:, 1], starts[:, 0]), math.pi)
        assert np.allclose(np.sort(np.unique(np.round(got, 12))), np.sort(want), atol=1e-12), eps


ENUMERATED_NORMS = (
    HEXAGON,
    regular_polygon_norm(8),
    lp_norm(1),
    SQUARE,
    weighted_lp_norm(1, 3, 0.5),
    *(norm for _, norm in _sample_family("random-polygons", 6, np.random.default_rng(18))[0]),
)


@pytest.mark.parametrize("norm", ENUMERATED_NORMS, ids=("hexagon", "octagon", "lp1", "lp-inf", "weighted-lp1", *(f"random-{i}" for i in range(6))))
def test_enumerated_chord_moduli_bound_a_fine_engine_search(norm):
    # every value an engine search returns is attained by some configuration,
    # so the enumerated inf is at most a fine search's value, and the
    # enumerated sup at least it, up to the stated rounding bound; the search
    # has the vertex angles and their chord partners injected; every witness
    # replays to its sample value bit for bit
    points = [(K(token), eps) for token in CHORD_TOKENS for eps in PROBE_EPS]
    samples = modulus_batch(norm, points, **SuiteSettings().modulus_kwargs())
    vertices = moduli._half_turn_vertices(norm)
    partners = moduli._partner_angles(norm, vertices, list(PROBE_EPS))
    extra = dict(zip(PROBE_EPS, partners))
    problems = [Problem([(0.0, math.pi)], "sup" if kind.is_sup() else "inf", np.concatenate([vertices, extra[eps]])[:, None]) for kind, eps in points]
    objective = _objective(norm, points, norm.dual(), 9, lambda requests: moduli._chord_scans(norm, requests))
    searched = extremize_batch(objective, problems, grid_n=2048, refine_rounds=8)
    off = []
    for (kind, eps), s, res in zip(points, samples, searched):
        assert reevaluate_witness(norm, kind, eps, s.witness) == s.value, (kind.token(), eps)
        gap = res.value - s.value if kind.is_sup() else s.value - res.value
        if gap > s.refine_tol:
            off.append((kind.token(), eps, s.value, res.value))
    assert off == []


# norms whose sharp vertices round the evaluated chord to the antipode below 2
SHARP_NORMS = (
    weighted_lp_norm(1, 1e4, 1e-4),
    weighted_lp_norm("inf", 1e4, 1e-4),
    weighted_lp_norm(1.5, 1e6, 1e-6),
    polygon_norm([[1e5, 1e-5], [-1e5, 1e-5], [-1e5, -1e-5], [1e5, -1e-5]]),
)


@pytest.mark.parametrize("norm", SHARP_NORMS, ids=("weighted-lp1", "weighted-lp-inf", "weighted-lp1.5", "thin-rectangle"))
def test_every_chord_kind_has_a_value_at_the_diameter(norm):
    # the chord to the antipode has length exactly 2, so eps = 2 has a chord
    # from every sphere point, however c(pi) rounds when evaluated
    batch = modulus_batch(norm, [(K(token), 2.0) for token in CHORD_TOKENS], **BATCH_SETTINGS)
    for token, sample in zip(CHORD_TOKENS, batch):
        assert isinstance(sample, CurveSample), (token, sample)
        assert math.isfinite(sample.value) and sample.witness["value"] == sample.value, token
    assert modulus(norm, K("delta"), 2.0, **BATCH_SETTINGS) == batch[0]
    scans = ChordScans()
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    (scan,) = scans.chords(norm, 64, [(2.0, thetas)])
    assert len(scans) == 1 and scans.chords(norm, 64, [(2.0, thetas.copy())])[0] is scan
    assert scans.chords(norm, 64, []) == []


# -- the half-turn search ----------------------------------------------------------


def test_grid_below_the_floor_is_rejected():
    # a half turn gets max(64, ceil(grid_n / 2)) points, which would accept
    # grid_n = 63 silently: the API and the CLI still reject it, and so they
    # do a negative cone_samples, whatever the kinds and eps asked for
    from planemoduli.cli import main

    message = "grid_n must be at least 64 per dimension"
    with pytest.raises(InputError, match=message):
        modulus(HEXAGON, K("delta"), 0.5, grid_n=63)
    with pytest.raises(InputError, match=message):
        modulus(HEXAGON, K("rho"), 0.5, grid_n_2d=63)
    with pytest.raises(InputError, match=message):
        modulus_batch(HEXAGON, [(K("delta"), 0.5), (K("phi-plus"), 0.5)], grid_n=63)
    with pytest.raises(InputError, match=message):
        modulus_batch(HEXAGON, [(K("rho"), 0.5), (K("milman-minus"), 0.5)], grid_n_2d=63)
    assert main(["compute", "--norm", "hexagon", "--modulus", "delta", "--eps", "0.5", "--grid-n", "63"]) == 2
    # settings that the points asked for never read
    with pytest.raises(InputError, match=message):
        modulus(HEXAGON, K("rho"), 0.5, grid_n=63)
    with pytest.raises(InputError, match=message):
        modulus(HEXAGON, K("delta"), 0.5, grid_n_2d=63)
    with pytest.raises(InputError, match=message):
        modulus(HEXAGON, K("delta"), 0.0, grid_n=63)
    with pytest.raises(InputError, match=message):
        modulus_batch(HEXAGON, [(K("delta"), 0.0), (K("rho"), 0.0)], grid_n=63)
    assert main(["compute", "--norm", "hexagon", "--modulus", "rho", "--eps", "0.5", "--grid-n", "63"]) == 2
    # cone_samples below 0, which sampled one end of a vertex cone at -1
    for bad in (-1, -2, -3):
        with pytest.raises(InputError, match="cone_samples must be at least 0"):
            modulus(HEXAGON, K("lambda-plus"), 0.5, cone_samples=bad)
        argv = ["compute", "--norm", "hexagon", "--modulus", "zeta-plus", "--eps", "0.5", "--cone-samples", str(bad)]
        assert main(argv) == 2


def test_refine_rounds_is_checked_up_front():
    # the engine checks refine_rounds, but points that never reach it (eps 0,
    # and the chord kinds of a polygonal norm) are checked all the same
    from planemoduli.cli import main

    message = "refine_rounds must be an integer >= 1"
    for bad in (0, -1, True, 1.5):
        for kind, eps in ((K("delta"), 0.0), (K("delta"), 0.5), (K("phi-plus"), 0.5), (K("rho"), 0.0)):
            with pytest.raises(InputError, match=message):
                modulus(HEXAGON, kind, eps, refine_rounds=bad)
        with pytest.raises(InputError, match=message):
            modulus_batch(LP3, [(K("delta"), 0.0), (K("zeta-plus"), 0.0)], refine_rounds=bad)
    for eps in ("0", "0.5"):
        assert main(["compute", "--norm", "hexagon", "--modulus", "delta", "--eps", eps, "--refine-rounds", "0"]) == 2


def test_kept_chord_scan_is_the_first_half_of_the_full_turn_grid():
    # the half turn keeps the full turn's spacing, not its point count: its
    # cell centres are the first grid_n / 2 of the full turn's, bit for bit
    settings = SuiteSettings()
    scans = ChordScans()
    modulus(LP3, K("phi-plus"), 0.7, **settings.modulus_kwargs(), chord_scans=scans)
    (scan,) = scans._scans.values()
    half = settings.grid_n // 2
    grid = (np.arange(half) + 0.5) * (2.0 * math.pi / settings.grid_n)
    assert scan.thetas.tobytes() == grid.tobytes()


def test_two_angle_witnesses_replay_their_sample_values():
    # the rho and milman witnesses record the configuration the objective
    # valued, so that replaying them gives the sample value bit for bit
    settings = SuiteSettings()
    points = [(K(token), eps) for token in ("rho", "milman-minus", "milman-plus") for eps in (0.3, 0.9, 1.5)]
    off = []
    for norm in standard_norms():
        for (kind, eps), s in zip(points, modulus_batch(norm, points, **settings.modulus_kwargs())):
            assert 0.0 <= s.witness["theta_x"] <= math.pi and 0.0 <= s.witness["theta_y"] <= math.pi
            if reevaluate_witness(norm, kind, eps, s.witness) != s.value:
                off.append((norm_label(norm), kind.token(), eps))
    assert off == []


@pytest.mark.parametrize("token", ("rho", "milman-minus", "milman-plus"))
def test_two_angle_witness_is_built_as_the_objective_builds_rows(token, monkeypatch):
    # a sphere point can have other last bits at a scalar angle than at the
    # same angle in an array; the search is pointed at such angles, and its
    # witness must still replay to the value the objective gave them
    norm = lp_norm(1.5)
    off = [t for t in np.linspace(0.1, 3.0, 400) if not np.array_equal(norm.sphere_point(t), norm.sphere_point(np.array([t]))[0])]
    assert len(off) >= 2
    search = moduli.extremize

    def pointed(objective, *args, **kwargs):
        res = search(objective, *args, **kwargs)
        P = np.array([off[:2]])
        return type(res)(float(objective(P)[0]), P[0], res.tol, res.n_evals)

    monkeypatch.setattr(moduli, "extremize", pointed)
    sample = modulus(norm, K(token), 0.7, grid_n_2d=64, refine_rounds=1)
    assert reevaluate_witness(norm, K(token), 0.7, sample.witness) == sample.value


def test_isometric_weighted_lp_matches_lp_on_milman_minus():
    # a diagonal map takes lp:3 onto its weighted copy, so their moduli agree;
    # over the full turn the kept cells held antipodal copies and missed the
    # extreme on one of them by up to 4.7e-3
    settings = SuiteSettings().modulus_kwargs()
    weighted = weighted_lp_norm(3, 1.3, 0.7)
    for eps in (0.3, 0.9, 1.5):
        a = modulus(LP3, K("milman-minus"), eps, **settings).value
        b = modulus(weighted, K("milman-minus"), eps, **settings).value
        assert abs(a - b) <= 1e-12, (eps, a, b)


# -- witnesses --------------------------------------------------------------------


@pytest.mark.parametrize(
    "norm,token,eps",
    [
        (EUCLID, "phi-plus", 0.8),
        (EUCLID, "rho", 0.7),
        (SQUARE, "gamma-plus", 0.5),
        (SQUARE, "zeta-plus", 0.9),
        (SQUARE, "d-minus", 0.8),
        (LP3, "lambda-plus", 0.6),
        (LP3, "banas", 1.2),
        (LP3, "delta-t:0.3", 1.5),
        (HEXAGON, "lambda-minus", 0.4),
        (HEXAGON, "milman-minus", 0.5),
        (LP3, "delta", 0.9),
        (HEXAGON, "phi-minus", 0.7),
        (HEXAGON, "zeta-minus", 0.6),
        (LP3, "gamma-minus", 1.1),
        (HEXAGON, "d-plus", 0.8),
        (LP3, "milman-plus", 0.6),
        (HEXAGON, "beta-t:0.7", 1.3),
    ],
)
def test_witness_reevaluates_to_value(norm, token, eps):
    kind = K(token)
    sample = modulus(norm, kind, eps, **FAST)
    again = reevaluate_witness(norm, kind, eps, sample.witness)
    tol = max(2.0 * sample.refine_tol, 1e-8)
    assert again == pytest.approx(sample.value, abs=tol)
    assert sample.witness["value"] == pytest.approx(sample.value, abs=1e-9)


WITNESS_NORMS = {
    "lp3": LP3,
    "euclidean": EUCLID,
    "weighted-lp": weighted_lp_norm(2.5, 1.3, 0.7),
    "hexagon": HEXAGON,
    "random-polygon": ROW_NORMS[2],
}


@pytest.mark.parametrize("name", WITNESS_NORMS)
def test_witness_value_is_the_sample_value(name):
    # the witness is the extremal configuration of the kind's table, valued by
    # the expression that valued the sample: equal bit for bit
    norm = WITNESS_NORMS[name]
    off = []
    for token in ALL_TOKENS:
        sample = modulus(norm, K(token), 0.6, grid_n=128, refine_rounds=3, cone_samples=9, grid_n_2d=64)
        got = sample.witness["value"]
        if got != sample.value:
            off.append((token, sample.value, got))
    assert off == []


@pytest.mark.parametrize("name", WITNESS_NORMS)
def test_batched_witness_values_are_the_sample_values(name):
    # the witnesses of a batch come from one table pass over all its winners;
    # on a polygon some lambda and zeta winners sit at vertices, where the
    # quasi-normal cone gives the table more than one direction
    norm = WITNESS_NORMS[name]
    points = [(K(token), eps) for token in ALL_TOKENS for eps in (0.3, 0.6, 0.95)]
    samples = modulus_batch(norm, points, grid_n=128, refine_rounds=3, cone_samples=9, grid_n_2d=64)
    assert [(kind.token(), eps) for (kind, eps), s in zip(points, samples) if s.witness["value"] != s.value] == []
    vertices = moduli._half_turn_vertices(norm)
    qn = [s for (kind, _), s in zip(points, samples) if kind.name in moduli._QN_KINDS]
    # theta_x = pi is the vertex angle 0 of the half turn
    at_vertex = [np.mod(s.witness["theta_x"], math.pi) in vertices for s in qn]
    assert any(at_vertex) == (norm._polygon() is not None)


@pytest.mark.parametrize("norm", (HEXAGON, LP3), ids=("hexagon", "lp3"))
def test_batch_witnesses_take_one_table_pass(norm, monkeypatch):
    chord_calls, witness_chord_calls = [], []
    chord, describe = moduli._chord_offsets_rows, moduli._describe_theta

    def counted_chord(*args, **kwargs):
        chord_calls.append(len(args[1]))
        return chord(*args, **kwargs)

    def counted_describe(*args, **kwargs):
        before = len(chord_calls)
        out = describe(*args, **kwargs)
        witness_chord_calls.append(len(chord_calls) - before)
        return out

    monkeypatch.setattr(moduli, "_chord_offsets_rows", counted_chord)
    monkeypatch.setattr(moduli, "_describe_theta", counted_describe)
    chord_tokens = ("delta", "beta-t:0.7", "phi-minus", "gamma-plus", "d-minus")
    qn_tokens = ("lambda-plus", "lambda-minus", "zeta-minus", "zeta-plus")
    points = [(K(token), eps) for token in (*chord_tokens, *qn_tokens) for eps in (0.4, 0.9)]
    samples = modulus_batch(norm, points, **BATCH_SETTINGS)
    # one witness call for the batch, and in it one chord solve for every
    # chord point's winning angle on each chord branch
    assert witness_chord_calls == [1]
    assert chord_calls[-1] == 2 * len(chord_tokens) * len(moduli._chord_branches(norm))
    assert all(isinstance(s, CurveSample) for s in samples)


# -- area additivity ---------------------------------------------------------------


def test_area_additivity_euclidean():
    for eps in (0.25, 1.0):
        res = area_additivity_check(EUCLID, eps, samples=4096)
        assert abs(res.defect) <= 1e-9
        assert res.a3 == pytest.approx((1.0 + eps * eps) * math.pi, rel=1e-4)


def test_area_additivity_lp3():
    res = area_additivity_check(LP3, 0.5, samples=4096)
    assert abs(res.defect) <= 1e-4 * res.a1


def test_area_additivity_rejects():
    with pytest.raises(UnsupportedNormError):
        area_additivity_check(SQUARE, 0.5)
    with pytest.raises(DomainError):
        area_additivity_check(EUCLID, -0.1)
    with pytest.raises(InputError):
        area_additivity_check(EUCLID, 0.5, samples=8)


# -- serialization ------------------------------------------------------------------


def test_csv_round_trip_is_byte_identical():
    curve = modulus_curve(LP3, K("zeta-plus"), [0.3, 0.6, 0.9], grid_n=128, refine_rounds=3)
    text = curve_to_csv(curve)
    assert text.splitlines()[0] == "eps,value,grid_n,refine_tol"
    rows = parse_curve_csv(text)
    assert rows_to_csv(rows) == text
    with_ref = curve_to_csv(curve, with_hilbert=True)
    assert with_ref.splitlines()[0].endswith(",hilbert")
    assert len(with_ref.splitlines()[1].split(",")) == 5


@pytest.mark.parametrize(
    "row",
    ["0.5,a,128,1e-9", "0.5,0.1,1.5,1e-9", "x,0.1,128,1e-9", "0.5,0.1,128,", "0.5,0.1,128"],
)
def test_parse_curve_csv_rejects_malformed_rows(row):
    with pytest.raises(InputError, match="malformed CSV row"):
        parse_curve_csv(f"eps,value,grid_n,refine_tol\n{row}\n")


def test_curve_json_dict_shape():
    curve = modulus_curve(EUCLID, K("delta"), [0.5, 1.0], grid_n=128, refine_rounds=3)
    plain = curve_to_json_dict(curve)
    assert plain["kind"] == "delta"
    assert plain["norm"] == {"kind": "euclidean"}
    assert all(set(r) == {"eps", "value", "grid_n", "refine_tol"} for r in plain["samples"])
    rich = curve_to_json_dict(curve, include_witnesses=True)
    assert all("witness" in r for r in rich["samples"])
    text = canonical_json(rich)
    assert canonical_json(json.loads(text)) == text
