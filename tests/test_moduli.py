"""Modulus curves checked against closed forms and independent constructions."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemoduli import (
    DomainError,
    InfeasibleError,
    InputError,
    ModulusKind,
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
    reevaluate_witness,
    regular_polygon_norm,
    rows_to_csv,
)
from planemoduli import moduli
from planemoduli import modulus_batch
from planemoduli.moduli import KIND_NAMES, ChordScans, _chord_points, _objective_1d, _objective_2d
from planemoduli.verify import ModulusCache, SuiteSettings, _sample_polygon

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
# its own (for batches of two or more rows)


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


def _objective_1(norm, points):
    """The lockstep objective that modulus_batch builds for single-angle
    points, with a fresh chord store on every call."""
    return _objective_1d(norm, points, norm.dual(), 9, lambda requests: ChordScans().chords(norm, 64, requests), {})


@pytest.mark.parametrize("token", ALL_TOKENS)
def test_objectives_are_row_independent(token):
    kind = K(token)
    two_angle = kind.name in TWO_ANGLE
    for norm in ROW_NORMS:
        A, B = _angle_halves(norm, 2 if two_angle else 1)
        if two_angle:
            solo = lambda P, point=(kind, 0.6): _objective_2d(norm, *point)(P)  # noqa: E731
        else:
            solo = lambda P, point=(kind, 0.6): _objective_1(norm, [point])([P])[0]  # noqa: E731
        assert np.array_equal(solo(np.concatenate([A, B])), np.concatenate([solo(A), solo(B)])), norm
        if two_angle:
            continue  # rho and milman points are searched one at a time
        # a multi-point batch, split into its per-point slices as the lockstep
        # engine splits it: each point gets the values it gets alone
        points = [(kind, 0.6), (kind, 0.3), *((K(t), 0.45) for t in ("delta", "zeta-plus", "d-minus", "lambda-minus"))]
        arrays = [A, B, np.concatenate([B, A]), B, A, A]
        together = _objective_1(norm, points)(arrays)
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


# -- coarse chord scans shared across the chord kinds of one run -----------------

CHORD_TOKENS = ("delta", "banas", "delta-t:0.3", "beta-t:0.7", "phi-minus", "phi-plus", "gamma-minus", "gamma-plus", "d-minus", "d-plus")
SCAN_SETTINGS = SuiteSettings(grid_n=96, refine_rounds=3, cone_samples=9, grid_n_2d=64)


def _coarse_rows(norm):
    # the grid, the vertex angles and the two chord-partner angles per vertex
    return SCAN_SETTINGS.grid_n + 3 * len(norm.special_angles())


@pytest.mark.parametrize("norm", ROW_NORMS, ids=("lp3", "hexagon", "random-polygon"))
def test_shared_chord_scans_match_fresh_points(norm):
    cache = ModulusCache(SCAN_SETTINGS)
    for eps in (0.7, 1.6):
        for token in CHORD_TOKENS:
            shared = cache.sample(norm, K(token), eps)
            assert shared == modulus(norm, K(token), eps, **SCAN_SETTINGS.modulus_kwargs()), (token, eps)
    assert len(cache.chord_scans) == 2


@pytest.mark.parametrize("norm", ROW_NORMS, ids=("lp3", "hexagon", "random-polygon"))
def test_chord_kinds_bisect_the_coarse_grid_once(norm, monkeypatch):
    eps = 0.9
    rows = []
    bisect = moduli._chord_offsets_rows

    def counted(norm, thetas, *args):
        rows.append(len(thetas))
        return bisect(norm, thetas, *args)

    monkeypatch.setattr(moduli, "_chord_offsets_rows", counted)
    coarse_rows = len(moduli._CHORD_BRANCHES) * _coarse_rows(norm)
    partner_rows = 2 * len(norm.special_angles())
    # one kind at a time, and all ten kinds as one batch
    for fill in (
        lambda cache: [cache.sample(norm, K(token), eps) for token in CHORD_TOKENS],
        lambda cache: cache.sample_many(norm, [(K(token), eps) for token in CHORD_TOKENS]),
    ):
        rows.clear()
        fill(ModulusCache(SCAN_SETTINGS))
        assert rows.count(coarse_rows) == 1
        # the vertex chord-partner angles are bisected once too
        assert rows.count(partner_rows) == (1 if partner_rows else 0)
    rows.clear()
    for token in CHORD_TOKENS:
        modulus(norm, K(token), eps, **SCAN_SETTINGS.modulus_kwargs())
    assert rows.count(coarse_rows) == len(CHORD_TOKENS)


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
    for token in CHORD_TOKENS:
        cache.sample(norm, K(token), eps)
    # X and the four partner arrays, once each, across the ten kinds
    assert rows.count(_coarse_rows(norm)) == 1 + len(moduli._CHORD_BRANCHES)


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


def test_infeasible_chord_scan_is_not_kept():
    scans = ChordScans()
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    with pytest.raises(InfeasibleError) as alone:
        _chord_points(HEXAGON, thetas, 2.5)
    ok, err = scans.chords(HEXAGON, 64, [(0.7, thetas), (2.5, thetas)])
    assert isinstance(err, InfeasibleError) and str(err) == str(alone.value)
    assert np.array_equal(ok.X, _chord_points(HEXAGON, thetas, 0.7)[0])
    assert len(scans) == 1


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
    ],
)
def test_witness_reevaluates_to_value(norm, token, eps):
    kind = K(token)
    sample = modulus(norm, kind, eps, **FAST)
    again = reevaluate_witness(norm, kind, eps, sample.witness)
    tol = max(2.0 * sample.refine_tol, 1e-8)
    assert again == pytest.approx(sample.value, abs=tol)
    assert sample.witness["value"] == pytest.approx(sample.value, abs=1e-9)


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
