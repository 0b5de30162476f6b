"""Tests for the inequality suite, check registry, and conjecture probes."""

import hashlib
import math

import numpy as np
import pytest

from planemoduli import (
    CheckDef,
    CheckSpec,
    DomainError,
    InputError,
    ModulusCache,
    ModulusKind,
    Relation,
    SuiteSettings,
    Term,
    canonical_json,
    check_ids,
    default_check_ids,
    default_suite,
    euclidean_norm,
    gamma_monotonicity_check,
    lp_norm,
    modulus,
    norm_label,
    probe_conjectures,
    register_check,
    regular_polygon_norm,
    replay_witness,
    resolve_check_ids,
    run_suite,
    standard_norms,
)
from planemoduli import verify
from planemoduli.verify import _eval_relations, _pointwise

EUCLID = euclidean_norm()
SQUARE = lp_norm("inf")

# keeps unit tests quick; the acceptance suite runs the real resolution
LIGHT = SuiteSettings(grid_n=96, refine_rounds=3, cone_samples=9, grid_n_2d=64)


def small_suite(norms, ids, eps_points=5, slack=1e-3):
    return default_suite(norms, slack=slack, eps_points=eps_points, checks=ids)


# -- registry ------------------------------------------------------------------


def test_builtin_checks_registered():
    ids = default_check_ids()
    assert len(ids) == len(set(ids))
    assert "lambda-envelope" in ids
    assert "area-additivity" in ids
    assert set(ids) <= set(check_ids())


def test_resolve_exact_prefix_and_substring():
    assert resolve_check_ids(["lambda-envelope"]) == ["lambda-envelope"]
    assert resolve_check_ids(["gamma-mono"]) == ["gamma-monotone"]
    assert resolve_check_ids(["chord-relaxation"]) == ["phi-plus-chord-relaxation"]


def test_resolve_rejects_unknown_and_ambiguous():
    with pytest.raises(InputError, match="valid ids"):
        resolve_check_ids(["bogus"])
    with pytest.raises(InputError, match="ambiguous"):
        resolve_check_ids(["zeta"])


def test_register_rejects_duplicate_id():
    with pytest.raises(InputError, match="already registered"):
        register_check(CheckDef("lambda-envelope", "inequality", "dup", (0.0, 1.0), relations=lambda g: []))


def test_spec_validation():
    with pytest.raises(InputError):
        CheckSpec("lambda-envelope", "inequality", (EUCLID,), (0.5,), -1.0)
    with pytest.raises(InputError):
        CheckSpec("lambda-envelope", "inequality", (EUCLID,), (), 1e-3)
    for bad in (0, -3, 2.5, True):
        with pytest.raises(InputError, match="eps_points"):
            default_suite([EUCLID], eps_points=bad)


def test_run_suite_rejects_unknown_and_duplicate_ids():
    spec = CheckSpec("no-such-check", "inequality", (EUCLID,), (0.5,), 1e-3)
    with pytest.raises(InputError, match="valid ids"):
        run_suite([spec])
    dup = small_suite([EUCLID], ["lambda-envelope"], eps_points=2)
    with pytest.raises(InputError, match="duplicate"):
        run_suite(dup + dup)


# -- suite behaviour -------------------------------------------------------------


def test_empty_suite_is_an_empty_passing_report():
    rep = run_suite([])
    assert rep.checks == ()
    assert rep.passed()
    assert rep.to_json_dict()["checks"] == []


def test_euclid_day_nordlander_checks_pass_tight():
    ids = ["lambda-day-nordlander", "phi-day-nordlander", "zeta-day-nordlander"]
    rep = run_suite(small_suite([EUCLID], ids, slack=1e-4), settings=LIGHT)
    assert rep.passed()
    assert {c.id for c in rep.checks} == set(ids)
    for c in rep.checks:
        assert c.status == "pass"
        assert c.worst_margin >= -1e-4


def test_square_lambda_envelope_passes_with_zero_lambda_minus():
    rep = run_suite(small_suite([SQUARE], ["lambda-envelope"]), settings=LIGHT)
    (rec,) = rep.checks
    assert rec.status == "pass"
    assert rec.worst_margin >= -1e-6
    lam = modulus(SQUARE, ModulusKind("lambda-minus"), 0.5, grid_n=96, refine_rounds=3, cone_samples=9)
    assert lam.value <= 1e-12


def test_records_are_sorted_and_carry_witnesses():
    ids = ["zeta-envelope", "gamma-plus-envelope"]
    rep = run_suite(small_suite([EUCLID, SQUARE], ids, eps_points=3), settings=LIGHT)
    assert [c.id for c in rep.checks] == sorted(ids)
    for c in rep.checks:
        assert c.status == "pass"
        w = c.witness
        assert w["norm"] in ("euclidean", "lp:inf")
        assert w["relation"]
        assert abs(replay_witness(w) - w["margin"]) <= 1e-9


def test_area_additivity_check_skips_facet_norms():
    rep = run_suite(small_suite([EUCLID, SQUARE], ["area-additivity"]), settings=LIGHT)
    (rec,) = rep.checks
    assert rec.status == "pass"
    assert len(rec.skipped) == 1
    assert rec.skipped[0]["norm"] == "lp:inf"
    assert "smooth" in rec.skipped[0]["reason"]


def test_closed_form_coincidence_skips_non_euclidean_norms():
    rep = run_suite(small_suite([SQUARE], ["euclid-closed-forms"], eps_points=2), settings=LIGHT)
    (rec,) = rep.checks
    assert rec.status == "pass"
    assert rec.worst_margin == math.inf
    assert rec.witness is None
    assert rec.to_json_dict()["worst_margin"] is None
    assert rec.skipped[0]["reason"].startswith("closed forms")


def test_closed_form_coincidence_euclid_smoke():
    rep = run_suite(
        small_suite([EUCLID], ["euclid-closed-forms"], eps_points=2, slack=1e-2),
        settings=LIGHT,
    )
    (rec,) = rep.checks
    assert rec.status == "pass"


def test_failing_check_reproduces_from_witness():
    delta = ModulusKind("delta")

    def impossible(eps):
        return [Relation("1/2 <= delta(eps)", -0.5, (Term(1.0, delta, eps),))]

    register_check(
        CheckDef("test-delta-floor", "inequality", "deliberately false", (0.0, 1.0), relations=_pointwise(impossible))
    )
    spec = CheckSpec("test-delta-floor", "inequality", (EUCLID,), (0.5,), 1e-3)
    rep = run_suite([spec], settings=LIGHT)
    (rec,) = rep.checks
    assert rec.status == "fail"
    assert not rep.passed()
    expected = (1.0 - math.sqrt(1.0 - 0.25 / 4.0)) - 0.5
    assert rec.worst_margin == pytest.approx(expected, abs=1e-4)
    assert abs(replay_witness(rec.witness) - rec.worst_margin) <= 1e-9


def _false_phi_minus_record():
    # phi-minus on lp:1 is 0 at eps = 1.999998, so phi-minus(eps) >= 1 is
    # false by a margin of -1; lp:1 is polygonal, so the value is enumerated
    # and sigma is its rounding bound, far too small to excuse the margin
    if "test-phi-minus-floor" not in check_ids():
        phi = ModulusKind("phi-minus")
        fn = lambda eps: [Relation("1 <= phi-minus(eps)", -1.0, (Term(1.0, phi, eps),))]  # noqa: E731
        register_check(CheckDef("test-phi-minus-floor", "inequality", "deliberately false", (0.0, 2.0), relations=_pointwise(fn)))
    spec = CheckSpec("test-phi-minus-floor", "inequality", (lp_norm(1),), (1.999998,), 1e-3)
    (rec,) = run_suite([spec], settings=SuiteSettings()).checks
    return rec


def test_false_phi_minus_claim_has_margin_minus_one():
    rec = _false_phi_minus_record()
    (term,) = rec.witness["terms"]
    assert term["value"] == pytest.approx(0.0, abs=1e-12)
    assert rec.worst_margin == pytest.approx(-1.0, abs=1e-12)


def test_false_phi_minus_claim_fails():
    assert _false_phi_minus_record().status == "fail"


def test_gamma_monotonicity_margin():
    assert gamma_monotonicity_check(EUCLID, [0.7]) == math.inf
    margin = gamma_monotonicity_check(EUCLID, [0.5, 1.0, 1.5], settings=LIGHT)
    # euclidean gamma curves are eps^2: smallest increment is 1.0^2 - 0.5^2
    assert margin == pytest.approx(0.75, abs=1e-2)
    with pytest.raises(InputError):
        gamma_monotonicity_check(EUCLID, [1.0, 0.5])
    # a grid that leaves the gamma domain [0, 2] raises that eps's error
    with pytest.raises(DomainError, match="eps=2.5 outside"):
        gamma_monotonicity_check(EUCLID, [1.0, 2.5], settings=LIGHT)


def test_report_json_shape():
    rep = run_suite(small_suite([EUCLID], ["zeta-envelope"], eps_points=2), settings=LIGHT, seed=11)
    d = rep.to_json_dict()
    assert set(d) == {"suite", "checks"}
    assert d["suite"] == {"seed": 11, "grid_n": LIGHT.grid_n, "tool_version": rep.tool_version}
    (c,) = d["checks"]
    assert set(c) == {"id", "status", "worst_margin", "witness", "runtime_ms", "skipped"}
    canonical_json(d)  # serializable, no NaN/inf


def test_standard_norm_family_and_labels():
    norms = standard_norms()
    assert len(norms) == 7
    labels = [norm_label(n) for n in norms]
    assert labels == ["euclidean", "lp:1", "lp:1.5", "lp:3", "lp:inf", "polygon-6", "polygon-8"]


# -- conjecture probes -----------------------------------------------------------


def test_probe_rejects_bad_arguments():
    with pytest.raises(InputError, match="family"):
        probe_conjectures("hyperbolic", 3, seed=1)
    with pytest.raises(InputError, match="count"):
        probe_conjectures("random-lp", 0, seed=1)
    with pytest.raises(InputError, match="eps_points"):
        probe_conjectures("random-lp", 1, seed=1, eps_points=0)


def test_probe_euclidean_margins_are_tiny():
    rep = probe_conjectures("euclidean", 1, seed=5, eps_points=3, settings=LIGHT)
    assert [c.id for c in rep.checks] == [
        "gamma-squeeze-probe",
        "dual-distance-squeeze-probe",
        "milman-zeta-probe",
    ]
    for rec in rep.checks:
        assert rec.status == "report-only"
        assert rec.runtime_ms == 0
        assert abs(rec.worst_margin) <= 2e-3
        assert abs(replay_witness(rec.witness["worst"]) - rec.worst_margin) <= 1e-9


def test_probe_reports_are_byte_identical():
    kwargs = dict(eps_points=3, settings=LIGHT)
    a = probe_conjectures("random-polygons", 3, seed=42, **kwargs)
    b = probe_conjectures("random-polygons", 3, seed=42, **kwargs)
    assert canonical_json(a.to_json_dict()) == canonical_json(b.to_json_dict())
    c = probe_conjectures("random-polygons", 3, seed=43, **kwargs)
    assert canonical_json(a.to_json_dict()) != canonical_json(c.to_json_dict())


def test_probe_samples_requested_family():
    rep = probe_conjectures("random-lp", 4, seed=9, eps_points=3, settings=LIGHT)
    per_norm = rep.checks[0].witness["per_norm"]
    assert len(per_norm) == 4
    assert all(e["spec"]["kind"] == "lp" for e in per_norm)
    assert all(1.1 <= e["spec"]["p"] <= 10.0 for e in per_norm)
    d = rep.to_json_dict()["suite"]
    assert d["family"] == "random-lp"
    assert d["count"] == 4

    rep = probe_conjectures("random-polygons", 2, seed=9, eps_points=3, settings=LIGHT)
    specs = [e["spec"] for e in rep.checks[0].witness["per_norm"]]
    assert all(s["kind"] == "polygon" for s in specs)
    for s in specs:
        m = len(s["vertices"])
        assert m % 2 == 0 and 6 <= m <= 24


def test_square_milman_matches_hypotenuse_at_half():
    # sup variant: the extremal pair sits on opposite square vertices
    beta = modulus(SQUARE, ModulusKind("milman-plus"), 0.5, grid_n_2d=64, refine_rounds=3)
    zeta = modulus(SQUARE, ModulusKind("zeta-plus"), 0.5, grid_n=96, refine_rounds=3, cone_samples=9)
    assert beta.value == pytest.approx(0.5, abs=1e-6)
    assert zeta.value - 1.0 == pytest.approx(beta.value, abs=1e-6)
    # inf variant: both sides are flat at zero
    beta = modulus(SQUARE, ModulusKind("milman-minus"), 0.5, grid_n_2d=64, refine_rounds=3)
    zeta = modulus(SQUARE, ModulusKind("zeta-minus"), 0.5, grid_n=96, refine_rounds=3, cone_samples=9)
    assert beta.value == pytest.approx(0.0, abs=1e-6)
    assert zeta.value - 1.0 == pytest.approx(beta.value, abs=1e-6)


# -- the sample cache -----------------------------------------------------------


def test_sample_many_fills_misses_in_one_batch_and_remembers_errors(monkeypatch):
    batches = []
    real = verify.modulus_batch

    def counted(norm, points, **kwargs):
        batches.append(len(points))
        return real(norm, points, **kwargs)

    monkeypatch.setattr(verify, "modulus_batch", counted)
    cache = ModulusCache(LIGHT)
    delta, rho = ModulusKind("delta"), ModulusKind("rho")
    pairs = [(delta, 0.3), (delta, 0.3 + 1e-14), (delta, 2.5), (rho, 0.3)]
    first, second, err, r = cache.sample_many(SQUARE, pairs)
    assert batches == [3]  # the rounded duplicate is one key
    assert first is second and first.eps == 0.3  # the first pair of a key is solved
    assert isinstance(err, DomainError) and str(err) == "eps=2.5 outside [0.0, 2.0] for kind delta"
    assert first == modulus(SQUARE, delta, 0.3, **LIGHT.modulus_kwargs())
    assert r == modulus(SQUARE, rho, 0.3, **LIGHT.modulus_kwargs())
    # later lookups are hits, and the remembered error is raised again
    assert cache.sample(SQUARE, delta, 0.3) is first
    for _ in range(2):
        with pytest.raises(DomainError) as raised:
            cache.sample(SQUARE, delta, 2.5)
        assert raised.value is err
    assert batches == [3]


def test_cache_keys_on_the_exact_weight():
    # weights that agree to 6 significant digits are distinct kinds, and each
    # token parses back to the kind it was written from
    norm = lp_norm(3.0)
    kinds = [ModulusKind("delta-t", t) for t in (0.2, 0.2000001)]
    assert [ModulusKind.parse(k.token()) for k in kinds] == kinds
    got = ModulusCache(LIGHT).sample_many(norm, [(k, 1.0) for k in kinds])
    assert got == [modulus(norm, k, 1.0, **LIGHT.modulus_kwargs()) for k in kinds]
    assert got[0].value != got[1].value


def test_relations_prefetch_keeps_skip_reasons():
    delta = ModulusKind("delta")
    labelled = [
        (0.5, Relation("ok", 0.0, (Term(1.0, delta, 0.5),))),
        (1.5, Relation("out", 0.0, (Term(1.0, delta, 1.5), Term(-1.0, delta, 3.0)))),
    ]
    points, skips = _eval_relations(SQUARE, "lp:inf", labelled, ModulusCache(LIGHT))
    assert [p.relation.name for p in points] == ["ok"]
    assert skips == [{"norm": "lp:inf", "eps": 1.5, "reason": "eps=3.0 outside [0.0, 2.0] for kind delta"}]


def test_relations_take_one_sample_pass(monkeypatch):
    calls = []
    real = ModulusCache.sample_many

    def counted(self, norm, pairs):
        calls.append(len(pairs))
        return real(self, norm, pairs)

    monkeypatch.setattr(ModulusCache, "sample_many", counted)
    labelled = verify._REGISTRY["delta-lambda-minus-sandwich"].relations((0.3, 0.6))
    points, skips = _eval_relations(EUCLID, "euclidean", labelled, ModulusCache(LIGHT))
    assert calls == [8]  # two relations of two terms at each eps
    assert len(points) == 4 and skips == []


# -- the built-in relations --------------------------------------------------------

# sha256 of every built-in relation over grids of 1, 2, 3, 9 and 33 points:
# each default check that has relations, the euclidean closed forms and the
# probes, in order, floats by their hex form
BUILTIN_RELATIONS_SHA256 = "13e92526c7aa0b02ea74712ce7904086e507ac95ae45acf3d86560e579e6ad77"


def _relation_lines(source, labelled):
    for eps, rel in labelled:
        terms = ",".join(f"{float(t.coeff).hex()}*{t.kind.token()}@{float(t.eps).hex()}" for t in rel.terms)
        yield f"{source}|{float(eps).hex()}|{rel.name}|{float(rel.constant).hex()}|{terms}"


def test_builtin_relations_are_unchanged(monkeypatch):
    recorded = []

    def record(norm, label, labelled, cache):
        recorded.append(list(labelled))
        return [], []

    monkeypatch.setattr(verify, "_eval_relations", record)
    closed_forms = verify._REGISTRY["euclid-closed-forms"]
    lines = []
    for n in (1, 2, 3, 9, 33):
        for spec in default_suite([EUCLID], eps_points=n):
            relations = verify._REGISTRY[spec.id].relations
            if relations is not None:
                lines.extend(_relation_lines(spec.id, relations(spec.eps_grid)))
        (spec,) = default_suite([EUCLID], eps_points=n, checks=["euclid-closed-forms"])
        closed_forms.evaluate(EUCLID, "euclidean", spec.eps_grid, None)
        lines.extend(_relation_lines(spec.id, recorded.pop()))
        for pid, _doc, (lo, hi), rel_fn in verify._PROBES:
            lines.extend(_relation_lines(pid, [(e, r) for e in verify._nudged_grid(lo, hi, n) for r in rel_fn(e)]))
    assert len(lines) == 4774
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BUILTIN_RELATIONS_SHA256
