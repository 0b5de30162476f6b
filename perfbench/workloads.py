"""The three benchmark workloads, driven through the library entry points the CLI calls.

A workload builds its program inputs once (set-up), then runs passes. A pass
is the unit a user waits for and includes output serialization:

- ``verify``: one ``planemoduli verify`` report, the 23 default checks over a
  seeded ``lp:p`` norm and a seeded random polygon. An operation is one check
  record, and its latency is the record's ``runtime_ms``.
- ``compute``: one ``planemoduli compute`` CSV for each of the 17 kinds on
  each of three smooth norms. An operation is one curve, timed here.
- ``probe``: ``planemoduli probe --family random-polygons --count 1`` for each
  of three seeds. An operation is one probe record; the latency sample is one
  probe call over one polygon.

Checks run outside the timed region and count failed operations.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import planemoduli as pm

# verify: the CLI's default settings, on an eps grid small enough that a pass
# fits several times in one run
VERIFY_EPS_POINTS = 2
# compute: the CLI's `compute` defaults
COMPUTE_EPS_GRID = (0.3, 0.7)
COMPUTE_SETTINGS = {"grid_n": 1024, "refine_rounds": 6, "cone_samples": 17, "grid_n_2d": 256}
PROBE_FAMILY = "random-polygons"

REPLAY_TOL = 1e-9  # replayed witness margins must reproduce the report
HILBERT_TOL = 1e-4  # euclidean values against the closed forms


@dataclass
class PassOutput:
    """What one pass produced: the serialized texts a user receives, the
    objects behind them, and one latency sample per operation (ms)."""

    texts: list[str] = field(default_factory=list)
    objects: list = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)


@dataclass
class CheckResult:
    attempted: int
    failed: int
    skipped: int
    problems: list[str]


def _sha256(texts: list[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


def _zero_runtimes(text: str) -> str:
    doc = json.loads(text)
    for rec in doc["checks"]:
        rec["runtime_ms"] = 0
    return pm.canonical_json(doc) + "\n"


def _replay_problem(witness: dict, margin: float) -> str | None:
    replayed = pm.replay_witness(witness)
    if abs(replayed - margin) > REPLAY_TOL:
        return f"witness replays to {replayed!r}, report says {margin!r}"
    return None


def check_report_records(report, *, verdicts: bool) -> list[str | None]:
    """One entry per record of a verify or probe report: None when the record
    is correct, else the reason it failed. With verdicts, a `fail` status is
    a failure; a probe's worst witness sits under witness['worst']."""
    out = []
    for rec in report.checks:
        try:
            if verdicts and rec.status == "fail":
                out.append(f"{rec.id}: status fail, worst margin {rec.worst_margin!r}")
                continue
            witness = rec.witness if verdicts else rec.witness["worst"]
            problem = None if witness is None else _replay_problem(witness, rec.worst_margin)
            out.append(None if problem is None else f"{rec.id}: {problem}")
        except Exception as exc:  # a record whose check raises is a failed operation
            out.append(f"{rec.id}: check raised {type(exc).__name__}: {exc}")
    return out


def check_curve(curve, text: str) -> str | None:
    """None when a curve and its CSV are correct, else the reason."""
    token = curve.kind.token()
    rows = pm.parse_curve_csv(text)
    if [r["value"] for r in rows] != [s.value for s in curve.samples]:
        return f"{token}: CSV values differ from the curve"
    for s in curve.samples:
        if curve.norm.kind == "euclidean":
            ref = pm.hilbert_reference(curve.kind, s.eps)
            if abs(s.value - ref) > HILBERT_TOL:
                return f"{token} eps={s.eps}: euclidean value {s.value!r} vs closed form {ref!r}"
        again = pm.reevaluate_witness(curve.norm, curve.kind, s.eps, s.witness)
        if abs(again - s.value) > max(2.0 * s.refine_tol, 1e-8):
            return f"{token} eps={s.eps}: witness reevaluates to {again!r}, value {s.value!r}"
    return None


class Verify:
    name = "verify"

    def build(self, inputs: dict):
        return [pm.lp_norm(inputs["lp_p"]), pm.polygon_norm(inputs["polygon"])]

    def expected_ops(self, built) -> int:
        return len(pm.default_check_ids())

    def run_pass(self, norms) -> PassOutput:
        specs = pm.default_suite(norms, eps_points=VERIFY_EPS_POINTS)
        report = pm.run_suite(specs, settings=pm.SuiteSettings())
        text = pm.canonical_json(report.to_json_dict()) + "\n"
        return PassOutput([text], [report], [float(c.runtime_ms) for c in report.checks])

    def check(self, built, out: PassOutput) -> CheckResult:
        report = out.objects[0]
        problems = [p for p in check_report_records(report, verdicts=True) if p]
        skipped = sum(len(c.skipped) for c in report.checks)
        return CheckResult(len(report.checks), len(problems), skipped, problems)

    def value_digest(self, out: PassOutput) -> str:
        return _sha256([_zero_runtimes(t) for t in out.texts])


class Compute:
    name = "compute"

    def build(self, inputs: dict):
        w1, w2 = inputs["weights"]
        norms = [
            pm.euclidean_norm(),
            pm.lp_norm(inputs["lp_p"]),
            pm.weighted_lp_norm(inputs["weighted_p"], w1, w2),
        ]
        kinds = [pm.ModulusKind(k, inputs["t"]) if k in ("delta-t", "beta-t") else pm.ModulusKind(k) for k in pm.KIND_NAMES]
        return norms, kinds

    def expected_ops(self, built) -> int:
        norms, kinds = built
        return len(norms) * len(kinds)

    def run_pass(self, built) -> PassOutput:
        norms, kinds = built
        out = PassOutput()
        for norm in norms:
            for kind in kinds:
                started = time.perf_counter()
                curve = pm.modulus_curve(norm, kind, COMPUTE_EPS_GRID, **COMPUTE_SETTINGS)
                text = pm.curve_to_csv(curve)
                out.op_ms.append(1000.0 * (time.perf_counter() - started))
                out.texts.append(text)
                out.objects.append(curve)
        return out

    def check(self, built, out: PassOutput) -> CheckResult:
        problems = []
        for curve, text in zip(out.objects, out.texts):
            try:
                problem = check_curve(curve, text)
            except Exception as exc:  # a curve whose check raises is a failed operation
                problem = f"{curve.kind.token()}: check raised {type(exc).__name__}: {exc}"
            if problem:
                problems.append(problem)
        return CheckResult(len(out.objects), len(problems), 0, problems)

    def value_digest(self, out: PassOutput) -> str:
        return _sha256(out.texts)


class Probe:
    name = "probe"

    def build(self, inputs: dict):
        return list(inputs["probe_seeds"])

    def expected_ops(self, seeds) -> int:
        # the program probes three conjectures per call
        return 3 * len(seeds)

    def run_pass(self, seeds) -> PassOutput:
        out = PassOutput()
        for seed in seeds:
            started = time.perf_counter()
            report = pm.probe_conjectures(PROBE_FAMILY, 1, seed)
            text = pm.canonical_json(report.to_json_dict()) + "\n"
            out.op_ms.append(1000.0 * (time.perf_counter() - started))
            out.texts.append(text)
            out.objects.append(report)
        return out

    def check(self, seeds, out: PassOutput) -> CheckResult:
        problems = []
        for report in out.objects:
            problems += [p for p in check_report_records(report, verdicts=False) if p]
        return CheckResult(sum(len(r.checks) for r in out.objects), len(problems), 0, problems)

    def value_digest(self, out: PassOutput) -> str:
        return _sha256(out.texts)


WORKLOADS = {w.name: w for w in (Verify(), Compute(), Probe())}
