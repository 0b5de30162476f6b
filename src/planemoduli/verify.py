"""Inequality suite and conjecture probes over families of planar norms.

Every relation between the moduli is run here as a margin check:
``margin = RHS - LHS`` evaluated over a norm family and an eps-grid, passing
when every margin stays above ``-(slack + sigma)`` where sigma sums the
refinement tolerances of the curves involved.  Conjectured relations are
probed the same way but reported without a verdict.

Most relations come in three families, each built per eps:

- sandwiches (``_sandwich``): lower(a eps) <= mid(eps) <= upper(b eps), tying
  the supporting-hyperplane moduli to the convexity/smoothness curves;
- separations (``_separation``): minus(eps) <= g(eps) <= plus(eps), such as
  the Day-Nordlander separations around the Euclidean value (Nordlander,
  Ark. Mat. 4, 1960) and the Euclidean closed forms;
- one-sided bounds (``_below``, ``_above``): the envelopes.

The monotonicity checks and the few relations of other shapes are written
out. The relations of one check on one norm read all their samples from one
``ModulusCache.sample_many`` pass.

Checks are registered in a module-level registry keyed by a descriptive id,
so suites are composable and external code can add its own checks.  Reports
serialize to a stable JSON shape; probe reports are byte-deterministic for a
fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__ as _TOOL_VERSION
from .errors import DomainError, InputError, RepresentationError
from .moduli import (
    CurveSample,
    ModulusKind,
    area_additivity_check,
    beta_t,
    delta_t,
    hilbert_reference,
    kind_domain,
    modulus,  # noqa: F401 -- unused here, but the perfbench tracer wraps verify.modulus
    modulus_batch,
    reevaluate_witness,
)
from .norms import (
    Norm,
    euclidean_norm,
    lp_norm,
    norm_from_json,
    norm_key,
    polygon_norm,
    regular_polygon_norm,
)

__all__ = [
    "CheckDef",
    "CheckRecord",
    "CheckSpec",
    "ModulusCache",
    "PROBE_FAMILIES",
    "Relation",
    "SuiteSettings",
    "Term",
    "VerificationReport",
    "check_ids",
    "default_check_ids",
    "default_suite",
    "gamma_monotonicity_check",
    "norm_label",
    "probe_conjectures",
    "register_check",
    "replay_witness",
    "resolve_check_ids",
    "run_suite",
    "standard_norms",
]

_EPS_NUDGE = 1e-6  # grid endpoints move this far inside a check's eps-domain


# -- evaluation settings and the sample cache --------------------------------


@dataclass(frozen=True)
class SuiteSettings:
    """Resolution knobs shared by every modulus evaluation in a suite."""

    grid_n: int = 256
    refine_rounds: int = 4
    cone_samples: int = 17
    grid_n_2d: int = 96

    def modulus_kwargs(self) -> dict:
        return {
            "grid_n": self.grid_n,
            "refine_rounds": self.refine_rounds,
            "cone_samples": self.cone_samples,
            "grid_n_2d": self.grid_n_2d,
        }


def _probe_settings() -> SuiteSettings:
    # conjecture probes favour family size over per-point resolution
    return SuiteSettings(grid_n=128, refine_rounds=3, cone_samples=9, grid_n_2d=64)


class ModulusCache:
    """Memoizes modulus samples keyed by (norm, kind, eps) at fixed settings.

    The sandwich checks evaluate the same curves at shared grid points many
    times over; caching keeps the default suite inside its time budget. A
    check hands all its points for one norm to sample_many, which solves the
    misses as one lockstep modulus_batch: one chord solve per engine step
    for every chord kind and eps, and one quasi-normal pass for the lambda and
    zeta kinds. It keeps samples only: no chord scan outlives its batch. A
    point that raises DomainError is remembered with its error, which sample
    raises again. One cache serves one run and is dropped with it.
    """

    def __init__(self, settings: SuiteSettings):
        self.settings = settings
        self._data: dict = {}

    def sample_many(self, norm: Norm, pairs) -> list:
        """The sample (or the remembered error) for each (kind, eps) pair,
        filling all misses with one modulus_batch. Keys round eps to 12
        digits; the first pair of a key gives the eps that is solved."""
        nkey = norm_key(norm)
        keys = [(nkey, kind, round(float(eps), 12)) for kind, eps in pairs]
        misses = {}
        for key, pair in zip(keys, pairs):
            if key not in self._data:
                misses.setdefault(key, pair)
        if misses:
            solved = modulus_batch(norm, list(misses.values()), **self.settings.modulus_kwargs())
            self._data.update(zip(misses, solved))
        return [self._data[key] for key in keys]

    def sample(self, norm: Norm, kind: ModulusKind, eps: float) -> CurveSample:
        (hit,) = self.sample_many(norm, [(kind, eps)])
        if isinstance(hit, Exception):
            raise hit.with_traceback(None)
        return hit


# -- affine relations: margin = constant + sum(coeff * modulus) ---------------


@dataclass(frozen=True)
class Term:
    coeff: float
    kind: ModulusKind
    eps: float


@dataclass(frozen=True)
class Relation:
    """One inequality, normalized so that it passes when margin >= 0."""

    name: str
    constant: float
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class _Point:
    """An evaluated relation at one (norm, eps), with replay data."""

    norm_label: str
    norm: Norm
    eps: float
    margin: float
    sigma: float
    relation: Relation | None
    samples: tuple[tuple[Term, CurveSample], ...] = ()
    witness_override: dict | None = None

    def witness(self) -> dict:
        if self.witness_override is not None:
            return self.witness_override
        return {
            "family": "affine",
            "norm": self.norm_label,
            "norm_spec": self.norm.to_json_dict(),
            "eps": float(self.eps),
            "relation": self.relation.name,
            "constant": float(self.relation.constant),
            "margin": float(self.margin),
            "sigma": float(self.sigma),
            "terms": [
                {
                    "coeff": float(t.coeff),
                    "kind": t.kind.token(),
                    "eps": float(t.eps),
                    "value": float(s.value),
                    "refine_tol": float(s.refine_tol),
                    "witness": s.witness,
                }
                for t, s in self.samples
            ],
        }


def _eval_relations(norm, label, labelled_relations, cache):
    """Points of (eps, relation) pairs on one norm, with every term read from
    one sample_many pass. A relation with a term outside its kind's domain is
    skipped, with the first such term's error as the reason."""
    labelled_relations = list(labelled_relations)
    samples = iter(cache.sample_many(norm, [(t.kind, t.eps) for _, rel in labelled_relations for t in rel.terms]))
    points, skips = [], []
    for eps, relation in labelled_relations:
        terms = tuple((term, next(samples)) for term in relation.terms)
        error = next((s for _, s in terms if isinstance(s, DomainError)), None)
        if error is not None:
            skips.append({"norm": label, "eps": float(eps), "reason": str(error)})
            continue
        margin, sigma = relation.constant, 0.0
        for term, s in terms:
            margin += term.coeff * s.value
            sigma += abs(term.coeff) * s.refine_tol
        points.append(_Point(label, norm, float(eps), float(margin), float(sigma), relation, terms))
    return points, skips


def replay_witness(witness: dict) -> float:
    """Recompute a check witness's margin from its stored configuration."""
    norm = norm_from_json(witness["norm_spec"])
    if witness.get("family") == "area":
        r = area_additivity_check(norm, witness["eps"], witness["samples"])
        return 0.005 * abs(r.a1) - abs(r.defect)
    margin = witness["constant"]
    for t in witness["terms"]:
        kind = ModulusKind.parse(t["kind"])
        margin += t["coeff"] * reevaluate_witness(norm, kind, t["eps"], t["witness"])
    return float(margin)


# -- check registry -----------------------------------------------------------

# relations(eps_grid) -> [(eps_label, Relation)], mostly _pointwise joins of
# the sandwich, separation and one-sided bound families; evaluate(norm, label,
# grid, cache) -> (points, skips) for the checks that need norm-dependent
# handling.
@dataclass(frozen=True)
class CheckDef:
    id: str
    kind: str  # inequality | monotonicity | coincidence | area-additivity | conjecture-probe
    doc: str
    domain: tuple[float, float]
    relations: Callable | None = None
    evaluate: Callable | None = None
    grid_points: int | None = None  # cap on the default grid size
    fixed_grid: tuple[float, ...] | None = None


_REGISTRY: dict[str, CheckDef] = {}
_DEFAULT_IDS: list[str] = []


def register_check(check: CheckDef, *, default: bool = False) -> None:
    """Add a check to the registry; with default=True it joins default_suite."""
    if check.id in _REGISTRY:
        raise InputError(f"check id {check.id!r} is already registered")
    if check.relations is None and check.evaluate is None:
        raise InputError("a check needs either relations or an evaluate function")
    _REGISTRY[check.id] = check
    if default:
        _DEFAULT_IDS.append(check.id)


def check_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def default_check_ids() -> tuple[str, ...]:
    return tuple(sorted(_DEFAULT_IDS))


def resolve_check_ids(tokens: Iterable[str]) -> list[str]:
    """Map user tokens to registered ids (exact, unique prefix, or substring)."""
    resolved = []
    ids = check_ids()
    for token in tokens:
        token = token.strip()
        if token in _REGISTRY:
            resolved.append(token)
            continue
        by_prefix = [i for i in ids if i.startswith(token)]
        candidates = by_prefix or [i for i in ids if token in i]
        if len(candidates) == 1:
            resolved.append(candidates[0])
        elif not candidates:
            raise InputError(f"unknown check id {token!r}; valid ids: {', '.join(ids)}")
        else:
            raise InputError(f"check id {token!r} is ambiguous: {', '.join(candidates)}")
    return resolved


# -- suite data model ---------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    id: str
    kind: str
    norms: tuple[Norm, ...]
    eps_grid: tuple[float, ...]
    slack: float

    def __post_init__(self):
        # a nan slack fails every check and an infinite one passes every check
        if not 0.0 <= self.slack < math.inf:
            raise InputError(f"slack must be a finite number >= 0, got {self.slack!r}")
        if not self.eps_grid:
            raise InputError("eps grid must be nonempty")


@dataclass(frozen=True)
class CheckRecord:
    id: str
    status: str  # pass | fail | report-only
    worst_margin: float
    witness: dict | None
    runtime_ms: int
    skipped: tuple[dict, ...] = ()

    def to_json_dict(self) -> dict:
        worst = self.worst_margin
        return {
            "id": self.id,
            "status": self.status,
            "worst_margin": None if math.isinf(worst) else float(worst),
            "witness": self.witness,
            "runtime_ms": int(self.runtime_ms),
            "skipped": list(self.skipped),
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckRecord, ...]
    seed: int | None
    grid_n: int
    tool_version: str = _TOOL_VERSION
    extra: dict | None = None

    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        suite = {"seed": self.seed, "grid_n": self.grid_n, "tool_version": self.tool_version}
        if self.extra:
            suite.update(self.extra)
        return {"suite": suite, "checks": [c.to_json_dict() for c in self.checks]}


def norm_label(norm: Norm) -> str:
    """Short display token for a norm ('euclidean', 'lp:3', 'polygon-8', ...)."""
    spec = norm.to_json_dict()
    kind = spec["kind"]

    def p_token(p):
        return p if isinstance(p, str) else f"{p:g}"

    if kind == "lp":
        return f"lp:{p_token(spec['p'])}"
    if kind == "weighted-lp":
        w = spec["w"]
        return f"weighted-lp:{p_token(spec['p'])}:{w[0]:g}:{w[1]:g}"
    if kind == "polygon":
        return f"polygon-{len(spec['vertices'])}"
    return kind


def standard_norms() -> list[Norm]:
    """The reference family: three smooth planes, two facet planes, two polygons."""
    return [
        euclidean_norm(),
        lp_norm(1),
        lp_norm(1.5),
        lp_norm(3),
        lp_norm("inf"),
        regular_polygon_norm(6),
        regular_polygon_norm(8),
    ]


def _nudged_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    # scaled copies of one master grid, endpoints nudged inside the open
    # domain; the check domains span powers of two, so halved and doubled
    # sandwich arguments land exactly on other checks' cached samples
    master = np.linspace(_EPS_NUDGE, 1.0 - _EPS_NUDGE, int(n))
    return tuple(float(lo + (hi - lo) * m) for m in master)


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InputError(f"{name} must be an integer >= 1, got {value!r}")


def default_suite(
    norms: Sequence[Norm] | None = None,
    *,
    slack: float = 1e-3,
    eps_points: int = 33,
    checks: Iterable[str] | None = None,
) -> list[CheckSpec]:
    """Specs for the built-in checks over a norm family (standard_norms() default)."""
    _check_count("eps_points", eps_points)
    if norms is None:
        norms = standard_norms()
    ids = default_check_ids() if checks is None else resolve_check_ids(checks)
    specs = []
    for cid in ids:
        cdef = _REGISTRY[cid]
        if cdef.fixed_grid is not None:
            grid = cdef.fixed_grid
        else:
            n = eps_points if cdef.grid_points is None else min(eps_points, cdef.grid_points)
            grid = _nudged_grid(cdef.domain[0], cdef.domain[1], n)
        specs.append(CheckSpec(cid, cdef.kind, tuple(norms), grid, float(slack)))
    return specs


def run_suite(specs: Sequence[CheckSpec], *, settings: SuiteSettings | None = None, seed: int | None = None) -> VerificationReport:
    """Evaluate checks (sorted by id) and assemble a deterministic report."""
    settings = settings or SuiteSettings()
    specs = sorted(specs, key=lambda s: s.id)
    seen = set()
    for spec in specs:
        if spec.id in seen:
            raise InputError(f"duplicate check id {spec.id!r} in suite")
        seen.add(spec.id)
        if spec.id not in _REGISTRY:
            raise InputError(f"unknown check id {spec.id!r}; valid ids: {', '.join(check_ids())}")
    cache = ModulusCache(settings)
    records = []
    for spec in specs:
        cdef = _REGISTRY[spec.id]
        started = time.perf_counter()
        points: list[_Point] = []
        skips: list[dict] = []
        for norm in spec.norms:
            label = norm_label(norm)
            if cdef.evaluate is not None:
                p, s = cdef.evaluate(norm, label, spec.eps_grid, cache)
            else:
                p, s = _eval_relations(norm, label, cdef.relations(spec.eps_grid), cache)
            points.extend(p)
            skips.extend(s)
        runtime_ms = int(round(1000.0 * (time.perf_counter() - started)))
        if not points:
            status = "report-only" if cdef.kind == "conjecture-probe" else "pass"
            records.append(CheckRecord(spec.id, status, math.inf, None, runtime_ms, tuple(skips)))
            continue
        worst = min(points, key=lambda p: p.margin)
        if cdef.kind == "conjecture-probe":
            status = "report-only"
        elif all(p.margin >= -(spec.slack + p.sigma) for p in points):
            status = "pass"
        else:
            status = "fail"
        records.append(
            CheckRecord(spec.id, status, float(worst.margin), worst.witness(), runtime_ms, tuple(skips))
        )
    return VerificationReport(tuple(records), seed=seed, grid_n=settings.grid_n)


# -- the built-in checks ------------------------------------------------------

_DELTA = ModulusKind("delta")
_BANAS = ModulusKind("banas")
_RHO = ModulusKind("rho")
_LAM_M = ModulusKind("lambda-minus")
_LAM_P = ModulusKind("lambda-plus")
_PHI_M = ModulusKind("phi-minus")
_PHI_P = ModulusKind("phi-plus")
_ZETA_M = ModulusKind("zeta-minus")
_ZETA_P = ModulusKind("zeta-plus")
_GAM_M = ModulusKind("gamma-minus")
_GAM_P = ModulusKind("gamma-plus")
_D_M = ModulusKind("d-minus")
_D_P = ModulusKind("d-plus")
_MIL_M = ModulusKind("milman-minus")
_MIL_P = ModulusKind("milman-plus")


def _pointwise(*families):
    """relations(grid) -> [(eps, Relation)]: at each eps, the relations of
    every family in turn. A family maps one eps to its list of relations."""

    def relations(grid):
        return [(e, r) for e in grid for family in families for r in family(e)]

    return relations


def _scaled(a: float) -> str:
    # the argument a * eps as relation names write it: eps/4, eps, 2 eps
    if a == 1.0:
        return "eps"
    return f"eps/{1.0 / a:g}" if a < 1.0 else f"{a:g} eps"


def _sandwich(lower: ModulusKind, a: float, mid: ModulusKind, upper: ModulusKind, b: float):
    """lower(a eps) <= mid(eps) <= upper(b eps). a and b are powers of two,
    so a * eps is exact."""
    lo, mi, hi = lower.token(), mid.token(), upper.token()

    def family(eps):
        return [
            Relation(f"{lo}({_scaled(a)}) <= {mi}(eps)", 0.0, (Term(1.0, mid, eps), Term(-1.0, lower, a * eps))),
            Relation(f"{mi}(eps) <= {hi}({_scaled(b)})", 0.0, (Term(1.0, upper, b * eps), Term(-1.0, mid, eps))),
        ]

    return family


def _separation(minus: ModulusKind, plus: ModulusKind, g: Callable, text: str):
    """minus(eps) <= g(eps) <= plus(eps), g named text: a Day-Nordlander
    separation when g is the euclidean value."""
    lo, hi = minus.token(), plus.token()

    def family(eps):
        value = g(eps)
        return [
            Relation(f"{lo}(eps) <= {text}", value, (Term(-1.0, minus, eps),)),
            Relation(f"{text} <= {hi}(eps)", -value, (Term(1.0, plus, eps),)),
        ]

    return family


def _below(kind: ModulusKind, g: Callable, text: str):
    """kind(eps) <= g(eps), g named text."""
    tok = kind.token()
    return lambda eps: [Relation(f"{tok}(eps) <= {text}", g(eps), (Term(-1.0, kind, eps),))]


def _above(kind: ModulusKind, g: Callable, text: str):
    """g(eps) <= kind(eps), g named text; 0.0 - g keeps a zero bound +0.0."""
    tok = kind.token()
    return lambda eps: [Relation(f"{text} <= {tok}(eps)", 0.0 - g(eps), (Term(1.0, kind, eps),))]


def _rels_zeta_lambda(zeta_kind, lam_kind):
    def fn(eps):
        ztok, ltok = zeta_kind.token(), lam_kind.token()
        inner = eps / (1.0 + eps)
        return [
            Relation(
                f"{ltok}(eps/(1+eps)) <= {ztok}(eps) - 1",
                -1.0,
                (Term(1.0, zeta_kind, eps), Term(-1.0, lam_kind, inner)),
            ),
            Relation(
                f"{ztok}(eps) - 1 <= {ltok}(eps)",
                1.0,
                (Term(1.0, lam_kind, eps), Term(-1.0, zeta_kind, eps)),
            ),
        ]

    return fn


def _monotone_relations(kind: ModulusKind, grid):
    tok = kind.token()
    out = []
    for e1, e2 in zip(grid, grid[1:]):
        rel = Relation(f"{tok} nondecreasing on [{e1:.6g}, {e2:.6g}]", 0.0, (Term(1.0, kind, e2), Term(-1.0, kind, e1)))
        out.append((e2, rel))
    return out


def _rels_gamma_monotone(grid):
    return _monotone_relations(_GAM_M, grid) + _monotone_relations(_GAM_P, grid)


def _rels_gamma_plus_phi(eps):
    return [
        Relation("phi-plus(eps) <= gamma-plus(eps)", 0.0, (Term(1.0, _GAM_P, eps), Term(-1.0, _PHI_P, eps))),
        Relation("gamma-plus(eps) <= 2 phi-plus(eps)", 0.0, (Term(2.0, _PHI_P, eps), Term(-1.0, _GAM_P, eps))),
    ]


def _rels_gamma_minus_phi(eps):
    q = eps / 4.0
    return [
        Relation("2 phi-minus(eps/4) <= gamma-minus(eps/4)", 0.0, (Term(1.0, _GAM_M, q), Term(-2.0, _PHI_M, q))),
        Relation("gamma-minus(eps/4) <= phi-minus(eps)", 0.0, (Term(1.0, _PHI_M, eps), Term(-1.0, _GAM_M, q))),
    ]


def _rels_phi_plus_chord_relaxation(grid):
    # the sup defining phi-plus may equivalently range over chords of length
    # at most eps: shorter chords never beat the full-length ones
    out = []
    for eps in grid:
        for frac in (0.25, 0.5, 0.75):
            rel = Relation(
                f"phi-plus({frac:g} eps) <= phi-plus(eps)",
                0.0,
                (Term(1.0, _PHI_P, eps), Term(-1.0, _PHI_P, frac * eps)),
            )
            out.append((eps, rel))
    return out


# per-kind eps ranges actually exercised by the suite (the unbounded kinds
# are sampled on (0, 1])
def _tested_domain(kind: ModulusKind) -> tuple[float, float]:
    lo, hi = kind_domain(kind)
    return (lo, min(hi, 2.0) if math.isfinite(hi) else 1.0)


_MONOTONE_KINDS = (_DELTA, _BANAS, _LAM_M, _LAM_P, _PHI_M, _PHI_P, _ZETA_M, _ZETA_P)


def _rels_monotone_kinds(grid):
    out = []
    n = len(grid)
    for kind in _MONOTONE_KINDS:
        lo, hi = _tested_domain(kind)
        out.extend(_monotone_relations(kind, _nudged_grid(lo, hi, n)))
    return out


_CLOSED_FORM_KINDS = (
    _DELTA, _BANAS, _RHO, _LAM_M, _LAM_P, _PHI_M, _PHI_P, _ZETA_M, _ZETA_P,
    _GAM_M, _GAM_P, _D_M, _D_P, _MIL_M, _MIL_P,
    delta_t(0.25), delta_t(0.5), delta_t(0.75), beta_t(0.25), beta_t(0.5), beta_t(0.75),
)


def _eval_closed_forms(norm, label, eps_grid, cache):
    """In the Euclidean plane every modulus equals its closed-form curve."""
    if norm.kind != "euclidean":
        return [], [{"norm": label, "eps": None, "reason": "closed forms hold in the euclidean plane only"}]
    labelled = []
    for kind in _CLOSED_FORM_KINDS:
        closed_form = _separation(kind, kind, partial(hilbert_reference, kind), "closed form")
        labelled += _pointwise(closed_form)(_nudged_grid(*_tested_domain(kind), len(eps_grid)))
    return _eval_relations(norm, label, labelled, cache)


_AREA_SAMPLES = 4096


def _eval_area_additivity(norm, label, eps_grid, cache):
    """Tangent-sweep area defect stays under 0.5% of the unit-ball area."""
    del cache  # areas come from direct curve sampling, not modulus evaluations
    if not norm.is_smooth():
        return [], [{"norm": label, "eps": None, "reason": "area additivity needs a smooth norm"}]
    points = []
    for eps in eps_grid:
        r = area_additivity_check(norm, eps, samples=_AREA_SAMPLES)
        margin = 0.005 * abs(r.a1) - abs(r.defect)
        witness = {
            "family": "area",
            "norm": label,
            "norm_spec": norm.to_json_dict(),
            "eps": float(eps),
            "samples": _AREA_SAMPLES,
            "a1": float(r.a1),
            "a2": float(r.a2),
            "a3": float(r.a3),
            "defect": float(r.defect),
            "margin": float(margin),
        }
        points.append(_Point(label, norm, float(eps), float(margin), 0.0, None, (), witness))
    return points, []


def _register_builtin_checks():
    defs = [
        CheckDef("rho-lambda-plus-sandwich", "inequality",
                 "smoothness curve encloses the supporting sagitta sup", (0.0, 0.5),
                 relations=_pointwise(_sandwich(_RHO, 0.5, _LAM_P, _RHO, 2.0))),
        CheckDef("delta-lambda-minus-sandwich", "inequality",
                 "convexity curve encloses the supporting sagitta inf", (0.0, 1.0),
                 relations=_pointwise(_sandwich(_DELTA, 1.0, _LAM_M, _DELTA, 2.0))),
        CheckDef("lambda-envelope", "inequality",
                 "0 <= lambda-minus <= lambda-plus <= eps", (0.0, 1.0),
                 relations=_pointwise(
                     _above(_LAM_M, lambda e: 0.0, "0"),
                     lambda e: [
                         Relation("lambda-minus(eps) <= lambda-plus(eps)", 0.0, (Term(1.0, _LAM_P, e), Term(-1.0, _LAM_M, e)))
                     ],
                     _below(_LAM_P, lambda e: e, "eps"),
                 )),
        CheckDef("lambda-day-nordlander", "inequality",
                 "the euclidean sagitta separates lambda-minus from lambda-plus", (0.0, 1.0),
                 relations=_pointwise(
                     _separation(_LAM_M, _LAM_P, lambda e: 1.0 - math.sqrt(max(0.0, 1.0 - e * e)), "1-sqrt(1-eps^2)")
                 )),
        CheckDef("phi-minus-lambda-sandwich", "inequality",
                 "cathetus inf vs supporting sagitta inf at doubled arguments", (0.0, 0.5),
                 relations=_pointwise(_sandwich(_LAM_M, 0.5, _PHI_M, _LAM_M, 2.0))),
        CheckDef("phi-plus-lambda-sandwich", "inequality",
                 "cathetus sup vs supporting sagitta sup at doubled arguments", (0.0, 0.5),
                 relations=_pointwise(_sandwich(_LAM_P, 0.5, _PHI_P, _LAM_P, 2.0))),
        CheckDef("phi-plus-rho-sandwich", "inequality",
                 "cathetus sup vs smoothness curve at quadrupled arguments", (0.0, 0.5),
                 relations=_pointwise(_sandwich(_RHO, 0.25, _PHI_P, _RHO, 4.0))),
        CheckDef("phi-minus-delta-sandwich", "inequality",
                 "cathetus inf vs convexity curve at quadrupled arguments", (0.0, 0.5),
                 relations=_pointwise(_sandwich(_DELTA, 1.0, _PHI_M, _DELTA, 4.0))),
        CheckDef("weighted-midpoint-day-nordlander", "inequality",
                 "weighted midpoint depth separates around the euclidean value", (0.0, 2.0),
                 relations=_pointwise(*(
                     _separation(delta_t(t), beta_t(t), partial(hilbert_reference, delta_t(t)), "euclidean value")
                     for t in (0.25, 0.5, 0.75)
                 ))),
        CheckDef("phi-day-nordlander", "inequality",
                 "eps^2/2 separates the cathetus moduli", (0.0, 2.0),
                 relations=_pointwise(_separation(_PHI_M, _PHI_P, lambda e: 0.5 * e * e, "eps^2/2"))),
        CheckDef("zeta-lambda-sandwich-minus", "inequality",
                 "hypotenuse inf minus one vs supporting sagitta inf", (0.0, 1.0),
                 relations=_pointwise(_rels_zeta_lambda(_ZETA_M, _LAM_M))),
        CheckDef("zeta-lambda-sandwich-plus", "inequality",
                 "hypotenuse sup minus one vs supporting sagitta sup", (0.0, 1.0),
                 relations=_pointwise(_rels_zeta_lambda(_ZETA_P, _LAM_P))),
        CheckDef("zeta-day-nordlander", "inequality",
                 "sqrt(1+eps^2) separates the hypotenuse moduli", (0.0, 1.0),
                 relations=_pointwise(_separation(_ZETA_M, _ZETA_P, lambda e: math.sqrt(1.0 + e * e), "sqrt(1+eps^2)"))),
        CheckDef("gamma-monotone", "monotonicity",
                 "duality-mapping moduli are nondecreasing", (0.0, 2.0),
                 relations=_rels_gamma_monotone),
        CheckDef("gamma-plus-phi-sandwich", "inequality",
                 "duality-mapping sup is between one and two cathetus sups", (0.0, 2.0),
                 relations=_pointwise(_rels_gamma_plus_phi)),
        CheckDef("gamma-minus-phi-sandwich", "inequality",
                 "duality-mapping inf at eps/4 is pinched by cathetus infs", (0.0, 1.0),
                 relations=_pointwise(_rels_gamma_minus_phi)),
        CheckDef("zeta-envelope", "inequality",
                 "1 <= zeta-minus and zeta-plus <= 1 + eps", (0.0, 1.0),
                 relations=_pointwise(_above(_ZETA_M, lambda e: 1.0, "1"), _below(_ZETA_P, lambda e: 1.0 + e, "1 + eps"))),
        CheckDef("gamma-plus-envelope", "inequality",
                 "gamma-plus(eps) <= 2 eps", (0.0, 2.0),
                 relations=_pointwise(_below(_GAM_P, lambda e: 2.0 * e, "2 eps"))),
        CheckDef("d-plus-envelope", "inequality",
                 "dual distances never exceed the dual diameter", (0.0, 2.0),
                 relations=_pointwise(_below(_D_P, lambda e: 2.0, "2"))),
        CheckDef("monotone-kinds", "monotonicity",
                 "midpoint, sagitta, cathetus, and hypotenuse moduli are nondecreasing", (0.0, 2.0),
                 relations=_rels_monotone_kinds),
        CheckDef("phi-plus-chord-relaxation", "coincidence",
                 "relaxing the chord constraint to <= eps does not raise phi-plus", (0.0, 2.0),
                 relations=_rels_phi_plus_chord_relaxation, grid_points=9),
        CheckDef("euclid-closed-forms", "coincidence",
                 "every modulus matches its closed form in the euclidean plane", (0.0, 2.0),
                 evaluate=_eval_closed_forms),
        CheckDef("area-additivity", "area-additivity",
                 "the tangent-sweep curve encloses the sum of the two areas", (0.0, 2.0),
                 evaluate=_eval_area_additivity, fixed_grid=(0.25, 0.5, 1.0)),
    ]
    for d in defs:
        register_check(d, default=True)


_register_builtin_checks()


def gamma_monotonicity_check(norm: Norm, eps_grid: Sequence[float], *, settings: SuiteSettings | None = None) -> float:
    """Smallest consecutive increment of the duality-mapping moduli on the grid:
    the least margin of the gamma-monotone relations of the suite.

    Returns +inf for grids with fewer than two points (vacuously monotone),
    and raises the DomainError of the first relation with an eps outside the
    kinds' domain.
    """
    grid = [float(e) for e in eps_grid]
    if sorted(grid) != grid:
        raise InputError("eps grid must be sorted ascending")
    if len(grid) < 2:
        return math.inf
    cache = ModulusCache(settings or SuiteSettings())
    points, skips = _eval_relations(norm, norm_label(norm), _rels_gamma_monotone(grid), cache)
    if skips:
        raise DomainError(skips[0]["reason"])
    return float(min(p.margin for p in points))


# -- conjecture probes --------------------------------------------------------

PROBE_FAMILIES = ("random-polygons", "random-lp", "lp", "euclidean")


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull, counterclockwise, collinear points dropped."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    scale = float(np.max(np.abs(pts))) or 1.0
    tol = 1e-12 * scale * scale

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) <= tol:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1])


def _sample_polygon(rng: np.random.Generator) -> Norm:
    """A random origin-symmetric polygon norm with 2m vertices, m in [3, 12]."""
    m = int(rng.integers(3, 13))
    theta = rng.uniform(0.0, math.pi, m)
    radius = rng.uniform(0.6, 1.4, m)
    half = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    hull = _convex_hull(np.concatenate([half, -half]))
    if len(hull) < 6:
        raise RepresentationError("hull degenerated below six vertices")
    return polygon_norm(hull)


def _sample_family(family: str, count: int, rng: np.random.Generator):
    """Returns (labelled norms, number of resampled draws)."""
    if family == "euclidean":
        return [("euclidean", euclidean_norm())], 0
    norms = []
    resampled = 0
    for i in range(count):
        if family in ("random-lp", "lp"):
            p = float(rng.uniform(1.1, 10.0))
            norms.append((f"random-lp-{i:02d}", lp_norm(p)))
            continue
        for _ in range(100):
            try:
                norms.append((f"random-polygons-{i:02d}", _sample_polygon(rng)))
                break
            except RepresentationError:
                resampled += 1
        else:
            raise InputError("polygon sampling failed 100 times in a row")
    return norms, resampled


def _rels_milman_zeta(eps):
    out = []
    for zeta, mil in ((_ZETA_M, _MIL_M), (_ZETA_P, _MIL_P)):
        zt, mt = zeta.token(), mil.token()
        pair = (Term(1.0, zeta, eps), Term(-1.0, mil, eps))
        anti = (Term(1.0, mil, eps), Term(-1.0, zeta, eps))
        out.append(Relation(f"{zt}(eps) - 1 <= {mt}(eps)", 1.0, anti))
        out.append(Relation(f"{mt}(eps) <= {zt}(eps) - 1", -1.0, pair))
    return out


_PROBES = (
    ("gamma-squeeze-probe", "eps^2 between the duality-mapping moduli", (0.0, 2.0),
     _separation(_GAM_M, _GAM_P, lambda e: e * e, "eps^2")),
    ("dual-distance-squeeze-probe", "eps between the dual-distance moduli", (0.0, 2.0),
     _separation(_D_M, _D_P, lambda e: e, "eps")),
    ("milman-zeta-probe", "milman moduli agree with the quasi-orthogonal hypotenuse", (0.0, 1.0), _rels_milman_zeta),
)


def probe_conjectures(
    family: str,
    count: int,
    seed: int,
    *,
    eps_points: int = 5,
    settings: SuiteSettings | None = None,
) -> VerificationReport:
    """Report worst observed margins of the conjectured relations on a random family.

    Every record is report-only: a negative margin is an observation worth
    publishing, not a failure.  Reports are byte-deterministic for a fixed
    seed (runtimes are pinned to zero for that reason).
    """
    if family not in PROBE_FAMILIES:
        raise InputError(f"unknown probe family {family!r}; valid: {', '.join(PROBE_FAMILIES)}")
    _check_count("count", count)
    _check_count("eps_points", eps_points)
    settings = settings or _probe_settings()
    rng = np.random.default_rng(seed)
    norms, resampled = _sample_family(family, count, rng)
    cache = ModulusCache(settings)
    records = []
    for pid, doc, (lo, hi), rel_fn in _PROBES:
        grid = _nudged_grid(lo, hi, eps_points)
        per_norm = []
        worst_point = None
        for label, norm in norms:
            points, _ = _eval_relations(norm, label, _pointwise(rel_fn)(grid), cache)
            w = min(points, key=lambda p: p.margin)
            per_norm.append(
                {
                    "norm": label,
                    "spec": norm.to_json_dict(),
                    "margin": float(w.margin),
                    "eps": float(w.eps),
                    "relation": w.relation.name,
                }
            )
            if worst_point is None or w.margin < worst_point.margin:
                worst_point = w
        witness = {"doc": doc, "worst": worst_point.witness(), "per_norm": per_norm}
        records.append(CheckRecord(pid, "report-only", float(worst_point.margin), witness, 0))
    extra = {"family": family, "count": count, "resampled": resampled}
    return VerificationReport(tuple(records), seed=seed, grid_n=settings.grid_n, extra=extra)
