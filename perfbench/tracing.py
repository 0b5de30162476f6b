"""Per-layer tracing from outside the package.

Wrappers go where each callable is looked up: a name brought in by
``from .x import y`` is bound in the importing module, so ``modulus`` is
wrapped in both ``planemoduli.verify`` and ``planemoduli.moduli``, and
``extremize``, ``lambda_point_batch`` and the chord, witness and ``d-minus``
helpers in ``planemoduli.moduli``. The objective handed to ``extremize`` is
wrapped too: its first call is the coarse scan and every later call is a
refine round.

Spans (name, start, end, parent) are kept in memory. The norm leaves
(``_eval`` and ``_support_batch`` on every ``Norm`` subclass) see hundreds of
thousands of calls per pass, so they keep aggregate counters instead; the
time a leaf spends is charged to the span or leaf it ran under, so that self
times still add up to the traced wall time.

Layers are the modules: ``bench`` (the pass itself, including output
serialization), ``verify``, ``moduli``, ``engine``, ``triangle``, ``norms``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import planemoduli as pm
from planemoduli import moduli, verify

_NAME, _START, _END, _PARENT, _LEAF_S, _ROWS = range(6)

KIND_FAMILIES = ("midpoint", "phi", "gamma", "d", "qn", "2d")


def kind_family(name: str) -> str:
    """The evaluator family of a modulus kind, as the per-kind table groups them."""
    if name in ("delta", "banas", "delta-t", "beta-t"):
        return "midpoint"
    if name.startswith("phi"):
        return "phi"
    if name.startswith("gamma"):
        return "gamma"
    if name.startswith("d-"):
        return "d"
    if name.startswith(("lambda", "zeta")):
        return "qn"
    return "2d"  # rho and the milman kinds scan a two-angle grid


class Tracer:
    """Collects spans and leaf counters while installed; see the module doc.

    A span is a list [name, start, end, parent index, leaf seconds directly
    under it, rows]. Leaf counters are [calls, rows, inclusive s, self s].
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0, 0.0, 0.0])
        self._open: list[int] = []  # indices of open spans
        self._frames: list[list] = [[0.0]]  # leaf-time accumulators, innermost last
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str, rows: int = 0) -> int:
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, parent, 0.0, rows])
        self._open.append(idx)
        self._frames.append([0.0])
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[_END] = self.clock()
        span[_LEAF_S] = self._frames.pop()[0]
        self._open.pop()

    def span(self, name: str, fn, rows_of=None):
        """fn wrapped so that each call records one span called name."""

        def wrapped(*args, **kwargs):
            idx = self.begin(name, rows_of(*args, **kwargs) if rows_of else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapped

    def leaf(self, name: str, fn):
        """A norm method wrapped with aggregate counters only."""
        agg = self.leaves[name]
        frames = self._frames
        clock = self.clock

        def wrapped(obj, a):
            frame = [0.0]
            frames.append(frame)
            started = clock()
            try:
                return fn(obj, a)
            finally:
                took = clock() - started
                frames.pop()
                frames[-1][0] += took
                agg[0] += 1
                agg[1] += a.size >> 1
                agg[2] += took
                agg[3] += took - frame[0]

        return wrapped

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        point = self._traced_modulus(moduli.modulus)
        self._patch(verify, "modulus", point)
        self._patch(moduli, "modulus", point)
        self._patch(pm, "run_suite", self.span("verify.run_suite", pm.run_suite))
        self._patch(pm, "probe_conjectures", self.span("verify.probe_conjectures", pm.probe_conjectures))
        self._patch(pm, "modulus_curve", self.span("moduli.curve", pm.modulus_curve))
        self._patch(verify.ModulusCache, "sample", self.span("verify.cache_sample", verify.ModulusCache.sample))
        self._patch(moduli, "extremize", self._traced_extremize(moduli.extremize))
        first_rows = lambda _, a, *args, **kwargs: len(a)  # noqa: E731
        self._patch(moduli, "lambda_point_batch", self.span("triangle.lambda", moduli.lambda_point_batch, first_rows))
        self._patch(moduli, "_chord_offsets_rows", self.span("moduli.chord", moduli._chord_offsets_rows, first_rows))
        self._patch(moduli, "_describe_theta", self.span("moduli.witness", moduli._describe_theta))
        self._patch(moduli, "_d_minus_over_segments", self.span("moduli.d_minus", moduli._d_minus_over_segments, first_rows))
        for cls in _norm_classes():
            for meth, leaf in (("_eval", "eval"), ("_support_batch", "support")):
                if meth in cls.__dict__:
                    self._patch(cls, meth, self.leaf(leaf, cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _traced_modulus(self, modulus):
        def wrapped(norm, kind, eps, **kwargs):
            idx = self.begin("moduli.point." + kind_family(kind.name))
            try:
                return modulus(norm, kind, eps, **kwargs)
            finally:
                self.end(idx)

        return wrapped

    def _traced_extremize(self, extremize):
        def wrapped(objective, *args, **kwargs):
            calls = [0]

            def traced_objective(P):
                name = "moduli.objective.coarse" if calls[0] == 0 else "moduli.objective.refine"
                calls[0] += 1
                idx = self.begin(name, len(P))
                try:
                    return objective(P)
                finally:
                    self.end(idx)

            idx = self.begin("engine.extremize")
            try:
                return extremize(traced_objective, *args, **kwargs)
            finally:
                self.end(idx)

        return wrapped


def _norm_classes():
    out, todo = [], [pm.Norm]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


# -- arithmetic on recorded spans ----------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus its direct child spans' durations minus
    the leaf time recorded directly under it."""
    out = [s[_END] - s[_START] - s[_LEAF_S] for s in spans]
    for s in spans:
        if s[_PARENT] >= 0:
            out[s[_PARENT]] -= s[_END] - s[_START]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list], leaves: dict, chord_iterations: int) -> dict[str, float]:
    """Per-layer counts, self times (``*.self_s``), inclusive times (other
    ``*_s``) and ratios of one traced pass, whose root span is spans[0]."""
    selfs = self_times(spans)
    by_name: dict[str, list] = defaultdict(lambda: [0, 0, 0.0, []])  # calls, rows, incl s, durations
    for s in spans:
        agg = by_name[s[_NAME]]
        took = s[_END] - s[_START]
        agg[0] += 1
        agg[1] += s[_ROWS]
        agg[2] += took
        agg[3].append(took)
    layer_self: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        layer_self[layer_of(s[_NAME])] += own
    layer_self["norms"] = sum(v[3] for v in leaves.values())
    wall = spans[0][_END] - spans[0][_START]

    def calls(name):
        return by_name[name][0] if name in by_name else 0

    def rows(name):
        return by_name[name][1] if name in by_name else 0

    def incl(name):
        return by_name[name][2] if name in by_name else 0.0

    lookups = calls("verify.cache_sample")
    misses = sum(1 for s in spans if s[_NAME].startswith("moduli.point.") and s[_PARENT] >= 0 and spans[s[_PARENT]][_NAME] == "verify.cache_sample")
    engine_calls = calls("engine.extremize")
    objective_calls = calls("moduli.objective.coarse") + calls("moduli.objective.refine")
    ev = leaves.get("eval", [0, 0, 0.0, 0.0])
    sup = leaves.get("support", [0, 0, 0.0, 0.0])
    m = {
        "trace.wall_s": wall,
        "trace.self_sum_ratio": sum(layer_self.values()) / wall,
        "bench.self_s": layer_self["bench"],
        "verify.cache_lookups": lookups,
        "verify.cache_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "verify.self_s": layer_self["verify"],
        "engine.calls": engine_calls,
        "engine.objective_calls": objective_calls,
        "engine.objective_calls_per_point": objective_calls / engine_calls if engine_calls else 0.0,
        "engine.coarse_rows": rows("moduli.objective.coarse"),
        "engine.refine_rows": rows("moduli.objective.refine"),
        "engine.coarse_s": incl("moduli.objective.coarse"),
        "engine.refine_s": incl("moduli.objective.refine"),
        "engine.self_s": layer_self["engine"],
        "moduli.points": sum(calls("moduli.point." + f) for f in KIND_FAMILIES),
        "moduli.self_s": layer_self["moduli"],
        "moduli.chord_calls": calls("moduli.chord"),
        "moduli.chord_rows": rows("moduli.chord"),
        "moduli.chord_steps": calls("moduli.chord") * chord_iterations,
        "moduli.chord_s": incl("moduli.chord"),
        "moduli.d_minus_s": incl("moduli.d_minus"),
        "moduli.witness_calls": calls("moduli.witness"),
        "moduli.witness_s": incl("moduli.witness"),
    }
    for f in KIND_FAMILIES:
        durations = by_name["moduli.point." + f][3] if "moduli.point." + f in by_name else []
        m["moduli.point_ms." + f] = 1000.0 * statistics.median(durations) if durations else 0.0
    m.update(
        {
            "triangle.lambda_calls": calls("triangle.lambda"),
            "triangle.lambda_rows": rows("triangle.lambda"),
            "triangle.lambda_s": incl("triangle.lambda"),
            "triangle.self_s": layer_self["triangle"],
            "norms.eval_calls": ev[0],
            "norms.eval_rows": ev[1],
            "norms.rows_per_eval_call": ev[1] / ev[0] if ev[0] else 0.0,
            "norms.eval_s": ev[2],
            "norms.support_calls": sup[0],
            "norms.support_rows": sup[1],
            "norms.support_s": sup[2],
            "norms.self_s": layer_self["norms"],
        }
    )
    return m


def unit_of(name: str) -> str:
    """Unit of a layer_metrics name."""
    if ".point_ms." in name:
        return "ms"
    for suffix, unit in (
        ("_ratio", "ratio"),
        ("_per_point", "calls/point"),
        ("_per_eval_call", "rows/call"),
        ("_s", "s"),
        ("_rows", "rows"),
        ("_steps", "steps"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


# the base of every ratio in layer_metrics, for the per-layer table
RATIO_BASES = {
    "trace.self_sum_ratio": "sum of the layers' self times over trace.wall_s",
    "verify.cache_hit_ratio": "hits over verify.cache_lookups",
    "engine.objective_calls_per_point": "engine.objective_calls over engine.calls",
    "norms.rows_per_eval_call": "norms.eval_rows over norms.eval_calls",
    "trace.overhead_ratio": "median traced pass wall over median untraced pass wall, minus 1",
}
