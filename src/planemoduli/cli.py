"""Command-line front end: modulus curves, verification suites, probes, figures.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    InputError,
    PreconditionError,
    RepresentationError,
    UnsupportedNormError,
)
from .moduli import (
    ModulusKind,
    canonical_json,
    curve_to_csv,
    curve_to_json_dict,
    hilbert_reference,
    modulus_curve,
)
from .norms import (
    Norm,
    euclidean_norm,
    lp_norm,
    norm_from_json,
    polygon_norm,
    regular_polygon_norm,
    weighted_lp_norm,
)
from .triangle import build_figure, quasi_normal_cone
from .verify import (
    PROBE_FAMILIES,
    SuiteSettings,
    default_suite,
    probe_conjectures,
    run_suite,
)

_NAMED_NORMS = {
    "square": lambda: lp_norm("inf"),
    "diamond": lambda: lp_norm(1),
    "hexagon": lambda: regular_polygon_norm(6),
    "octagon": lambda: regular_polygon_norm(8),
}


def parse_norm_token(token: str) -> Norm:
    """Build a norm from a CLI token.

    Accepted forms: euclidean | lp:p (p >= 1 or inf) | weighted-lp:p:w1:w2 |
    polygon:file.json | square | diamond | hexagon | octagon | inline JSON |
    path to a norm JSON file.
    """
    token = token.strip()
    if token == "euclidean":
        return euclidean_norm()
    if token in _NAMED_NORMS:
        return _NAMED_NORMS[token]()
    if token.startswith("lp:"):
        return lp_norm(_number(token[3:], "p"))
    if token.startswith("weighted-lp:"):
        parts = token.split(":")
        if len(parts) != 4:
            raise InputError("weighted-lp norm takes weighted-lp:p:w1:w2")
        return weighted_lp_norm(*(_number(part, "weighted-lp parameter") for part in parts[1:]))
    if token.startswith("polygon:"):
        return _norm_from_file(token[len("polygon:") :])
    if token.startswith("{"):
        try:
            return norm_from_json(json.loads(token))
        except json.JSONDecodeError as exc:
            raise InputError(f"inline norm is not valid JSON: {exc}") from exc
    if token.endswith(".json"):
        return _norm_from_file(token)
    raise InputError(
        f"unrecognized norm {token!r}; expected euclidean, lp:p, weighted-lp:p:w1:w2, "
        "polygon:file.json, a named polygon (square/diamond/hexagon/octagon), "
        "inline JSON, or a .json file path"
    )


def _number(text: str, what: str) -> float:
    """float(text), which also reads inf and infinity in any case, or an
    InputError that names the argument."""
    try:
        return float(text)
    except ValueError:
        raise InputError(f"{what}: expected a number, got {text.strip()!r}") from None


def _norm_from_file(path: str) -> Norm:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise InputError(f"norm file {path} is not valid JSON: {exc}") from None
    if isinstance(data, list):
        return polygon_norm(data)
    return norm_from_json(data)


def parse_eps_range(token: str) -> list[float]:
    """A single eps value, or an inclusive range 'a:b:step'."""
    token = token.strip()
    if ":" not in token:
        value = _number(token, "eps")
        if not math.isfinite(value):
            raise InputError("eps must be finite")
        return [value]
    parts = token.split(":")
    if len(parts) != 3:
        raise InputError("eps range takes the form a:b:step")
    a, b, step = (_number(part, "eps range") for part in parts)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(step)):
        raise InputError("eps range endpoints and step must be finite")
    if step <= 0.0 or b < a:
        raise InputError("eps range needs step > 0 and b >= a")
    n = int(math.floor((b - a) / step + 1e-9))
    values = [a + i * step for i in range(n + 1)]
    if abs(values[-1] - b) <= 1e-9 * max(1.0, abs(b)):
        values[-1] = b  # accumulated steps may overshoot b by an ulp
    return values


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_compute(args: argparse.Namespace) -> int:
    norm = parse_norm_token(args.norm)
    kind = ModulusKind.parse(args.modulus)
    grid = parse_eps_range(args.eps)
    curve = modulus_curve(
        norm,
        kind,
        grid,
        grid_n=args.grid_n,
        refine_rounds=args.refine_rounds,
        cone_samples=args.cone_samples,
    )
    if args.format == "csv":
        _emit(curve_to_csv(curve, with_hilbert=args.with_hilbert), args.out)
        if args.witnesses:
            if args.out is None:
                raise InputError("--witnesses with csv output needs --out for the sidecar file")
            sidecar = {
                "kind": kind.token(),
                "norm": norm.to_json_dict(),
                "witnesses": [{"eps": s.eps, "witness": s.witness} for s in curve.samples],
            }
            _emit(canonical_json(sidecar) + "\n", args.out + ".witnesses.json")
    else:
        doc = curve_to_json_dict(curve, include_witnesses=args.witnesses)
        if args.with_hilbert:
            for row in doc["samples"]:
                row["hilbert"] = hilbert_reference(kind, row["eps"])
        _emit(canonical_json(doc) + "\n", args.out)
    return 0


def _suite_settings(args: argparse.Namespace) -> SuiteSettings:
    return SuiteSettings(
        grid_n=args.grid_n,
        refine_rounds=args.refine_rounds,
        cone_samples=args.cone_samples,
        grid_n_2d=args.grid_n_2d,
    )


def cmd_verify(args: argparse.Namespace) -> int:
    norms = [parse_norm_token(t) for t in args.norm] if args.norm else None
    checks = [t for t in args.checks.split(",") if t.strip()] if args.checks else None
    specs = default_suite(norms, slack=args.slack, eps_points=args.eps_points, checks=checks)
    report = run_suite(specs, settings=_suite_settings(args), seed=args.seed)
    for rec in report.checks:
        worst = "n/a" if math.isinf(rec.worst_margin) else f"{rec.worst_margin:.3e}"
        extra = f", {len(rec.skipped)} skipped" if rec.skipped else ""
        print(f"{rec.id}: {rec.status} (worst margin {worst}{extra})", file=sys.stderr)
    _emit(canonical_json(report.to_json_dict()) + "\n", args.out)
    return 0 if report.passed() else 1


def cmd_probe(args: argparse.Namespace) -> int:
    report = probe_conjectures(args.family, args.count, args.seed, eps_points=args.eps_points)
    for rec in report.checks:
        w = rec.witness["worst"]
        print(
            f"{rec.id}: report-only, worst margin {rec.worst_margin:.3e} "
            f"({w['norm']}, eps={w['eps']:.4g}, {w['relation']})",
            file=sys.stderr,
        )
    _emit(canonical_json(report.to_json_dict()) + "\n", args.out)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.sphere_points < 1:
        raise InputError(f"--sphere-points must be at least 1, got {args.sphere_points}")
    norm = parse_norm_token(args.norm)
    x = norm.sphere_point(args.theta_x)
    if args.y_angle is not None:
        y = norm.sphere_point(args.y_angle)
    else:
        cone = quasi_normal_cone(norm, x)
        y = norm.sphere_point(0.5 * (cone.theta_lo + cone.theta_hi))
    fig = build_figure(norm, x, y, args.eps)
    thetas = np.linspace(0.0, 2.0 * math.pi, args.sphere_points, endpoint=False)
    sphere = [[float(p[0]), float(p[1])] for p in (norm.sphere_point(t) for t in thetas)]
    sphere.append(sphere[0])
    doc = {"figure": fig.to_json_dict(), "residuals": fig.residuals(), "sphere": sphere}
    _emit(canonical_json(doc) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planemoduli",
        description="Geometric moduli of two-dimensional normed planes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="sample one modulus curve")
    c.add_argument("--norm", required=True, help="euclidean | lp:p | weighted-lp:p:w1:w2 | polygon:file | named | JSON")
    c.add_argument("--modulus", required=True, help="modulus kind token, e.g. phi-minus or delta-t:0.25")
    c.add_argument("--eps", required=True, help="single value or inclusive range a:b:step")
    c.add_argument(
        "--grid-n",
        type=int,
        default=1024,
        help="coarse angle scan, in points per full turn; at least 64 (default 1024); "
        "rho and milman scan 256 points per full turn on each axis",
    )
    c.add_argument("--refine-rounds", type=int, default=6, help="local refinement rounds (default 6)")
    c.add_argument("--cone-samples", type=int, default=17, help="directions per quasi-normal cone; at least 0 (default 17)")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--with-hilbert", action="store_true", help="add the Euclidean reference column")
    c.add_argument("--witnesses", action="store_true", help="export extremizer configurations as JSON")
    c.add_argument("--out", help="output path (default: stdout)")
    c.set_defaults(func=cmd_compute)

    v = sub.add_parser("verify", help="run the inequality suite")
    v.add_argument("--norm", action="append", help="repeatable; default is the standard seven-norm family")
    v.add_argument("--checks", help="comma-separated check ids (unique prefixes accepted)")
    v.add_argument("--slack", type=float, default=1e-3, help="additive tolerance on margins (default 1e-3)")
    v.add_argument("--eps-points", type=int, default=33, help="eps samples per check domain (default 33)")
    defaults = SuiteSettings()
    v.add_argument(
        "--grid-n",
        type=int,
        default=defaults.grid_n,
        help=f"coarse angle scan, in points per full turn; at least 64 (default {defaults.grid_n})",
    )
    v.add_argument("--refine-rounds", type=int, default=defaults.refine_rounds)
    v.add_argument("--cone-samples", type=int, default=defaults.cone_samples)
    v.add_argument(
        "--grid-n-2d",
        type=int,
        default=defaults.grid_n_2d,
        help=f"rho and milman scans, in points per full turn on each axis; at least 64 (default {defaults.grid_n_2d})",
    )
    v.add_argument("--seed", type=int, help="recorded in the report metadata")
    v.add_argument("--out", help="report JSON path (default: stdout)")
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe", help="probe the conjectured relations on a random norm family")
    p.add_argument("--family", required=True, choices=PROBE_FAMILIES)
    p.add_argument("--count", type=int, required=True, help="number of norms to sample")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps-points", type=int, default=5)
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_probe)

    f = sub.add_parser("figure", help="emit descent-figure coordinates and the unit sphere polyline")
    f.add_argument("--norm", required=True)
    f.add_argument("--theta-x", type=float, required=True, help="direction angle of x in radians")
    f.add_argument("--y-angle", type=float, help="direction angle of y (default: quasi-normal cone midpoint)")
    f.add_argument("--eps", type=float, required=True)
    f.add_argument("--sphere-points", type=int, default=256)
    f.add_argument("--out", help="figure JSON path (default: stdout)")
    f.set_defaults(func=cmd_figure)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DomainError, PreconditionError, RepresentationError, UnsupportedNormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
