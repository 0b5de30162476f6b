"""Moduli of planar norms: convexity, smoothness, and orthogonality curves.

Seventeen curve kinds are supported. In the descriptions below x, z range over
the unit sphere, p over norm-one supporting functionals, and y -| x means y is
quasi-orthogonal to x:

- ``delta``        inf of 1 - ||x+z||/2 over chords ||x-z|| = eps (convexity)
- ``banas``        sup of the same quantity (smoothness flavor)
- ``delta-t:t``    inf of 1 - ||t*x + (1-t)*z|| over chords (generalized)
- ``beta-t:t``     sup of the same quantity
- ``rho``          sup of (||x+y|| + ||x-y||)/2 - 1 over ||y|| = eps
- ``lambda-+/-``   extremes of the descent length lambda(x, y, eps), y -| x
- ``phi-+/-``      extremes of <p, x-z> over chords and p in J(x)
- ``zeta-+/-``     extremes of ||x + eps*y|| over y -| x
- ``gamma-+/-``    extremes of <p1 - p2, x1 - x2> over chords
- ``d-+/-``        extremes of the dual distance ||p1 - p2||_* over chords
- ``milman-+/-``   inf of max / sup of min of ||x +- eps*y|| - 1, y on the sphere

Every extremization is the deterministic grid-refine scheme from
:mod:`planemoduli.engine`, with polygon vertex angles (and the angles whose
chord partner is a vertex) injected into the coarse scan so non-smooth
extremal configurations are hit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import extremize
from .errors import DomainError, InfeasibleError, InputError, UnsupportedNormError
from .norms import Norm, norm_key, norm_to_json_dict, perp
from .triangle import lambda_point_batch

__all__ = [
    "ModulusKind",
    "CurveSample",
    "ModulusCurve",
    "ChordScans",
    "KIND_NAMES",
    "delta_t",
    "beta_t",
    "kind_domain",
    "modulus",
    "modulus_curve",
    "hilbert_reference",
    "reevaluate_witness",
    "AreaAdditivity",
    "area_additivity_check",
    "curve_to_csv",
    "parse_curve_csv",
    "rows_to_csv",
    "curve_to_json_dict",
    "canonical_json",
]

KIND_NAMES = (
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
    "delta-t",
    "beta-t",
)
_PARAMETRIC = ("delta-t", "beta-t")
_SUP_KINDS = frozenset(
    {"banas", "beta-t", "rho", "lambda-plus", "phi-plus", "zeta-plus", "gamma-plus", "d-plus", "milman-plus"}
)

CHORD_ITERATIONS = 46
_ENGINE_LAMBDA_TOL = 1e-7


@dataclass(frozen=True)
class ModulusKind:
    """A curve kind, optionally carrying the weight t of the generalized kinds."""

    name: str
    t: float | None = None

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise InputError(f"unknown modulus kind {self.name!r}; valid: {', '.join(KIND_NAMES)}")
        if self.name in _PARAMETRIC:
            if self.t is None or not (0.0 < float(self.t) < 1.0):
                raise DomainError(f"{self.name} needs a weight t strictly between 0 and 1")
            object.__setattr__(self, "t", float(self.t))
        elif self.t is not None:
            raise InputError(f"kind {self.name!r} takes no parameter")

    def token(self) -> str:
        return self.name if self.t is None else f"{self.name}:{self.t:g}"

    @staticmethod
    def parse(token: str) -> "ModulusKind":
        token = token.strip()
        if ":" in token:
            name, _, raw = token.partition(":")
            try:
                return ModulusKind(name, float(raw))
            except ValueError:
                raise InputError(f"cannot parse kind parameter in {token!r}") from None
        return ModulusKind(token)

    def is_sup(self) -> bool:
        return self.name in _SUP_KINDS


def delta_t(t: float) -> ModulusKind:
    return ModulusKind("delta-t", t)


def beta_t(t: float) -> ModulusKind:
    return ModulusKind("beta-t", t)


def kind_domain(kind: ModulusKind) -> tuple[float, float]:
    """Closed eps-domain (upper end inf for the unbounded kinds)."""
    if kind.name in ("lambda-minus", "lambda-plus"):
        return (0.0, 1.0)
    if kind.name in ("zeta-minus", "zeta-plus", "milman-minus", "milman-plus", "rho"):
        return (0.0, math.inf)
    return (0.0, 2.0)


@dataclass(frozen=True)
class CurveSample:
    eps: float
    value: float
    grid_n: int
    refine_tol: float
    witness: dict


@dataclass
class ModulusCurve:
    kind: ModulusKind
    norm: Norm
    samples: list[CurveSample] = field(default_factory=list)

    def eps(self) -> np.ndarray:
        return np.array([s.eps for s in self.samples])

    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])


# -- Hilbert-plane reference curves ------------------------------------------


def hilbert_reference(kind: ModulusKind, eps: float) -> float:
    """Closed-form value of the kind in the Euclidean plane."""
    e = float(eps)
    lo, hi = kind_domain(kind)
    if not (lo <= e <= hi):
        raise DomainError(f"eps={e} outside [{lo}, {hi}] for kind {kind.token()}")
    name = kind.name
    if name in ("delta", "banas"):
        return 1.0 - math.sqrt(1.0 - e * e / 4.0)
    if name in ("delta-t", "beta-t"):
        return 1.0 - math.sqrt(1.0 - kind.t * (1.0 - kind.t) * e * e)
    if name == "rho":
        return math.sqrt(1.0 + e * e) - 1.0
    if name in ("lambda-minus", "lambda-plus"):
        return 1.0 - math.sqrt(1.0 - e * e)
    if name in ("phi-minus", "phi-plus"):
        return e * e / 2.0
    if name in ("zeta-minus", "zeta-plus"):
        return math.sqrt(1.0 + e * e)
    if name in ("gamma-minus", "gamma-plus"):
        return e * e
    if name in ("d-minus", "d-plus"):
        return e
    if name in ("milman-minus", "milman-plus"):
        return math.sqrt(1.0 + e * e) - 1.0
    raise InputError(f"unhandled kind {name!r}")


# -- chord solving -------------------------------------------------------------


def _chord_offsets_rows(
    norm: Norm, thetas: np.ndarray, targets: np.ndarray, eps: float, sides: np.ndarray, is_far: np.ndarray
) -> np.ndarray:
    """Per row, an arc offset u in [0, pi] with ||S(theta + side*u) - target|| = eps.

    Chord length from a fixed sphere point is nondecreasing along each arc to
    the antipode, so bisection applies. The chord-eps level set may be a flat
    arc (polygon facets); rows with is_far False converge to its end nearest
    the start, rows with is_far True to the opposite end (both coincide for
    strictly convex norms). side and edge vary per row so that all branches
    share one bisection loop.
    """
    lo = np.zeros_like(thetas)
    hi = np.full_like(thetas, np.pi)
    top = np.asarray(norm(norm.sphere_point(thetas + sides * np.pi) - targets))
    if np.any(top < eps - 1e-9):
        raise InfeasibleError(f"no chord of length {eps} from some sphere point")
    # a small band around eps keeps rounding noise on flat stretches from
    # flipping the membership test and collapsing the far edge onto the near one
    band = 1e-11 * max(1.0, eps)
    near_thr = eps - band
    far_thr = eps + band
    for _ in range(CHORD_ITERATIONS):
        mid = 0.5 * (lo + hi)
        c = np.asarray(norm(norm.sphere_point(thetas + sides * mid) - targets))
        move_hi = np.where(is_far, c > far_thr, c >= near_thr)
        hi = np.where(move_hi, mid, hi)
        lo = np.where(move_hi, lo, mid)
    return np.where(is_far, lo, hi)


def _chord_offsets(
    norm: Norm, thetas: np.ndarray, targets: np.ndarray, eps: float, side: float, edge: str = "near"
) -> np.ndarray:
    """Single-branch chord offsets; see _chord_offsets_rows."""
    sides = np.full(thetas.shape, float(side))
    is_far = np.full(thetas.shape, edge == "far")
    return _chord_offsets_rows(norm, thetas, targets, eps, sides, is_far)


_CHORD_BRANCHES = ((1.0, "near"), (1.0, "far"), (-1.0, "near"), (-1.0, "far"))


def _chord_points(norm: Norm, thetas: np.ndarray, eps: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sphere points X at the given angles and the candidate chord partners Z
    with ||X - Z|| = eps: both ends of the level set on both arc sides."""
    X = norm.sphere_point(thetas)
    n = len(thetas)
    sides = np.repeat([s for s, _ in _CHORD_BRANCHES], n)
    is_far = np.repeat([e == "far" for _, e in _CHORD_BRANCHES], n)
    th = np.tile(thetas, len(_CHORD_BRANCHES))
    u = _chord_offsets_rows(norm, th, np.tile(X, (len(_CHORD_BRANCHES), 1)), eps, sides, is_far)
    Z = norm.sphere_point(th + sides * u)
    return X, [Z[i * n : (i + 1) * n] for i in range(len(_CHORD_BRANCHES))]


@dataclass(frozen=True)
class _ChordScan:
    thetas: np.ndarray
    X: np.ndarray
    Zs: tuple[np.ndarray, ...]


class ChordScans:
    """Coarse chord scans of one run, keyed by (norm, eps, grid_n).

    The chord kinds (delta, banas, delta-t, beta-t, phi, gamma, d) bisect the
    same chords ||x - z|| = eps on the same coarse theta grid and differ only
    in what they evaluate on them. The first chord evaluation of a key is the
    engine's coarse scan: its thetas, sphere points X and partners Zs are kept
    read-only, and a later evaluation reuses them only when its theta array is
    bitwise identical to the kept one. Refine stencils are never kept, and a
    scan that raises is not kept either.
    """

    def __init__(self):
        self._scans: dict[tuple, _ChordScan] = {}

    def __len__(self) -> int:
        return len(self._scans)

    def chord_points(self, norm: Norm, eps: float, grid_n: int):
        """_chord_points for one (norm, eps), through the kept coarse scan."""
        key = (norm_key(norm), eps, int(grid_n))

        def points(thetas: np.ndarray):
            scan = self._scans.get(key)
            if scan is not None and scan.thetas.shape == thetas.shape and scan.thetas.tobytes() == thetas.tobytes():
                return scan.X, scan.Zs
            X, Zs = _chord_points(norm, thetas, eps)
            if scan is None:
                scan = _ChordScan(np.array(thetas, dtype=float), X, tuple(Zs))
                for a in (scan.thetas, X, *Zs):
                    a.setflags(write=False)
                self._scans[key] = scan
            return X, Zs

        return points


def _special_theta_extras(norm: Norm, eps: float, chord_partners: bool) -> list[list[float]]:
    """Coarse-scan injection angles: polygon vertices, plus the angles whose
    chord partner at distance eps lands exactly on a vertex."""
    base = np.mod(norm.special_angles(), 2.0 * np.pi)
    if base.size == 0:
        return []
    angles = [base]
    if chord_partners and 0.0 < eps <= 2.0:
        V = norm.sphere_point(base)
        for side in (1.0, -1.0):
            u = _chord_offsets(norm, base, V, eps, side)
            angles.append(np.mod(base + side * u, 2.0 * np.pi))
    return [[float(a)] for a in np.concatenate(angles)]


# -- family evaluators ---------------------------------------------------------


def _reduce(kind: ModulusKind, stack: np.ndarray) -> np.ndarray:
    """Collapse inner configuration axes (axis 0) by the kind's extremum."""
    return np.max(stack, axis=0) if kind.is_sup() else np.min(stack, axis=0)


def _midweight(kind: ModulusKind) -> float:
    return 0.5 if kind.name in ("delta", "banas") else float(kind.t)


def _values_midpoint(norm: Norm, kind: ModulusKind, X: np.ndarray, Zs) -> np.ndarray:
    t = _midweight(kind)
    per_side = [1.0 - np.asarray(norm(t * X + (1.0 - t) * Z)) for Z in Zs]
    return _reduce(kind, np.stack(per_side))


def _values_phi(norm: Norm, kind: ModulusKind, X: np.ndarray, Zs) -> np.ndarray:
    pm, pp = norm._support_batch(X)
    vals = []
    for Z in Zs:
        D = X - Z
        for P in (pm, pp):
            vals.append(np.sum(P * D, axis=-1))
    return _reduce(kind, np.stack(vals))


def _values_gamma(norm: Norm, kind: ModulusKind, X: np.ndarray, Zs) -> np.ndarray:
    pm1, pp1 = norm._support_batch(X)
    vals = []
    for Z in Zs:
        D = X - Z
        pm2, pp2 = norm._support_batch(Z)
        for P1 in (pm1, pp1):
            for P2 in (pm2, pp2):
                vals.append(np.sum((P1 - P2) * D, axis=-1))
    return _reduce(kind, np.stack(vals))


def _d_minus_over_segments(dual: Norm, pm1, pp1, pm2, pp2, with_args: bool = False):
    """Rowwise min of ||p1(s) - p2(t)||_* over the two support segments.

    The map is convex in (s, t), so the minimum may sit in the interior; a
    33x33 grid plus three shrink rounds resolves it. Rows where both segments
    are degenerate take the direct value. with_args additionally returns the
    minimizing (s, t) per row.
    """
    out = np.asarray(dual(pm1 - pm2), dtype=float).copy()
    s_out = np.zeros_like(out)
    t_out = np.zeros_like(out)
    live = (np.asarray(dual(pp1 - pm1)) > 1e-12) | (np.asarray(dual(pp2 - pm2)) > 1e-12)
    rows = np.nonzero(live)[0]
    if rows.size == 0:
        return (out, s_out, t_out) if with_args else out
    d1 = (pp1 - pm1)[rows]
    d2 = (pp2 - pm2)[rows]
    b1 = pm1[rows]
    b2 = pm2[rows]
    grid = np.linspace(0.0, 1.0, 33)
    S, T = np.meshgrid(grid, grid, indexing="ij")
    sf, tf = S.ravel(), T.ravel()
    G = np.asarray(dual((b1[:, None, :] + sf[None, :, None] * d1[:, None, :]) - (b2[:, None, :] + tf[None, :, None] * d2[:, None, :])))
    j = np.argmin(G, axis=1)
    best = G[np.arange(len(rows)), j]
    sc, tc = sf[j], tf[j]
    w = 1.0 / 32.0
    for _ in range(3):
        offs = np.linspace(-0.5, 0.5, 9) * w
        SS = np.clip(sc[:, None, None] + offs[None, :, None], 0.0, 1.0)
        TT = np.clip(tc[:, None, None] + offs[None, None, :], 0.0, 1.0)
        Sg = np.broadcast_to(SS, (len(rows), 9, 9)).reshape(len(rows), -1)
        Tg = np.broadcast_to(TT, (len(rows), 9, 9)).reshape(len(rows), -1)
        P1 = b1[:, None, None, :] + SS[..., None] * d1[:, None, None, :]
        P2 = b2[:, None, None, :] + TT[..., None] * d2[:, None, None, :]
        Gr = np.asarray(dual(P1 - P2)).reshape(len(rows), -1)
        jj = np.argmin(Gr, axis=1)
        better = Gr[np.arange(len(rows)), jj] < best
        best = np.where(better, Gr[np.arange(len(rows)), jj], best)
        sc = np.where(better, Sg[np.arange(len(rows)), jj], sc)
        tc = np.where(better, Tg[np.arange(len(rows)), jj], tc)
        w /= 4.0
    take = best < out[rows]
    out[rows] = np.where(take, best, out[rows])
    s_out[rows] = np.where(take, sc, 0.0)
    t_out[rows] = np.where(take, tc, 0.0)
    return (out, s_out, t_out) if with_args else out


def _values_d(norm: Norm, kind: ModulusKind, X: np.ndarray, Zs, dual: Norm) -> np.ndarray:
    pm1, pp1 = norm._support_batch(X)
    vals = []
    for Z in Zs:
        pm2, pp2 = norm._support_batch(Z)
        if kind.name == "d-plus":
            # convex in (s, t): the sup sits at segment endpoints
            for P1 in (pm1, pp1):
                for P2 in (pm2, pp2):
                    vals.append(np.asarray(dual(P1 - P2)))
        else:
            vals.append(_d_minus_over_segments(dual, pm1, pp1, pm2, pp2))
    return _reduce(kind, np.stack(vals))


def _qn_directions(norm: Norm, X: np.ndarray, cone_samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quasi-normal directions for each row of X.

    Returns (rows, Xc, Yc): flattened configuration arrays where smooth rows
    contribute one direction and vertex rows the cone endpoints plus an
    interior grid. Signs are handled by the caller.
    """
    pm, pp = norm._support_batch(X)
    wm = perp(pm)
    seglen = np.max(np.abs(pp - pm), axis=-1)
    smooth = seglen <= 1e-12
    rows_list = []
    X_list = []
    Y_list = []
    if np.any(smooth):
        idx = np.nonzero(smooth)[0]
        W = wm[idx]
        Y = W / np.asarray(norm(W))[..., None]
        rows_list.append(idx)
        X_list.append(X[idx])
        Y_list.append(Y)
    if not np.all(smooth):
        idx = np.nonzero(~smooth)[0]
        wp = perp(pp[idx])
        wmv = wm[idx]
        lo = np.arctan2(wmv[:, 1], wmv[:, 0])
        width = np.mod(np.arctan2(wp[:, 1], wp[:, 0]) - lo, 2.0 * np.pi)
        k = cone_samples + 2
        frac = np.linspace(0.0, 1.0, k)
        ang = lo[:, None] + width[:, None] * frac[None, :]
        Y = norm.sphere_point(ang.ravel())
        rows_list.append(np.repeat(idx, k))
        X_list.append(np.repeat(X[idx], k, axis=0))
        Y_list.append(Y)
    return np.concatenate(rows_list), np.concatenate(X_list), np.concatenate(Y_list)


def _values_qn(norm: Norm, kind: ModulusKind, eps: float, thetas: np.ndarray, cone_samples: int) -> np.ndarray:
    X = norm.sphere_point(thetas)
    rows, Xc, Yc = _qn_directions(norm, X, cone_samples)
    fill = -math.inf if kind.is_sup() else math.inf
    out = np.full(len(thetas), fill)
    reducer = np.maximum.at if kind.is_sup() else np.minimum.at
    # both orientations of each quasi-normal direction, in one batch
    X2 = np.concatenate([Xc, Xc])
    Y2 = np.concatenate([Yc, -Yc])
    if kind.name.startswith("lambda"):
        v = lambda_point_batch(norm, X2, Y2, eps, tol=_ENGINE_LAMBDA_TOL)
    else:
        v = np.asarray(norm(X2 + eps * Y2))
    reducer(out, np.concatenate([rows, rows]), v)
    return out


def _values_for(norm: Norm, kind: ModulusKind, eps: float, dual: Norm | None, cone_samples: int, chords):
    """The objective on theta rows; chords maps thetas to (X, Zs) as
    _chord_points does and serves the chord kinds."""
    name = kind.name
    if name in ("delta", "banas", "delta-t", "beta-t"):
        return lambda th: _values_midpoint(norm, kind, *chords(th))
    if name in ("phi-minus", "phi-plus"):
        return lambda th: _values_phi(norm, kind, *chords(th))
    if name in ("gamma-minus", "gamma-plus"):
        return lambda th: _values_gamma(norm, kind, *chords(th))
    if name in ("d-minus", "d-plus"):
        return lambda th: _values_d(norm, kind, *chords(th), dual)
    if name in ("lambda-minus", "lambda-plus", "zeta-minus", "zeta-plus"):
        return lambda th: _values_qn(norm, kind, eps, th, cone_samples)
    raise InputError(f"kind {name!r} is not a single-angle kind")


# -- witnesses -----------------------------------------------------------------


def _vec(v) -> list[float]:
    return [float(v[0]), float(v[1])]


def _describe_theta(norm: Norm, kind: ModulusKind, eps: float, theta: float, dual: Norm | None, cone_samples: int) -> dict:
    """Witness for a single-angle kind at the extremal theta: the concrete
    configuration (points, functionals, side) achieving the reported value."""
    name = kind.name
    pick_max = kind.is_sup()
    th = np.array([theta])
    best = None

    def consider(value: float, data: dict):
        nonlocal best
        if best is None or (value > best[0] if pick_max else value < best[0]):
            best = (value, data)

    if name in ("delta", "banas", "delta-t", "beta-t"):
        t = _midweight(kind)
        X, Zs = _chord_points(norm, th, eps)
        for (side, edge), Z in zip(_CHORD_BRANCHES, Zs):
            v = 1.0 - float(norm(t * X[0] + (1.0 - t) * Z[0]))
            consider(v, {"x": _vec(X[0]), "z": _vec(Z[0]), "side": int(side), "edge": edge})
        witness = {"theta_x": float(theta), **best[1]}
        if name in _PARAMETRIC:
            witness["t"] = t
    elif name in ("phi-minus", "phi-plus"):
        X, Zs = _chord_points(norm, th, eps)
        pm, pp = norm._support_batch(X)
        for (side, edge), Z in zip(_CHORD_BRANCHES, Zs):
            for P in (pm[0], pp[0]):
                v = float(np.dot(P, X[0] - Z[0]))
                consider(v, {"x": _vec(X[0]), "z": _vec(Z[0]), "p": _vec(P), "side": int(side), "edge": edge})
        witness = {"theta_x": float(theta), **best[1]}
    elif name in ("gamma-minus", "gamma-plus"):
        X, Zs = _chord_points(norm, th, eps)
        pm1, pp1 = norm._support_batch(X)
        for (side, edge), Z in zip(_CHORD_BRANCHES, Zs):
            pm2, pp2 = norm._support_batch(Z)
            for P1 in (pm1[0], pp1[0]):
                for P2 in (pm2[0], pp2[0]):
                    v = float(np.dot(P1 - P2, X[0] - Z[0]))
                    consider(
                        v,
                        {
                            "x1": _vec(X[0]),
                            "x2": _vec(Z[0]),
                            "p1": _vec(P1),
                            "p2": _vec(P2),
                            "side": int(side),
                            "edge": edge,
                        },
                    )
        witness = {"theta_x": float(theta), **best[1]}
    elif name in ("d-minus", "d-plus"):
        X, Zs = _chord_points(norm, th, eps)
        pm1, pp1 = norm._support_batch(X)
        for (side, edge), Z in zip(_CHORD_BRANCHES, Zs):
            pm2, pp2 = norm._support_batch(Z)
            if name == "d-plus":
                for P1 in (pm1[0], pp1[0]):
                    for P2 in (pm2[0], pp2[0]):
                        v = float(dual(P1 - P2))
                        consider(
                            v,
                            {
                                "x1": _vec(X[0]),
                                "x2": _vec(Z[0]),
                                "p1": _vec(P1),
                                "p2": _vec(P2),
                                "side": int(side),
                                "edge": edge,
                            },
                        )
            else:
                vals, s_arg, t_arg = _d_minus_over_segments(dual, pm1, pp1, pm2, pp2, with_args=True)
                s, tt = float(s_arg[0]), float(t_arg[0])
                P1 = pm1[0] + s * (pp1[0] - pm1[0])
                P2 = pm2[0] + tt * (pp2[0] - pm2[0])
                consider(
                    float(vals[0]),
                    {
                        "x1": _vec(X[0]),
                        "x2": _vec(Z[0]),
                        "p1": _vec(P1),
                        "p2": _vec(P2),
                        "side": int(side),
                        "edge": edge,
                        "s": s,
                        "t_seg": tt,
                    },
                )
        witness = {"theta_x": float(theta), **best[1]}
    elif name in ("lambda-minus", "lambda-plus", "zeta-minus", "zeta-plus"):
        X = norm.sphere_point(th)
        rows, Xc, Yc = _qn_directions(norm, X, cone_samples)
        for sgn in (1.0, -1.0):
            if name.startswith("lambda"):
                vs = lambda_point_batch(norm, Xc, sgn * Yc, eps, tol=_ENGINE_LAMBDA_TOL)
            else:
                vs = np.asarray(norm(Xc + eps * sgn * Yc))
            for i in range(len(Xc)):
                consider(float(vs[i]), {"x": _vec(Xc[i]), "y": _vec(sgn * Yc[i]), "y_sign": int(sgn)})
        witness = {"theta_x": float(theta), **best[1]}
    else:
        raise InputError(f"kind {name!r} is not a single-angle kind")
    witness["value"] = float(best[0])
    return witness


# -- main entry points -----------------------------------------------------------


def _convention_at_zero(kind: ModulusKind) -> float:
    return 1.0 if kind.name.startswith("zeta") else 0.0


def modulus(
    norm: Norm,
    kind: ModulusKind,
    eps: float,
    *,
    grid_n: int = 1024,
    refine_rounds: int = 6,
    cone_samples: int = 17,
    grid_n_2d: int = 256,
    chord_scans: ChordScans | None = None,
) -> CurveSample:
    """One point of a modulus curve, with its extremal witness.

    grid_n is the coarse angular resolution for single-angle kinds; the
    two-angle kinds (rho, milman) scan a grid_n_2d x grid_n_2d product grid.
    chord_scans lets the chord kinds of one run share their coarse chord
    bisection (see ChordScans); without it each call bisects its own.
    """
    eps = float(eps)
    lo, hi = kind_domain(kind)
    if not (lo <= eps <= hi) or not math.isfinite(eps):
        raise DomainError(f"eps={eps} outside [{lo}, {hi}] for kind {kind.token()}")
    if eps == 0.0:
        return CurveSample(
            eps=0.0,
            value=_convention_at_zero(kind),
            grid_n=int(grid_n),
            refine_tol=0.0,
            witness={"degenerate": True, "value": _convention_at_zero(kind)},
        )

    name = kind.name
    mode = "sup" if kind.is_sup() else "inf"
    two_pi = 2.0 * math.pi

    if name in ("rho", "milman-minus", "milman-plus"):
        res = _extremize_2d(norm, _objective_2d(norm, kind, eps), mode, grid_n_2d, refine_rounds)
        x = norm.sphere_point(res.point[0])
        y = (eps if name == "rho" else 1.0) * np.asarray(norm.sphere_point(res.point[1]))
        witness = {
            "theta_x": float(res.point[0]),
            "theta_y": float(res.point[1]),
            "x": _vec(x),
            "y": _vec(y),
            "value": float(res.value),
        }
        return CurveSample(eps, float(res.value), int(grid_n_2d), max(float(res.tol), 1e-12), witness)

    dual = norm.dual() if name.startswith("d-") else None
    chord_partners = name not in ("lambda-minus", "lambda-plus", "zeta-minus", "zeta-plus")
    extras = _special_theta_extras(norm, eps, chord_partners)
    scans = ChordScans() if chord_scans is None else chord_scans
    batch = _values_for(norm, kind, eps, dual, cone_samples, scans.chord_points(norm, eps, grid_n))
    res = extremize(
        lambda P: batch(P[:, 0]),
        [(0.0, two_pi)],
        mode=mode,
        grid_n=grid_n,
        refine_rounds=refine_rounds,
        extra_points=extras or None,
    )
    witness = _describe_theta(norm, kind, eps, float(res.point[0]), dual, cone_samples)
    return CurveSample(eps, float(res.value), int(grid_n), max(float(res.tol), 1e-12), witness)


def _objective_2d(norm: Norm, kind: ModulusKind, eps: float):
    """The two-angle objective of rho or milman on (theta_x, theta_y) rows."""
    if kind.name == "rho":

        def obj(P):
            X = norm.sphere_point(P[:, 0])
            Y = eps * norm.sphere_point(P[:, 1])
            return 0.5 * (np.asarray(norm(X + Y)) + np.asarray(norm(X - Y))) - 1.0

        return obj
    inner = np.maximum if kind.name == "milman-minus" else np.minimum

    def obj(P):
        X = norm.sphere_point(P[:, 0])
        Y = norm.sphere_point(P[:, 1])
        return inner(np.asarray(norm(X + eps * Y)), np.asarray(norm(X - eps * Y))) - 1.0

    return obj


def _extremize_2d(norm: Norm, obj, mode: str, grid_n_2d: int, refine_rounds: int):
    sp = np.mod(norm.special_angles(), 2.0 * math.pi)
    extras = None
    if sp.size:
        A, B = np.meshgrid(sp, sp, indexing="ij")
        extras = np.stack([A.ravel(), B.ravel()], axis=-1)
    box = [(0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)]
    return extremize(obj, box, mode=mode, grid_n=grid_n_2d, refine_rounds=refine_rounds, extra_points=extras)


def modulus_curve(
    norm: Norm,
    kind: ModulusKind,
    eps_grid,
    *,
    grid_n: int = 1024,
    refine_rounds: int = 6,
    cone_samples: int = 17,
    grid_n_2d: int = 256,
) -> ModulusCurve:
    """Modulus samples over a strictly increasing in-domain eps grid."""
    grid = [float(e) for e in eps_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("eps grid must be strictly increasing")
    lo, hi = kind_domain(kind)
    if grid and (grid[0] < lo or grid[-1] > hi):
        raise DomainError(f"eps grid outside [{lo}, {hi}] for kind {kind.token()}")
    samples = [
        modulus(norm, kind, e, grid_n=grid_n, refine_rounds=refine_rounds, cone_samples=cone_samples, grid_n_2d=grid_n_2d)
        for e in grid
    ]
    return ModulusCurve(kind=kind, norm=norm, samples=samples)


def reevaluate_witness(norm: Norm, kind: ModulusKind, eps: float, witness: dict) -> float:
    """Recompute the objective value from a stored witness configuration."""
    if witness.get("degenerate"):
        return _convention_at_zero(kind)
    name = kind.name
    get = lambda k: np.asarray(witness[k], dtype=float)
    if name in ("delta", "banas", "delta-t", "beta-t"):
        t = _midweight(kind)
        return 1.0 - float(norm(t * get("x") + (1.0 - t) * get("z")))
    if name in ("phi-minus", "phi-plus"):
        return float(np.dot(get("p"), get("x") - get("z")))
    if name in ("gamma-minus", "gamma-plus"):
        return float(np.dot(get("p1") - get("p2"), get("x1") - get("x2")))
    if name in ("d-minus", "d-plus"):
        return float(norm.dual()(get("p1") - get("p2")))
    if name in ("lambda-minus", "lambda-plus"):
        return float(lambda_point_batch(norm, get("x")[None, :], get("y")[None, :], eps, tol=_ENGINE_LAMBDA_TOL)[0])
    if name in ("zeta-minus", "zeta-plus"):
        return float(norm(get("x") + eps * get("y")))
    if name == "rho":
        x, y = get("x"), get("y")
        return 0.5 * (float(norm(x + y)) + float(norm(x - y))) - 1.0
    if name in ("milman-minus", "milman-plus"):
        x, y = get("x"), get("y")
        a, b = float(norm(x + eps * y)), float(norm(x - eps * y))
        return (max(a, b) if name == "milman-minus" else min(a, b)) - 1.0
    raise InputError(f"unhandled kind {name!r}")


# -- area additivity of the tangent-sweep curve ---------------------------------


@dataclass(frozen=True)
class AreaAdditivity:
    a1: float  # unit ball
    a2: float  # eps-scaled ball traced by the tangent directions
    a3: float  # sum curve
    defect: float  # a3 - a1 - a2


def area_additivity_check(norm: Norm, eps: float, samples: int = 4096) -> AreaAdditivity:
    """Shoelace areas of the sphere, the tangent sweep, and their pointwise sum.

    The sum of a smooth sphere parametrization and eps times its (norm-unit)
    tangent direction encloses exactly the sum of the two areas; the returned
    defect measures the numerical deviation. Non-smooth norms are rejected.
    """
    if not norm.is_smooth():
        raise UnsupportedNormError("area additivity requires a smooth norm")
    eps = float(eps)
    if eps < 0.0 or not math.isfinite(eps):
        raise DomainError("eps must be a nonnegative finite number")
    samples = int(samples)
    if samples < 16:
        raise InputError("samples must be at least 16")
    taus = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    F1 = norm.sphere_point(taus)
    P, _ = norm._support_batch(F1)
    T = perp(P)  # cross(x, perp(p)) = <p, x> = 1 > 0: consistent orientation
    F2 = eps * T / np.asarray(norm(T))[..., None]
    a1 = _shoelace(F1)
    a2 = _shoelace(F2) if eps > 0.0 else 0.0
    a3 = _shoelace(F1 + F2)
    return AreaAdditivity(a1=a1, a2=a2, a3=a3, defect=a3 - a1 - a2)


def _shoelace(V: np.ndarray) -> float:
    W = np.roll(V, -1, axis=0)
    return 0.5 * float(np.sum(V[:, 0] * W[:, 1] - V[:, 1] * W[:, 0]))


# -- serialization ----------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def curve_to_csv(curve: ModulusCurve, with_hilbert: bool = False) -> str:
    """CSV export; floats carry 17 significant digits so re-export is stable."""
    header = "eps,value,grid_n,refine_tol"
    if with_hilbert:
        header += ",hilbert"
    lines = [header]
    for s in curve.samples:
        row = f"{_fmt(s.eps)},{_fmt(s.value)},{s.grid_n},{_fmt(s.refine_tol)}"
        if with_hilbert:
            row += f",{_fmt(hilbert_reference(curve.kind, s.eps))}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def parse_curve_csv(text: str) -> list[dict]:
    """Rows of a curve CSV as dicts (witnesses are not part of the CSV format)."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or not lines[0].startswith("eps,value,grid_n,refine_tol"):
        raise InputError("not a modulus curve CSV")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) < 4:
            raise InputError(f"malformed CSV row: {ln!r}")
        rows.append(
            {
                "eps": float(parts[0]),
                "value": float(parts[1]),
                "grid_n": int(parts[2]),
                "refine_tol": float(parts[3]),
            }
        )
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    """Inverse of parse_curve_csv, byte-identical on a parse/format round trip."""
    lines = ["eps,value,grid_n,refine_tol"]
    for r in rows:
        lines.append(f"{_fmt(r['eps'])},{_fmt(r['value'])},{r['grid_n']},{_fmt(r['refine_tol'])}")
    return "\n".join(lines) + "\n"


def curve_to_json_dict(curve: ModulusCurve, include_witnesses: bool = False) -> dict:
    samples = []
    for s in curve.samples:
        row = {"eps": s.eps, "value": s.value, "grid_n": s.grid_n, "refine_tol": s.refine_tol}
        if include_witnesses:
            row["witness"] = s.witness
        samples.append(row)
    return {"kind": curve.kind.token(), "norm": norm_to_json_dict(curve.norm), "samples": samples}


def canonical_json(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
