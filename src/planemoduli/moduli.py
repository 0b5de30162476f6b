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
extremal configurations are hit exactly. ``modulus_batch`` solves the
single-angle points of one norm in lockstep, one objective call per engine
step for all of them, with the same results as one ``modulus`` call per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Problem, extremize, extremize_batch
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
    "modulus_batch",
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
    norm: Norm, thetas: np.ndarray, targets: np.ndarray, eps, sides: np.ndarray, is_far: np.ndarray
) -> np.ndarray:
    """Per row, an arc offset u in [0, pi] with ||S(theta + side*u) - target|| = eps.

    Chord length from a fixed sphere point is nondecreasing along each arc to
    the antipode, so bisection applies. The chord-eps level set may be a flat
    arc (polygon facets); rows with is_far False converge to its end nearest
    the start, rows with is_far True to the opposite end (both coincide for
    strictly convex norms). side, edge and eps (a scalar or one value per row)
    vary per row so that all branches and chord lengths share one bisection
    loop.
    """
    lo = np.zeros_like(thetas)
    hi = np.full_like(thetas, np.pi)
    top = np.asarray(norm(norm.sphere_point(thetas + sides * np.pi) - targets))
    short = top < eps - 1e-9
    if np.any(short):
        eps_short = float(np.broadcast_to(eps, short.shape)[short][0])
        raise InfeasibleError(f"no chord of length {eps_short} from some sphere point")
    # a small band around eps keeps rounding noise on flat stretches from
    # flipping the membership test and collapsing the far edge onto the near one
    band = 1e-11 * np.maximum(1.0, eps)
    near_thr = eps - band
    far_thr = eps + band
    for _ in range(CHORD_ITERATIONS):
        mid = 0.5 * (lo + hi)
        c = np.asarray(norm(norm.sphere_point(thetas + sides * mid) - targets))
        move_hi = np.where(is_far, c > far_thr, c >= near_thr)
        hi = np.where(move_hi, mid, hi)
        lo = np.where(move_hi, lo, mid)
    return np.where(is_far, lo, hi)


_CHORD_BRANCHES = ((1.0, "near"), (1.0, "far"), (-1.0, "near"), (-1.0, "far"))


def _chord_points(norm: Norm, thetas: np.ndarray, eps) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sphere points X at the given angles and the candidate chord partners Z
    with ||X - Z|| = eps (a scalar or one value per angle): both ends of the
    level set on both arc sides."""
    X = norm.sphere_point(thetas)
    n = len(thetas)
    b = len(_CHORD_BRANCHES)
    sides = np.repeat([s for s, _ in _CHORD_BRANCHES], n)
    is_far = np.repeat([e == "far" for _, e in _CHORD_BRANCHES], n)
    th = np.tile(thetas, b)
    u = _chord_offsets_rows(norm, th, np.tile(X, (b, 1)), np.tile(np.broadcast_to(eps, (n,)), b), sides, is_far)
    Z = norm.sphere_point(th + sides * u)
    return X, [Z[i * n : (i + 1) * n] for i in range(b)]


class _ChordScan:
    """Sphere points X at the angles thetas and their chord partners Zs, as
    _chord_points returns them, with the support endpoints of X and of each Z
    computed once, on first use."""

    def __init__(self, norm: Norm, thetas: np.ndarray, X: np.ndarray, Zs):
        self.norm, self.thetas, self.X, self.Zs = norm, thetas, X, tuple(Zs)
        self._frozen = False
        self._x_support = None
        self._z_supports = None

    def freeze(self) -> "_ChordScan":
        """Own copies of the arrays, read-only from now on, supports included."""
        self.thetas = np.array(self.thetas, dtype=float)
        self.X, self.Zs = self.X.copy(), tuple(Z.copy() for Z in self.Zs)
        self._frozen = True
        self._read_only(self.thetas, self.X, *self.Zs)
        return self

    def _read_only(self, *arrays):
        if self._frozen:
            for a in arrays:
                a.setflags(write=False)
        return arrays

    def x_support(self) -> tuple[np.ndarray, np.ndarray]:
        if self._x_support is None:
            self._x_support = self._read_only(*self.norm._support_batch(self.X))
        return self._x_support

    def z_supports(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._z_supports is None:
            self._z_supports = [self._read_only(*self.norm._support_batch(Z)) for Z in self.Zs]
        return self._z_supports


def _chord_scans(norm: Norm, requests) -> list[_ChordScan]:
    """One _ChordScan per (eps, thetas) request, all bisected in one call."""
    thetas = [th for _, th in requests]
    sizes = [len(th) for th in thetas]
    X, Zs = _chord_points(norm, np.concatenate(thetas), np.repeat([eps for eps, _ in requests], sizes))
    cuts = np.cumsum(sizes)[:-1]
    parts = zip(np.split(X, cuts), *(np.split(Z, cuts) for Z in Zs))
    return [_ChordScan(norm, th, x, zs) for th, (x, *zs) in zip(thetas, parts)]


def _partner_angles(norm: Norm, base: np.ndarray, eps_values) -> list[np.ndarray]:
    """Per eps, the angles whose near chord partner at distance eps is the
    sphere point at a base angle, on both arc sides, in one bisection."""
    n, m = len(base), len(eps_values)
    sides = np.tile(np.repeat([1.0, -1.0], n), m)
    th = np.tile(base, 2 * m)
    targets = np.tile(norm.sphere_point(base), (2 * m, 1))
    u = _chord_offsets_rows(norm, th, targets, np.repeat(eps_values, 2 * n), sides, np.zeros(2 * n * m, dtype=bool))
    return np.split(np.mod(th + sides * u, 2.0 * np.pi), m)


def _each_or_error(solve, requests) -> list:
    """solve(requests), which returns one result per request; when it raises
    InfeasibleError, each request is solved alone, so that the error goes only
    to the requests that raise it on their own."""
    if not requests:
        return []
    try:
        return solve(requests)
    except InfeasibleError as exc:
        if len(requests) == 1:
            return [exc]
        return [r for req in requests for r in _each_or_error(solve, [req])]


class ChordScans:
    """Chord data of one run: coarse chord scans keyed by (norm, eps, grid_n),
    and vertex chord-partner angles keyed by (norm, eps).

    The chord kinds (delta, banas, delta-t, beta-t, phi, gamma, d) bisect the
    same chords ||x - z|| = eps on the same coarse theta grid and differ only
    in what they evaluate on them. The first chord scan of a key is the
    engine's coarse scan: its thetas, sphere points X and partners Zs are kept
    read-only, together with their support endpoints once a kind needs them,
    and a later request reuses the scan only when its theta array is bitwise
    identical to the kept one. Refine stencils are never kept, and a scan that
    raises is not kept either. The partner angles of polygon vertices, which
    every chord kind injects into its coarse scan, are kept the same way.
    """

    def __init__(self):
        self._scans: dict[tuple, _ChordScan] = {}
        self._partners: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._scans)

    def chords(self, norm: Norm, grid_n: int, requests) -> list:
        """A _ChordScan per (eps, thetas) request, or the InfeasibleError the
        request raises alone. Requests that match a kept scan reuse it; all
        others go through one bisection, in which identical requests (equal
        eps and thetas) are solved once."""
        nkey = norm_key(norm)
        out = [None] * len(requests)
        groups: dict[tuple, list[int]] = {}
        for i, (eps, th) in enumerate(requests):
            kept = self._scans.get((nkey, eps, int(grid_n)))
            if kept is not None and kept.thetas.shape == th.shape and kept.thetas.tobytes() == th.tobytes():
                out[i] = kept
            else:
                groups.setdefault((eps, th.tobytes()), []).append(i)
        firsts = [requests[ix[0]] for ix in groups.values()]
        for (eps, _), ix, scan in zip(groups, groups.values(), _each_or_error(lambda r: _chord_scans(norm, r), firsts)):
            key = (nkey, eps, int(grid_n))
            if not isinstance(scan, InfeasibleError) and key not in self._scans:
                self._scans[key] = scan = scan.freeze()
            for i in ix:
                out[i] = scan
        return out

    def partner_angles(self, norm: Norm, eps_values) -> list:
        """Per eps, the coarse-scan angles whose chord partner at distance eps
        lands exactly on a polygon vertex (empty for smooth norms), or the
        InfeasibleError that eps raises alone. The eps values not kept yet are
        bisected in one call."""
        nkey = norm_key(norm)
        base = np.mod(norm.special_angles(), 2.0 * np.pi)
        if base.size == 0:
            return [base] * len(eps_values)
        missing = [e for e in dict.fromkeys(eps_values) if (nkey, e) not in self._partners]
        found = dict(zip(missing, _each_or_error(lambda es: _partner_angles(norm, base, es), missing)))
        for e, angles in found.items():
            if not isinstance(angles, InfeasibleError):
                angles.setflags(write=False)
                self._partners[(nkey, e)] = angles
        return [found[e] if e in found else self._partners[(nkey, e)] for e in eps_values]


# -- family evaluators ---------------------------------------------------------

_MIDPOINT_KINDS = frozenset({"delta", "banas", "delta-t", "beta-t"})
_QN_KINDS = frozenset({"lambda-minus", "lambda-plus", "zeta-minus", "zeta-plus"})
_TWO_ANGLE_KINDS = frozenset({"rho", "milman-minus", "milman-plus"})


def _reduce(kind: ModulusKind, stack: np.ndarray) -> np.ndarray:
    """Collapse inner configuration axes (axis 0) by the kind's extremum."""
    return np.max(stack, axis=0) if kind.is_sup() else np.min(stack, axis=0)


def _midweight(kind: ModulusKind) -> float:
    return 0.5 if kind.name in ("delta", "banas") else float(kind.t)


def _values_midpoint(norm: Norm, kind: ModulusKind, scan: _ChordScan) -> np.ndarray:
    t = _midweight(kind)
    per_side = [1.0 - np.asarray(norm(t * scan.X + (1.0 - t) * Z)) for Z in scan.Zs]
    return _reduce(kind, np.stack(per_side))


def _values_phi(norm: Norm, kind: ModulusKind, scan: _ChordScan) -> np.ndarray:
    pm, pp = scan.x_support()
    vals = []
    for Z in scan.Zs:
        D = scan.X - Z
        for P in (pm, pp):
            vals.append(np.sum(P * D, axis=-1))
    return _reduce(kind, np.stack(vals))


def _values_gamma(norm: Norm, kind: ModulusKind, scan: _ChordScan) -> np.ndarray:
    pm1, pp1 = scan.x_support()
    vals = []
    for Z, (pm2, pp2) in zip(scan.Zs, scan.z_supports()):
        D = scan.X - Z
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


def _values_d(norm: Norm, kind: ModulusKind, scan: _ChordScan, dual: Norm) -> np.ndarray:
    pm1, pp1 = scan.x_support()
    vals = []
    for pm2, pp2 in scan.z_supports():
        if kind.name == "d-plus":
            # convex in (s, t): the sup sits at segment endpoints
            for P1 in (pm1, pp1):
                for P2 in (pm2, pp2):
                    vals.append(np.asarray(dual(P1 - P2)))
        else:
            vals.append(_d_minus_over_segments(dual, pm1, pp1, pm2, pp2))
    return _reduce(kind, np.stack(vals))


def _chord_values(norm: Norm, kind: ModulusKind, scan: _ChordScan, dual: Norm | None) -> np.ndarray:
    if kind.name in _MIDPOINT_KINDS:
        return _values_midpoint(norm, kind, scan)
    if kind.name.startswith("phi"):
        return _values_phi(norm, kind, scan)
    if kind.name.startswith("gamma"):
        return _values_gamma(norm, kind, scan)
    return _values_d(norm, kind, scan, dual)


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


def _values_qn(norm: Norm, points, thetas, cone_samples: int) -> list[np.ndarray]:
    """Values of the lambda and zeta points (kind, eps) on their theta arrays:
    one sphere and quasi-normal pass for all of them, then one lambda
    bisection and one norm evaluation, each with one eps per row."""
    sizes = [len(th) for th in thetas]
    per_row = lambda values: np.repeat(values, sizes)  # noqa: E731
    X = norm.sphere_point(np.concatenate(thetas))
    rows, Xc, Yc = _qn_directions(norm, X, cone_samples)
    # both orientations of each quasi-normal direction, in one batch
    rows2 = np.concatenate([rows, rows])
    X2 = np.concatenate([Xc, Xc])
    Y2 = np.concatenate([Yc, -Yc])
    E2 = per_row([eps for _, eps in points])[rows2]
    lam = per_row([kind.name.startswith("lambda") for kind, _ in points])[rows2]
    v = np.empty(len(X2))
    if np.any(lam):
        v[lam] = lambda_point_batch(norm, X2[lam], Y2[lam], E2[lam], tol=_ENGINE_LAMBDA_TOL)
    if not np.all(lam):
        zeta = ~lam
        v[zeta] = np.asarray(norm(X2[zeta] + E2[zeta, None] * Y2[zeta]))
    hi = np.full(len(X), -math.inf)
    lo = np.full(len(X), math.inf)
    np.maximum.at(hi, rows2, v)
    np.minimum.at(lo, rows2, v)
    out = np.where(per_row([kind.is_sup() for kind, _ in points]), hi, lo)
    return np.split(out, np.cumsum(sizes)[:-1])


def _objective_1d(norm: Norm, points, dual: Norm | None, cone_samples: int, chords, failed: dict):
    """The lockstep objective of single-angle points (kind, eps): a list of
    (N_i, 1) theta arrays in, one per point, and their value arrays out.

    chords(requests) maps (eps, thetas) requests to chord scans or to the
    InfeasibleError a request raises alone, as ChordScans.chords does; all
    chord kinds of a step share one such call, and the lambda and zeta kinds
    one _values_qn pass. A point whose scan raises is recorded in failed
    (index -> error) and gets NaN values from then on.
    """
    chord = [i for i, (kind, _) in enumerate(points) if kind.name not in _QN_KINDS]
    qn = [i for i, (kind, _) in enumerate(points) if kind.name in _QN_KINDS]

    def objective(Ps):
        thetas = [P[:, 0] for P in Ps]
        out = [np.full(len(th), np.nan) for th in thetas]
        live = [i for i in chord if i not in failed]
        for i, scan in zip(live, chords([(points[i][1], thetas[i]) for i in live])):
            if isinstance(scan, InfeasibleError):
                failed[i] = scan
            else:
                out[i] = _chord_values(norm, points[i][0], scan, dual)
        if qn:
            for i, v in zip(qn, _values_qn(norm, [points[i] for i in qn], [thetas[i] for i in qn], cone_samples)):
                out[i] = v
        return out

    return objective


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
    bisection (see ChordScans); without it each call bisects its own. This is
    modulus_batch for a single point, raising the error it would return.
    """
    (out,) = _solve(norm, [(kind, eps)], grid_n, refine_rounds, cone_samples, grid_n_2d, chord_scans)
    if isinstance(out, Exception):
        raise out
    return out


def modulus_batch(
    norm: Norm,
    points,
    *,
    grid_n: int = 1024,
    refine_rounds: int = 6,
    cone_samples: int = 17,
    grid_n_2d: int = 256,
    chord_scans: ChordScans | None = None,
) -> list:
    """Many points (kind, eps) of one norm, solved together.

    The single-angle points run as one lockstep extremize_batch, so each
    engine step makes one objective call for all of them: one chord bisection
    for every chord kind (with the coarse scans shared through chord_scans, as
    in modulus) and one quasi-normal pass for the lambda and zeta kinds. The
    rho and milman points are searched one at a time (see _solve_two_angle).
    Witnesses are built per point, as in modulus. Each entry of the result is
    the CurveSample that modulus returns for that point (equal with ==,
    witness included) or the DomainError or InfeasibleError that it raises.
    """
    if len(points) == 1:
        # a lone point is a modulus() call, so that per-point profiling (such
        # as the perfbench tracer, which wraps modulus) still sees it
        settings = dict(grid_n=grid_n, refine_rounds=refine_rounds, cone_samples=cone_samples, grid_n_2d=grid_n_2d)
        try:
            return [modulus(norm, *points[0], **settings, chord_scans=chord_scans)]
        except (DomainError, InfeasibleError) as exc:
            return [exc]
    return _solve(norm, points, grid_n, refine_rounds, cone_samples, grid_n_2d, chord_scans)


def _extremize_all(objective, problems: list[Problem], **shared) -> list:
    """extremize_batch, except that a lone problem goes through extremize,
    the per-search entry point that profilers wrap."""
    if len(problems) == 1:
        (p,) = problems
        return [extremize(lambda P: objective([P])[0], p.bounds, p.mode, extra_points=p.extra_points, **shared)]
    return extremize_batch(objective, problems, **shared)


def _mode(kind: ModulusKind) -> str:
    return "sup" if kind.is_sup() else "inf"


def _solve(norm: Norm, points, grid_n, refine_rounds, cone_samples, grid_n_2d, chord_scans) -> list:
    """modulus_batch without the lone-point routing: domain errors and eps = 0
    conventions first, then the single-angle batch and the two-angle points."""
    out: list = []
    one_angle, two_angle = [], []
    for kind, eps in points:
        eps = float(eps)
        lo, hi = kind_domain(kind)
        if not (lo <= eps <= hi) or not math.isfinite(eps):
            out.append(DomainError(f"eps={eps} outside [{lo}, {hi}] for kind {kind.token()}"))
        elif eps == 0.0:
            value = _convention_at_zero(kind)
            out.append(CurveSample(0.0, value, int(grid_n), 0.0, {"degenerate": True, "value": value}))
        else:
            (two_angle if kind.name in _TWO_ANGLE_KINDS else one_angle).append(len(out))
            out.append((kind, eps))
    if one_angle:
        scans = ChordScans() if chord_scans is None else chord_scans
        solved = _solve_one_angle(norm, [out[i] for i in one_angle], grid_n, refine_rounds, cone_samples, scans)
        for i, sample in zip(one_angle, solved):
            out[i] = sample
    if two_angle:
        for i, sample in zip(two_angle, _solve_two_angle(norm, [out[i] for i in two_angle], grid_n_2d, refine_rounds)):
            out[i] = sample
    return out


def _solve_one_angle(norm: Norm, points, grid_n, refine_rounds, cone_samples, scans: ChordScans) -> list:
    """The single-angle points as one lockstep batch (see modulus_batch)."""
    two_pi = 2.0 * math.pi
    base = np.mod(norm.special_angles(), two_pi)
    chord_eps = [eps for kind, eps in points if kind.name not in _QN_KINDS]
    partners = dict(zip(chord_eps, scans.partner_angles(norm, chord_eps)))
    failed: dict = {}
    problems = []
    for j, (kind, eps) in enumerate(points):
        # polygon vertices, and for the chord kinds the angles whose chord
        # partner is a vertex, are injected into the coarse scan
        extra = base
        if kind.name not in _QN_KINDS:
            if isinstance(partners[eps], InfeasibleError):
                failed[j] = partners[eps]
            else:
                extra = np.concatenate([base, partners[eps]])
        problems.append(Problem([(0.0, two_pi)], _mode(kind), extra[:, None] if extra.size else None))
    dual = norm.dual() if any(kind.name.startswith("d-") for kind, _ in points) else None
    objective = _objective_1d(norm, points, dual, cone_samples, lambda r: scans.chords(norm, grid_n, r), failed)
    results = _extremize_all(objective, problems, grid_n=grid_n, refine_rounds=refine_rounds)
    out = []
    for j, ((kind, eps), res) in enumerate(zip(points, results)):
        if j in failed:
            out.append(failed[j])
            continue
        try:
            witness = _describe_theta(norm, kind, eps, float(res.point[0]), dual, cone_samples)
        except InfeasibleError as exc:
            out.append(exc)
            continue
        out.append(CurveSample(eps, float(res.value), int(grid_n), max(float(res.tol), 1e-12), witness))
    return out


def _solve_two_angle(norm: Norm, points, grid_n_2d, refine_rounds) -> list:
    """rho and milman points, each searched on its own. Their coarse scans
    are already thousands of rows, and a lockstep batch, which holds the
    coarse grids of all its searches at once, raised the peak memory without
    a measurable speed-up."""
    two_pi = 2.0 * math.pi
    sp = np.mod(norm.special_angles(), two_pi)
    extras = None
    if sp.size:
        A, B = np.meshgrid(sp, sp, indexing="ij")
        extras = np.stack([A.ravel(), B.ravel()], axis=-1)
    box = [(0.0, two_pi), (0.0, two_pi)]
    out = []
    for kind, eps in points:
        res = extremize(
            _objective_2d(norm, kind, eps), box, _mode(kind), grid_n=grid_n_2d, refine_rounds=refine_rounds, extra_points=extras
        )
        x = norm.sphere_point(res.point[0])
        y = (eps if kind.name == "rho" else 1.0) * np.asarray(norm.sphere_point(res.point[1]))
        witness = {
            "theta_x": float(res.point[0]),
            "theta_y": float(res.point[1]),
            "x": _vec(x),
            "y": _vec(y),
            "value": float(res.value),
        }
        out.append(CurveSample(eps, float(res.value), int(grid_n_2d), max(float(res.tol), 1e-12), witness))
    return out


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
    """Modulus samples over a strictly increasing in-domain eps grid, solved
    as one modulus_batch."""
    grid = [float(e) for e in eps_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("eps grid must be strictly increasing")
    lo, hi = kind_domain(kind)
    if grid and (grid[0] < lo or grid[-1] > hi):
        raise DomainError(f"eps grid outside [{lo}, {hi}] for kind {kind.token()}")
    samples = modulus_batch(
        norm, [(kind, e) for e in grid], grid_n=grid_n, refine_rounds=refine_rounds, cone_samples=cone_samples, grid_n_2d=grid_n_2d
    )
    for s in samples:
        if isinstance(s, Exception):
            raise s
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
