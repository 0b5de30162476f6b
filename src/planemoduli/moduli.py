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

On a polygonal norm the ten chord kinds (delta, banas, delta-t, beta-t,
phi, gamma, d) are exact: every configuration is piecewise affine in the
position of x on its edge, so each extreme sits at one of finitely many
breakpoint angles (x or its chord partner at a vertex, a switch of the
chord's active facet, and for banas and beta-t a switch of the midpoint's
active facet), and the value is the table's max or min over them
(_enumerate_chord_kinds). Their refine_tol is the rounding bound
_POLYGON_TOL, and grid_n and refine_rounds do not affect them. Every other
extremization is the deterministic grid-refine scheme from
:mod:`planemoduli.engine`, with polygon vertex angles injected into the
coarse scan so non-smooth extremal configurations are hit exactly; that
covers every kind on a smooth norm, and the lambda, zeta, rho and milman
kinds on a polygonal one. Every norm here is origin-symmetric,
so every objective is pi-periodic in each angle: (x, z) -> (-x, -z) keeps
every single-angle value, the lambda and zeta kinds take both signs of y,
and rho and milman are pi-periodic in theta_x and in theta_y. The searches
therefore run over the half turn [0, pi), and over [0, pi)^2 for rho and
milman. grid_n (and grid_n_2d) counts points per full turn: a search puts
max(64, ceil(grid_n / 2)) points on the half turn, the spacing 2 pi / grid_n
of a full-turn scan (for an even grid_n its cell centres are the first half
of the full turn's), with the engine's minimum of 64 points per axis.
``modulus_batch`` solves the single-angle points of one norm in lockstep, one
objective call per engine step for all of them, and the enumerated points of
one norm with one chord solve per eps, with the same results as one
``modulus`` call per point.
The chords ||x - z|| = eps and lambda are solved per row by the engine's
bracketed_roots, and the chords on polygonal norms in closed form.

Every kind is an extreme over concrete configurations at the angle of x, and
for rho and milman at the angles of x and y: a chord x, z on one of the
norm's chord branches (arc side, near or far end of the level set: four on a
polygonal norm, and two, the near end of each side, on a strictly convex
one, whose level set on a side is a single point), with supporting
functionals p in J(x) or p1 in J(x1), p2 in J(x2); a quasi-normal pair
(x, y); or, for rho and milman, the one pair x = S(theta_x), y = S(theta_y),
with y scaled by eps for rho. The kind's configuration table lists them
once, as a value array with a leading configuration axis and a row per angle
(or angle pair) of a scan, plus the named fields of each configuration (x,
z, p, x1, x2, p1, p2, side, edge, s, t_seg, y, y_sign). One dispatcher,
_tables, builds the tables of all the points of a batch: one chord solve for
the chord kinds (_chord_table), one quasi-normal pass for the lambda and
zeta kinds (_qn_tables) and two sphere points for rho and milman. The one
objective, _objective, reduces each table with one max or min over the
configuration axis, and the enumeration reduces the chord tables of its
breakpoint scans the same way. The witnesses of a batch come from one more
_tables call, on one-row scans at the winning angles: each is the first
extremal configuration of its point's table, and since a row has the same
bits alone as in a batch, its value is the sample value. reevaluate_witness
applies the same value expression (_config_value) to the stored fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Problem, bracketed_roots, extremize, extremize_batch
from .errors import DomainError, InputError, UnsupportedNormError
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
# the refine_tol of an enumerated chord modulus on a polygonal norm: a row
# within the supports' 1e-9 tie tolerance of a vertex takes both facet
# functionals, and a chord end lies within 1e-11 of its level set, so a value
# can be off the exact extreme by these times the objective's slopes; the
# largest gap seen against fine engine searches was 3.6e-9 (50 random
# polygons, 10 kinds, 9 eps from 1e-6 to 2)
_POLYGON_TOL = 1e-8


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
        """The kind as text; t is written with repr, which parses back to the
        same float, so that parse(token()) == self."""
        return self.name if self.t is None else f"{self.name}:{self.t!r}"

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


def _chord_lengths(norm: Norm, thetas: np.ndarray, targets: np.ndarray, sides: np.ndarray, u: np.ndarray) -> np.ndarray:
    """||S(theta + side*u) - target|| per row."""
    return np.asarray(norm(norm.sphere_point(thetas + sides * u) - targets))


def _bisected_ends(past: bool) -> tuple[float, float]:
    """The bracket CHORD_ITERATIONS halvings of [0, pi] end on when every
    midpoint is past the threshold (past True) or none is."""
    lo, hi = 0.0, math.pi
    for _ in range(CHORD_ITERATIONS):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if past else (mid, hi)
    return lo, hi


_ALL_PAST = _bisected_ends(True)
_NONE_PAST = _bisected_ends(False)


# crossing rows solved at once by _polygon_offsets: its (vertices, rows)
# temporaries stay small enough for the allocator to reuse, where larger
# ones were mapped and faulted in afresh on every call
_POLYGON_CHUNK = 1024


def _chord_offsets_rows(
    norm: Norm, thetas: np.ndarray, targets: np.ndarray, eps, sides: np.ndarray, is_far: np.ndarray
) -> np.ndarray:
    """Per row, an arc offset u in [0, pi] with ||S(theta + side*u) - target|| = eps.

    target is the sphere point S(theta). Chord length c(u) from a fixed sphere
    point is nondecreasing along each arc to the antipode, where it is exactly
    2 for every origin-symmetric norm: c(pi) is taken as 2, not evaluated, so
    every eps in [0, 2] has a chord on each arc. The chord-eps level
    set may be a flat arc (polygon facets); rows with is_far False return the
    end nearest the start, rows with is_far True the opposite end. Only
    polygonal norms are called with is_far rows: on a strictly convex norm
    the level set on each side is one point, and every solved row returns
    the near end, the upper end of its bracket. Each row answers for a
    threshold thr: c(u) >= thr at a near row's u, which comes no earlier
    than the crossing, and c(u) <= thr at a far row's u, which comes no
    later. On a polygonal norm thr lies just inside the level set, eps -
    band on a near row and eps + band on a far one, with band = 1e-11
    max(1, eps); on a strictly convex norm, where c is strictly increasing,
    thr = eps. A row with no crossing in (0, pi) gets the end
    CHORD_ITERATIONS halvings of [0, pi] converge to. On a polygonal norm
    the crossing is solved in closed form (_polygon_offsets); on a smooth
    one by engine.bracketed_roots, to the width of CHORD_ITERATIONS
    halvings. side, edge and eps (a scalar or one value per row) vary per
    row so that all branches and chord lengths share one solve; each row's
    result depends on that row alone.
    """
    eps = np.broadcast_to(np.asarray(eps, dtype=float), np.shape(thetas))
    polygon = norm._polygon()
    # on a polygonal norm, a small band around eps keeps rounding noise on
    # flat stretches from flipping the membership test and collapsing the far
    # edge onto the near one; a strictly convex norm has no flat stretch
    band = 0.0 if polygon is None else 1e-11 * np.maximum(1.0, eps)
    thr = np.where(is_far, eps + band, eps - band)
    # u is past the threshold when c(u) >= thr on a near row and c(u) > thr on
    # a far row, that is when the gap c(u) - thr is at least 0, or at least the
    # least positive float
    floor = np.where(is_far, np.nextafter(0.0, 1.0), 0.0)
    gap_lo, gap_hi = -thr, 2.0 - thr  # c(0) = 0, c(pi) = ||-x - x|| = 2
    # where u = 0 is past, every u is, and where pi is not, none is: those
    # rows get the bracket bisection ends on without evaluating c
    all_past = gap_lo >= floor
    u = np.where(all_past, np.where(is_far, *_ALL_PAST), np.where(is_far, *_NONE_PAST))
    # on a strictly convex norm c(u) < 2 before the antipode, so a row with
    # thr = 2 crosses at pi itself, the end an unsolved near row gets; solved,
    # it would stop wherever c(u) first rounds to 2, which on a nearly flat
    # sphere such as l_20's is far from pi; on a polygonal norm the band keeps
    # 2 - thr clear of the floor, so that > and >= pick the same rows there
    rows = np.flatnonzero(~all_past & (gap_hi > floor))
    if rows.size:
        th, target, side, far, thr_r, floor_r = (a[rows] for a in (thetas, targets, sides, is_far, thr, floor))
        if polygon is None:
            gap = lambda x, th, target, side, thr: _chord_lengths(norm, th, target, side, x) - thr  # noqa: E731
            u[rows] = bracketed_roots(gap, 0.0, math.pi, gap_lo[rows], gap_hi[rows], CHORD_ITERATIONS, th, target, side, thr_r)
        else:
            for lo in range(0, rows.size, _POLYGON_CHUNK):
                c = slice(lo, lo + _POLYGON_CHUNK)
                u[rows[c]] = _polygon_offsets(norm, polygon, th[c], target[c], side[c], far[c], thr_r[c], floor_r[c])
    return u


def _polygon_offsets(norm: Norm, polygon, th, target, side, far, thr, floor) -> np.ndarray:
    """The crossing rows of _chord_offsets_rows on a polygonal norm, in
    closed form.

    The threshold crossing lies on the edge from the last vertex on the arc
    that is not past thr (or x itself) to the first one that is (or -x),
    found by binary search since c is nondecreasing along the arc; past is
    c >= thr on a near row and c > thr on a far row, which also picks the
    right end of a flat level set. On that edge, z = P + t(Q - P) and
    ||x - z|| = max_j (alpha_j + t gamma_j) over the facet functionals, so the
    crossing is the least (thr - alpha_j) / gamma_j over gamma_j > 0. A row
    whose evaluated c(u) lands on the wrong side of thr is moved by doubling
    steps, a near row later and a far row earlier, until it does not, so that
    each row keeps the semantics of the ITP bracket as evaluated.
    """
    V = polygon.vertices
    n = len(V)
    two_pi = 2.0 * math.pi
    # arc offsets of the vertices from each row's start, on its side, one row
    # of W per vertex; the vertices strictly inside the half turn are a run of
    # consecutive indices
    W = np.mod(np.subtract.outer(np.arctan2(V[:, 1], V[:, 0]), th) * side, two_pi)
    on = (W > 0.0) & (W < math.pi)
    count = np.sum(on, axis=0)
    first = np.argmin(np.where(on, W, np.inf), axis=0)
    step = np.where(side > 0, 1, -1)
    # the place on the arc of the first vertex past thr (count if none is)
    lo, hi = np.zeros(len(th), dtype=int), count.copy()
    while True:
        act = np.flatnonzero(lo < hi)
        if not act.size:
            break
        mid = (lo[act] + hi[act]) // 2
        chord = target[act] - V[(first[act] + step[act] * mid) % n]
        past = polygon._eval(chord) - thr[act] >= floor[act]
        hi[act] = np.where(past, mid, hi[act])
        lo[act] = np.where(past, lo[act], mid + 1)
    k = np.arange(len(th))
    has_p, has_q = lo > 0, lo < count
    ip, iq = (first + step * (lo - 1)) % n, (first + step * lo) % n
    P = np.where(has_p[:, None], V[ip], target)
    Q = np.where(has_q[:, None], V[iq], -target)
    u_p = np.where(has_p, W[ip, k], 0.0)
    u_q = np.where(has_q, W[iq, k], math.pi)
    E = Q - P
    # facet-first, one row per facet functional
    alpha, gamma = polygon._scores(target - P), -polygon._scores(E)
    # aimed 16 ulps of max(1, eps) to the returned side of thr (above it on a
    # near row, below on a far one), beyond the rounding of an evaluated chord
    # length (a few ulps of the sphere points' size), so that the polish below
    # seldom runs
    aim = thr + np.where(far, -16.0, 16.0) * np.spacing(np.maximum(1.0, thr))
    rise = gamma > 0.0
    t = np.min(np.divide(aim - alpha, gamma, out=np.full_like(alpha, np.inf), where=rise), axis=0)
    Z = P + np.clip(t, 0.0, 1.0)[:, None] * E
    # the offset of Z's angle, reduced into the half turn around the edge
    d = side * (np.arctan2(Z[:, 1], Z[:, 0]) - th)
    centre = 0.5 * (u_p + u_q)
    u = np.clip(d - two_pi * np.round((d - centre) / two_pi), 0.0, math.pi)
    gap = _chord_lengths(norm, th, target, side, u) - thr
    bad = np.flatnonzero(np.where(far, gap >= floor, gap < floor))
    delta = math.ulp(math.pi)
    while bad.size and delta <= two_pi:  # the last step reaches the arc's end
        trial = np.clip(u[bad] + np.where(far[bad], -delta, delta), 0.0, math.pi)
        gap = _chord_lengths(norm, th[bad], target[bad], side[bad], trial) - thr[bad]
        ok = np.where(far[bad], gap < floor[bad], gap >= floor[bad])
        u[bad[ok]] = trial[ok]
        bad = bad[~ok]
        delta *= 2.0
    return u


_CHORD_BRANCHES = ((1.0, "near"), (1.0, "far"), (-1.0, "near"), (-1.0, "far"))
_NEAR_BRANCHES = tuple(b for b in _CHORD_BRANCHES if b[1] == "near")


def _chord_branches(norm: Norm) -> tuple:
    """The chord branches (arc side, end of the level set) of a norm: all
    four on a polygonal norm, whose level sets may be flat arcs, and the near
    end of each side on the others, which are strictly convex, so that the
    level set on a side is one point.

    Sharp l_p norms are strictly convex but numerically flat: 1 + r**p rounds
    to 1 for r below 1e-16**(1/p), about 0.69 at p = 100, so the evaluated
    c(u) has flat stretches as on a polygon facet, and there the near end
    alone can miss an extreme that the far end would reach; neither end is
    the exact crossing there. Against all four branches (far ends at thr =
    eps), at the modulus defaults and nine eps from 1e-6 to 2, the ten chord
    kinds moved by at most 0.05 refine_tol on lp:100, and by up to 25
    refine_tol on weighted-lp:100:1e4:1e-4 (phi-minus, gamma-minus, d-minus
    and delta-t:0.3 from eps 1.2 to 2)."""
    return _CHORD_BRANCHES if norm._polygon() is not None else _NEAR_BRANCHES


class _ChordScan:
    """Sphere points X at the angles thetas and their chord partners Zs, one
    array per chord branch of the norm, as _chord_scans solves them, with
    the support endpoints of X and of each Z computed once, on first use."""

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
    """One _ChordScan per (eps, thetas) request, all solved in one call: the
    sphere points X at the angles and their chord partners Z with
    ||X - Z|| = eps, one array per branch of _chord_branches (both ends of
    the level set on both arc sides on a polygonal norm, the one point on
    each side on a strictly convex one)."""
    thetas = [th for _, th in requests]
    sizes = [len(th) for th in thetas]
    X = norm.sphere_point(np.concatenate(thetas))
    branches = _chord_branches(norm)
    b, n = len(branches), len(X)
    sides = np.repeat([s for s, _ in branches], n)
    is_far = np.repeat([e == "far" for _, e in branches], n)
    rows = np.tile(np.concatenate(thetas), b)
    eps = np.tile(np.repeat([eps for eps, _ in requests], sizes), b)
    u = _chord_offsets_rows(norm, rows, np.tile(X, (b, 1)), eps, sides, is_far)
    Zs = np.split(norm.sphere_point(rows + sides * u), b)
    cuts = np.cumsum(sizes)[:-1]
    parts = zip(np.split(X, cuts), *(np.split(Z, cuts) for Z in Zs))
    return [_ChordScan(norm, th, x, zs) for th, (x, *zs) in zip(thetas, parts)]


def _half_turn_vertices(norm: Norm) -> np.ndarray:
    """The vertex angles of a polygonal norm mod pi, one per antipodal pair
    (empty for a smooth norm): the vertices are listed with v[i + n/2] =
    -v[i], so the first half of them holds each pair once."""
    angles = norm.special_angles()
    return np.mod(angles[: len(angles) // 2], math.pi)


def _half_turn_points(grid_n) -> int:
    """Coarse points per axis on the half turn [0, pi) for grid_n points per
    full turn: the full turn's spacing 2 pi / grid_n, and at least the
    engine's 64."""
    return max(64, -(-int(grid_n) // 2))


class ChordScans:
    """The coarse chord scans of one run, keyed by (norm, eps, grid_n).

    On a smooth norm the chord kinds (delta, banas, delta-t, beta-t, phi,
    gamma, d) solve the same chords ||x - z|| = eps on the same coarse theta
    grid and differ only in what they evaluate on them. The first chord scan
    of a key is the engine's coarse scan: its thetas, sphere points X and
    partners Zs are kept read-only, together with their support endpoints
    once a kind needs them, and a later request reuses the scan only when its
    theta array is bitwise identical to the kept one. Refine stencils are
    never kept. On a polygonal norm the chord kinds run no engine search and
    keep nothing here: each batch solves its breakpoint scans once for all
    its chord kinds (_enumerate_chord_kinds).
    """

    def __init__(self):
        self._scans: dict[tuple, _ChordScan] = {}

    def __len__(self) -> int:
        return len(self._scans)

    def chords(self, norm: Norm, grid_n: int, requests) -> list:
        """A _ChordScan per (eps, thetas) request. Requests that match a kept
        scan reuse it; all others go through one chord solve, in which
        identical requests (equal eps and thetas) are solved once."""
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
        for (eps, _), ix, scan in zip(groups, groups.values(), _chord_scans(norm, firsts) if firsts else []):
            key = (nkey, eps, int(grid_n))
            if key not in self._scans:
                self._scans[key] = scan = scan.freeze()
            for i in ix:
                out[i] = scan
        return out


# -- configuration tables ------------------------------------------------------
#
# A table is a (configurations, rows) value array, one row per scan angle,
# and a list with the fields of each configuration (see the module
# docstring); a field is an array with a row per scan row, or a constant.
# Table order is the witness order: the first extremal one wins.

_MIDPOINT_KINDS = frozenset({"delta", "banas", "delta-t", "beta-t"})
_QN_KINDS = frozenset({"lambda-minus", "lambda-plus", "zeta-minus", "zeta-plus"})
_TWO_ANGLE_KINDS = frozenset({"rho", "milman-minus", "milman-plus"})
# the lambda and zeta values do not depend on the sign of the kind
_LAMBDA, _ZETA = ModulusKind("lambda-minus"), ModulusKind("zeta-minus")


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> per row, from the two columns; the + 0.0 turns a -0.0 sum into
    the +0.0 that np.sum(a * b, axis=-1) gives, and changes nothing else."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + 0.0


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cross(a, b) per row, from the two columns."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _config_value(norm: Norm, kind: ModulusKind, eps, f: dict, dual: Norm | None) -> np.ndarray:
    """The kind's value of configurations from their fields, one per row; eps
    is a scalar or one value per row."""
    name = kind.name
    if name in _MIDPOINT_KINDS:
        t = 0.5 if name in ("delta", "banas") else kind.t
        return 1.0 - np.asarray(norm(t * f["x"] + (1.0 - t) * f["z"]))
    if name.startswith("phi"):
        return _dot(f["p"], f["x"] - f["z"])
    if name.startswith("gamma"):
        return _dot(f["p1"] - f["p2"], f["x1"] - f["x2"])
    if name.startswith("d-"):
        return np.asarray(dual(f["p1"] - f["p2"]))
    if name.startswith("lambda"):
        return lambda_point_batch(norm, f["x"], f["y"], eps, tol=_ENGINE_LAMBDA_TOL)
    if name.startswith("zeta"):
        return np.asarray(norm(f["x"] + np.asarray(eps)[..., None] * f["y"]))
    X, Y = f["x"], f["y"]  # for rho, y is already scaled by eps
    if name == "rho":
        return 0.5 * (np.asarray(norm(X + Y)) + np.asarray(norm(X - Y))) - 1.0
    inner = np.maximum if name == "milman-minus" else np.minimum
    return inner(np.asarray(norm(X + eps * Y)), np.asarray(norm(X - eps * Y))) - 1.0


def _chord_table(norm: Norm, kind: ModulusKind, scan: _ChordScan, dual: Norm | None) -> tuple[np.ndarray, list[dict]]:
    """The table of a chord kind on a chord scan, in witness order: per chord
    branch, then per functional p (or p1) of x, then p2 of z."""
    name = kind.name
    X = scan.X
    z_supports = scan.z_supports() if name.startswith(("gamma", "d-")) else [(None, None)] * len(scan.Zs)
    values, configs = [], []
    for (side, edge), Z, (pm2, pp2) in zip(_chord_branches(norm), scan.Zs, z_supports):
        branch = {"side": int(side), "edge": edge}
        if name == "d-minus":
            # ||p1 - p2||_* is convex in (s, t): the sup of d-plus sits at the
            # segment endpoints, the inf of d-minus is searched on the segments
            pm1, pp1 = scan.x_support()
            v, s, t = _d_minus_over_segments(dual, pm1, pp1, pm2, pp2)
            P1, P2 = pm1 + s[:, None] * (pp1 - pm1), pm2 + t[:, None] * (pp2 - pm2)
            values.append(v)
            configs.append({"x1": X, "x2": Z, "p1": P1, "p2": P2, **branch, "s": s, "t_seg": t})
            continue
        if name in _MIDPOINT_KINDS:
            fields = [{"x": X, "z": Z}]
        elif name.startswith("phi"):
            fields = [{"x": X, "z": Z, "p": P} for P in scan.x_support()]
        else:
            fields = [{"x1": X, "x2": Z, "p1": P1, "p2": P2} for P1 in scan.x_support() for P2 in (pm2, pp2)]
        values += [_config_value(norm, kind, None, f, dual) for f in fields]
        configs += [{**f, **branch} for f in fields]
    return np.stack(values), configs


# live d-minus rows valued at once: each holds 5 + 2n candidates, n the
# number of vertices of the dual ball, and n scores per candidate
_D_MINUS_CHUNK = 256


def _d_minus_over_segments(dual: Norm, pm1, pp1, pm2, pp2):
    """Rowwise min of ||p1(s) - p2(t)||_* over the two support segments, and
    the minimizing (s, t) per row.

    Rows where both segments are degenerate (every row of a smooth norm) take
    the value at s = t = 0. On the others, which only polygonal norms have,
    p1(s) - p2(t) sweeps a parallelogram, on which the polygonal dual gauge is
    linear in each cone between the rays through two adjacent vertices of its
    unit ball. So the minimum sits at a corner, where an edge crosses such a
    ray, or at the zero inside (_d_minus_candidates). The candidates are
    valued by dual itself, so that a replay of the returned (s, t) gives the
    returned value, and s = t = 0 wins ties.
    """
    out = np.asarray(dual(pm1 - pm2), dtype=float).copy()
    s_out = np.zeros_like(out)
    t_out = np.zeros_like(out)
    live = (np.asarray(dual(pp1 - pm1)) > 1e-12) | (np.asarray(dual(pp2 - pm2)) > 1e-12)
    rows = np.flatnonzero(live)
    if rows.size == 0:
        return out, s_out, t_out
    ball = dual._polygon()
    if ball is None:
        raise UnsupportedNormError("a support segment needs a polygonal norm, and so a polygonal dual")
    # one ray per line through the origin: the ball is origin-symmetric
    rays = ball.vertices[: len(ball.vertices) // 2]
    for chunk in np.array_split(rows, -(-rows.size // _D_MINUS_CHUNK)):
        b1, b2, d1, d2 = pm1[chunk], pm2[chunk], (pp1 - pm1)[chunk], (pp2 - pm2)[chunk]
        S, T = _d_minus_candidates(b1 - b2, d1, d2, rays)
        G = np.asarray(dual((b1[:, None] + S[..., None] * d1[:, None]) - (b2[:, None] + T[..., None] * d2[:, None])))
        j = np.argmin(G, axis=1)
        k = np.arange(len(chunk))
        best = G[k, j]
        take = best < out[chunk]
        out[chunk] = np.where(take, best, out[chunk])
        s_out[chunk] = np.where(take, S[k, j], 0.0)
        t_out[chunk] = np.where(take, T[k, j], 0.0)
    return out, s_out, t_out


def _d_minus_candidates(b, d1, d2, rays):
    """Candidate (s, t) in [0, 1]^2 per row for the minimum of a polygonal
    gauge over w(s, t) = b + s d1 - t d2: the 4 corners, the crossings of the
    4 edges with the lines through the origin along rays, and the zero of w.
    Shapes (k, 5 + 4 len(rays)), corners first, (0, 0) leading. A crossing
    or zero that does not exist (parallel lines) becomes (0, 0), and one
    outside the square is clipped into it: both are points of the
    parallelogram, so they never beat the minimum."""
    k, m = len(b), len(rays)
    r = rays[None, :, :]

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den != 0.0)

    S, T = [np.tile([0.0, 1.0, 0.0, 1.0], (k, 1))], [np.tile([0.0, 0.0, 1.0, 1.0], (k, 1))]
    for s0 in (0.0, 1.0):  # edge s = s0: cross(r, b + s0 d1 - t d2) = 0
        S.append(np.full((k, m), s0))
        T.append(ratio(_cross(r, (b + s0 * d1)[:, None]), _cross(r, d2[:, None])))
    for t0 in (0.0, 1.0):  # edge t = t0: cross(r, b - t0 d2 + s d1) = 0
        S.append(ratio(-_cross(r, (b - t0 * d2)[:, None]), _cross(r, d1[:, None])))
        T.append(np.full((k, m), t0))
    det = _cross(d1, -d2)  # s d1 - t d2 = -b by Cramer's rule
    S.append(ratio(_cross(-b, -d2), det)[:, None])
    T.append(ratio(_cross(d1, -b), det)[:, None])
    return np.clip(np.concatenate(S, axis=1), 0.0, 1.0), np.clip(np.concatenate(T, axis=1), 0.0, 1.0)


def _qn_directions(norm: Norm, X: np.ndarray, cone_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-normal directions at the rows of X, as a (k, rows, 2) array Y and
    the (k, rows) mask of the real ones. A smooth row has one direction, Y[0];
    a vertex row has k = cone_samples + 2, from one end of its cone to the
    other. k is 1 when no row is a vertex. Signs are handled by the caller."""
    pm, pp = norm._support_batch(X)
    wm = perp(pm)
    vertex = np.max(np.abs(pp - pm), axis=-1) > 1e-12
    k = cone_samples + 2 if vertex.any() else 1
    Y = np.empty((k, len(X), 2))
    W = wm[~vertex]
    Y[:, ~vertex] = W / np.asarray(norm(W))[..., None]
    if k > 1:
        wp, wmv = perp(pp[vertex]), wm[vertex]
        lo = np.arctan2(wmv[:, 1], wmv[:, 0])
        width = np.mod(np.arctan2(wp[:, 1], wp[:, 0]) - lo, 2.0 * np.pi)
        ang = lo + width * np.linspace(0.0, 1.0, k)[:, None]
        Y[:, vertex] = norm.sphere_point(ang.ravel()).reshape(k, -1, 2)
    real = np.zeros((k, len(X)), dtype=bool)
    real[0] = True
    real[:, vertex] = True
    return Y, real


def _qn_tables(norm: Norm, points, thetas, cone_samples: int) -> list[tuple[np.ndarray, list[dict]]]:
    """The tables of the lambda and zeta points (kind, eps) on their theta
    arrays: configuration j < k is the pair (x, y) with y the direction Y[j]
    of _qn_directions, and k + j the pair (x, -y). Where a row lacks a
    direction, its value is -inf for a sup kind and +inf for an inf kind, so
    that it is never extremal. One sphere and quasi-normal pass for all
    points, then one lambda solve and one norm evaluation over the real
    (configuration, row) pairs, each with one eps per pair."""
    sizes = [len(th) for th in thetas]
    per_row = lambda values: np.repeat(values, sizes)  # noqa: E731
    X = norm.sphere_point(np.concatenate(thetas))
    Y, real = _qn_directions(norm, X, cone_samples)
    signs = [1] * len(Y) + [-1] * len(Y)
    Y, real = np.concatenate([Y, -Y]), np.concatenate([real, real])
    c, r = np.nonzero(real)
    E = per_row([eps for _, eps in points])[r]
    lam = per_row([kind.name.startswith("lambda") for kind, _ in points])[r]
    V = np.tile(np.where(per_row([kind.is_sup() for kind, _ in points]), -math.inf, math.inf), (len(Y), 1))
    for kind, m in ((_LAMBDA, lam), (_ZETA, ~lam)):
        if np.any(m):
            V[c[m], r[m]] = _config_value(norm, kind, E[m], {"x": X[r[m]], "y": Y[c[m], r[m]]}, None)
    cuts = np.cumsum(sizes)[:-1]
    parts = zip(np.split(V, cuts, axis=1), np.split(X, cuts), np.split(Y, cuts, axis=1))
    return [(v, [{"x": x, "y": y[j], "y_sign": sign} for j, sign in enumerate(signs)]) for v, x, y in parts]


def _tables(norm: Norm, points, Ps, dual: Norm | None, cone_samples: int, chords) -> list[tuple[np.ndarray, list[dict]]]:
    """The tables of points (kind, eps) on their (N_i, d) angle arrays, one
    per point, with d = 2 (theta_x, theta_y) for rho and milman and d = 1
    otherwise. chords(requests) maps (eps, thetas) requests to chord scans,
    as ChordScans.chords does; all chord kinds share one such call, and the
    lambda and zeta kinds one _qn_tables pass."""
    out = [None] * len(points)
    chord, qn = [], []
    for i, (kind, eps) in enumerate(points):
        if kind.name in _TWO_ANGLE_KINDS:
            Y = norm.sphere_point(Ps[i][:, 1])
            f = {"x": norm.sphere_point(Ps[i][:, 0]), "y": eps * Y if kind.name == "rho" else Y}
            out[i] = (_config_value(norm, kind, eps, f, None)[None], [f])
        else:
            (qn if kind.name in _QN_KINDS else chord).append(i)
    if chord:
        for i, scan in zip(chord, chords([(points[i][1], Ps[i][:, 0]) for i in chord])):
            out[i] = _chord_table(norm, points[i][0], scan, dual)
    if qn:
        for i, table in zip(qn, _qn_tables(norm, [points[i] for i in qn], [Ps[i][:, 0] for i in qn], cone_samples)):
            out[i] = table
    return out


def _objective(norm: Norm, points, dual: Norm | None, cone_samples: int, chords):
    """The lockstep objective of points (kind, eps): a list of (N_i, d) angle
    arrays in, one per point, and their value arrays out, each the max or min
    of the point's table over its configurations (_tables, with chords as
    there)."""

    def objective(Ps):
        tables = _tables(norm, points, Ps, dual, cone_samples, chords)
        return [np.max(V, axis=0) if kind.is_sup() else np.min(V, axis=0) for (kind, _), (V, _) in zip(points, tables)]

    return objective


# -- chord kinds on polygonal norms, enumerated at their breakpoints -------------


def _partner_angles(norm: Norm, base: np.ndarray, eps_values) -> list[np.ndarray]:
    """Per eps, the angles mod pi whose chord partner at distance eps is the
    sphere point at a base angle: the near and far ends of the level set on
    both arc sides of it, all in one chord solve."""
    n, m, b = len(base), len(eps_values), len(_CHORD_BRANCHES)
    sides = np.tile(np.repeat([s for s, _ in _CHORD_BRANCHES], n), m)
    is_far = np.tile(np.repeat([e == "far" for _, e in _CHORD_BRANCHES], n), m)
    th = np.tile(base, b * m)
    targets = np.tile(norm.sphere_point(base), (b * m, 1))
    u = _chord_offsets_rows(norm, th, targets, np.repeat(eps_values, b * n), sides, is_far)
    return np.split(np.mod(th + sides * u, math.pi), m)


def _chord_direction_angles(polygon, eps: float) -> np.ndarray:
    """The angles mod pi of the sphere points x whose chord x - z of length
    eps points along a vertex v_k of the ball: x on the boundary of P and of
    P + eps v_k. Per edge V_i + s E_i of P, facet functional F_m and vertex
    v_k, the s in [0, 1] with F_m (V_i + s E_i - eps v_k) = 1, kept where F_m
    is the active facet of x - eps v_k; one v_k per antipodal pair, since
    the pair's points are antipodal."""
    V = polygon.vertices
    E = np.roll(V, -1, axis=0) - V
    shifts = eps * V[: len(V) // 2]
    # (facets, edges, shifts)
    num = 1.0 - polygon._scores(V)[:, :, None] + polygon._scores(shifts)[:, None, :]
    den = np.broadcast_to(polygon._scores(E)[:, :, None], num.shape)
    s = np.divide(num, den, out=np.full(num.shape, -1.0), where=den != 0.0)
    on = (s >= 0.0) & (s <= 1.0)
    _, i, k = np.nonzero(on)
    X = V[i] + s[on][:, None] * E[i]
    X = X[polygon._eval(X - shifts[k]) <= 1.0 + 1e-9]
    return np.mod(np.arctan2(X[:, 1], X[:, 0]), math.pi)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a float array, without the import of numpy.ma that
    np.unique makes on first use, which holds about 1 MB for the life of
    the process."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


def _breakpoint_angles(norm: Norm, polygon, eps_values) -> list[np.ndarray]:
    """Per eps, the sorted angles in [0, pi) at which a chord configuration
    on a polygonal norm can change its affine piece: x at a vertex, its chord
    partner z at a vertex (_partner_angles), and the active facet of x - z
    switching (_chord_direction_angles). Between two consecutive ones, x, z
    and their supports move affinely with the position of x on its edge."""
    base = _half_turn_vertices(norm)
    return [
        _sorted_unique(np.concatenate([base, partners, _chord_direction_angles(polygon, eps)]))
        for eps, partners in zip(eps_values, _partner_angles(norm, base, eps_values))
    ]


def _midpoint_angles(polygon, scan: _ChordScan, t: float) -> np.ndarray:
    """The angles mod pi at which m = t x + (1 - t) z crosses a line through
    the origin and a vertex of the polygon, so that the active facet of ||m||
    switches, between consecutive angles of a breakpoint scan. There m is
    affine in the position of x, so it is interpolated between the ends, for
    each arc side and each pairing of the near and far ends (which differ
    where a level set is flat, so that either end may continue the piece);
    the scan after the last angle closes with -x and -z at the first."""
    X = np.concatenate([scan.X, -scan.X[:1]])
    rays = polygon.vertices[: len(polygon.vertices) // 2, None, :]
    found = []
    for side in (1.0, -1.0):
        Zs = [np.concatenate([Z, -Z[:1]]) for (s, _), Z in zip(_CHORD_BRANCHES, scan.Zs) if s == side]
        for Za in Zs:
            for Zb in Zs:
                Ma = t * X[:-1] + (1.0 - t) * Za[:-1]
                D = t * X[1:] + (1.0 - t) * Zb[1:] - Ma
                den = _cross(rays, D)
                lam = np.divide(-_cross(rays, Ma), den, out=np.zeros(den.shape), where=den != 0.0)
                inside = (lam > 0.0) & (lam < 1.0)
                _, a = np.nonzero(inside)
                x = X[a] + lam[inside][:, None] * (X[a + 1] - X[a])
                found.append(np.arctan2(x[:, 1], x[:, 0]))
    return _sorted_unique(np.mod(np.concatenate(found), math.pi))


def _merged_scan(norm: Norm, a: _ChordScan, b: _ChordScan) -> _ChordScan:
    """The rows of chord scan a, then those of b."""
    return _ChordScan(norm, np.concatenate([a.thetas, b.thetas]), np.concatenate([a.X, b.X]), map(np.concatenate, zip(a.Zs, b.Zs)))


def _midpoint_weight(kind: ModulusKind) -> float | None:
    """The weight t of a kind whose sup can sit where the midpoint
    t x + (1 - t) z switches facets (banas and beta-t), else None."""
    return 0.5 if kind.name == "banas" else kind.t if kind.name == "beta-t" else None


def _enumerate_chord_kinds(norm: Norm, polygon, points, dual: Norm | None) -> list[tuple[float, float]]:
    """(value, theta_x) of each chord point (kind, eps) on a polygonal norm:
    the extreme of its table over the breakpoint angles of its eps
    (_breakpoint_angles), and for banas and beta-t also over the midpoint
    angles of their weight (_midpoint_angles), at the first extremal row.

    Between two consecutive breakpoints every configuration of the table is
    affine in the position of x on its edge, so phi, gamma and d are affine
    (d constant) and reach their extremes at the ends, as do the midpoint
    kinds' infs, which are concave there; their sups can also sit where the
    midpoint's active facet switches, which the midpoint angles add. Each eps
    has one chord solve over its breakpoints, and each banas or beta-t weight
    one more over its midpoint angles."""
    keys = [(eps, _midpoint_weight(kind)) for kind, eps in points]
    eps_values = list(dict.fromkeys(eps for eps, _ in keys))
    requests = list(zip(eps_values, _breakpoint_angles(norm, polygon, eps_values)))
    scans = {(eps, None): scan for eps, scan in zip(eps_values, _chord_scans(norm, requests))}
    weights = [key for key in dict.fromkeys(keys) if key[1] is not None]
    if weights:
        events = _chord_scans(norm, [(eps, _midpoint_angles(polygon, scans[eps, None], t)) for eps, t in weights])
        scans.update({(eps, t): _merged_scan(norm, scans[eps, None], scan) for (eps, t), scan in zip(weights, events)})
    out = []
    for (kind, _), key in zip(points, keys):
        scan = scans[key]
        V, _ = _chord_table(norm, kind, scan, dual)
        values = np.max(V, axis=0) if kind.is_sup() else np.min(V, axis=0)
        row = int(np.argmax(values) if kind.is_sup() else np.argmin(values))
        out.append((float(values[row]), float(scan.thetas[row])))
    return out


# -- witnesses -----------------------------------------------------------------


def _describe_theta(norm: Norm, points, angles, dual: Norm | None, cone_samples: int) -> list[dict]:
    """Witnesses of points (kind, eps) at their extremal angles (theta_x, and
    theta_y for rho and milman): per point, the first extremal configuration
    of its table on the one-row scan at its angles, all points in one _tables
    pass. No scan is kept. The angles go in as one-row arrays, as the
    objective gets them: a scalar angle can give a sphere point with other
    last bits."""
    rows = [np.array([angle]) for angle in angles]
    tables = _tables(norm, points, rows, dual, cone_samples, lambda r: _chord_scans(norm, r))
    out = []
    for (kind, _), row, (V, configs) in zip(points, rows, tables):
        c = int(np.argmax(V[:, 0]) if kind.is_sup() else np.argmin(V[:, 0]))
        fields = {n: f[0].tolist() if isinstance(f, np.ndarray) else f for n, f in configs[c].items()}
        witness = {**dict(zip(("theta_x", "theta_y"), map(float, row[0]))), **fields}
        if kind.name in _PARAMETRIC:
            witness["t"] = kind.t
        witness["value"] = float(V[c, 0])
        out.append(witness)
    return out


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

    grid_n is the coarse angular resolution for single-angle kinds, in
    points per full turn; the two-angle kinds (rho, milman) scan a product
    grid of grid_n_2d points per full turn on each axis. Every norm is
    origin-symmetric, so the searches run over the half turn [0, pi), and
    over [0, pi)^2, with max(64, ceil(grid_n / 2)) points per axis (see the
    module docstring). The chord kinds on a polygonal norm are enumerated
    exactly instead, and grid_n and refine_rounds do not change them. grid_n
    and grid_n_2d must be at least 64, cone_samples at least 0 and
    refine_rounds an integer of at least 1, whatever the kind and eps, or
    InputError is raised. chord_scans lets the chord kinds of one run on a
    smooth norm share their coarse chord solve (see ChordScans); without it
    each call solves its own. This is modulus_batch for a single point,
    raising the error it would return.
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
    """Many points (kind, eps) of one norm, solved together on one path.

    On a polygonal norm the chord kinds are enumerated at their breakpoint
    angles, with one chord solve per eps for all of them (and one more per
    banas or beta-t weight); grid_n and refine_rounds do not affect them.
    Every other point is one search of the one objective (_objective) over
    its configuration tables. The single-angle points run as one lockstep
    extremize_batch, so each engine step makes one objective call for all of
    them: one chord solve for every chord kind of a smooth norm (with the
    coarse scans shared through chord_scans, as in modulus) and one
    quasi-normal pass for the lambda and zeta kinds. The rho and milman
    points are searched one at a time (see _solve). All witnesses come from
    one table pass at the winning angles (see _describe_theta). Each entry of
    the result is the CurveSample that modulus returns for that point (equal
    with ==, witness included) or the DomainError that it raises.
    """
    if len(points) == 1:
        # a lone point is a modulus() call, so that per-point profiling (such
        # as the perfbench tracer, which wraps modulus) still sees it
        settings = dict(grid_n=grid_n, refine_rounds=refine_rounds, cone_samples=cone_samples, grid_n_2d=grid_n_2d)
        try:
            return [modulus(norm, *points[0], **settings, chord_scans=chord_scans)]
        except DomainError as exc:
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
    """modulus_batch without the lone-point routing: the settings are checked
    first, then the domain errors and eps = 0 conventions. The chord points
    of a polygonal norm are enumerated (_enumerate_chord_kinds), and every
    other point gets one Problem. The single-angle problems run as one
    lockstep search; rho and milman run one at a time, since each coarse
    scan over [0, pi)^2 is already thousands of rows, and a lockstep batch,
    which holds the coarse grids of all its searches at once, raised the
    peak memory without a measurable speed-up. One _describe_theta pass then
    gives every witness."""
    if int(grid_n) < 64 or int(grid_n_2d) < 64:
        raise InputError("grid_n must be at least 64 per dimension")
    if int(cone_samples) < 0:
        raise InputError("cone_samples must be at least 0")
    if isinstance(refine_rounds, bool) or not isinstance(refine_rounds, (int, np.integer)) or refine_rounds < 1:
        raise InputError(f"refine_rounds must be an integer >= 1, got {refine_rounds!r}")
    out: list = []
    live = []
    for kind, eps in points:
        eps = float(eps)
        lo, hi = kind_domain(kind)
        if not (lo <= eps <= hi) or not math.isfinite(eps):
            out.append(DomainError(f"eps={eps} outside [{lo}, {hi}] for kind {kind.token()}"))
        elif eps == 0.0:
            value = _convention_at_zero(kind)
            out.append(CurveSample(0.0, value, int(grid_n), 0.0, {"degenerate": True, "value": value}))
        else:
            live.append(len(out))
            out.append((kind, eps))
    if not live:
        return out
    points = [out[i] for i in live]
    two = [kind.name in _TWO_ANGLE_KINDS for kind, _ in points]
    dual = norm.dual() if any(kind.name.startswith("d-") for kind, _ in points) else None
    # (value, angles, tol) per point
    results: list = [None] * len(points)
    polygon = norm._polygon()
    chord = [i for i, (kind, _) in enumerate(points) if polygon is not None and kind.name not in _QN_KINDS | _TWO_ANGLE_KINDS]
    if chord:
        for i, (value, theta) in zip(chord, _enumerate_chord_kinds(norm, polygon, [points[i] for i in chord], dual)):
            results[i] = (value, np.array([theta]), _POLYGON_TOL)
    # polygon vertices, one per antipodal pair, are injected into every
    # coarse scan of the lambda and zeta kinds; rho and milman get the pairs
    # of vertex angles
    base = _half_turn_vertices(norm)
    pairs = np.stack([a.ravel() for a in np.meshgrid(base, base, indexing="ij")], axis=-1)
    problems = {}
    for i, (kind, _) in enumerate(points):
        if results[i] is None:
            extra = pairs if two[i] else base[:, None]
            problems[i] = Problem([(0.0, math.pi)] * extra.shape[1], _mode(kind), extra if extra.size else None)
    scans = ChordScans() if chord_scans is None else chord_scans
    chords = lambda r: scans.chords(norm, grid_n, r)  # noqa: E731
    one = [i for i in problems if not two[i]]
    groups = ([(one, grid_n)] if one else []) + [([i], grid_n_2d) for i in problems if two[i]]
    for group, n in groups:
        objective = _objective(norm, [points[i] for i in group], dual, cone_samples, chords)
        searched = _extremize_all(objective, [problems[i] for i in group], grid_n=_half_turn_points(n), refine_rounds=refine_rounds)
        for i, res in zip(group, searched):
            results[i] = (float(res.value), res.point, max(float(res.tol), 1e-12))
    witnesses = _describe_theta(norm, points, [angles for _, angles, _ in results], dual, cone_samples)
    for i, (_, eps), (value, _, tol), witness, is_two in zip(live, points, results, witnesses, two):
        out[i] = CurveSample(eps, value, int(grid_n_2d if is_two else grid_n), tol, witness)
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
    """Recompute the objective value from a stored witness configuration: the
    kind's value expression on the stored fields, as a one-row batch."""
    if witness.get("degenerate"):
        return _convention_at_zero(kind)
    fields = {k: np.asarray(v, dtype=float)[None] for k, v in witness.items() if isinstance(v, list)}
    dual = norm.dual() if kind.name.startswith("d-") else None
    return float(_config_value(norm, kind, eps, fields, dual)[0])


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
        try:
            eps, value, grid_n, refine_tol = float(parts[0]), float(parts[1]), int(parts[2]), float(parts[3])
        except (IndexError, ValueError):
            raise InputError(f"malformed CSV row: {ln!r}") from None
        rows.append({"eps": eps, "value": value, "grid_n": grid_n, "refine_tol": refine_tol})
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
