"""Norms on the plane: evaluation, duality, sphere parametrization, support sets.

Supported families: Euclidean, l_p for p in [1, inf], weighted l_p (diagonal
scaling followed by l_p), and gauges of origin-symmetric convex polygons.
The l_1 and l_inf balls are canonicalized to 4-vertex polygons internally so
that all non-smooth support-set logic lives in a single code path.

Every norm evaluates vectorized: ``norm(v)`` accepts shape ``(..., 2)`` and
returns shape ``(...)`` (a plain float for a single point).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, RepresentationError

__all__ = [
    "SupportSet",
    "Norm",
    "EuclideanNorm",
    "LpNorm",
    "WeightedLpNorm",
    "PolygonNorm",
    "euclidean_norm",
    "lp_norm",
    "weighted_lp_norm",
    "polygon_norm",
    "regular_polygon_norm",
    "norm_from_json",
    "norm_to_json_dict",
    "norm_key",
    "perp",
]

# Supporting-facet ties on normalized polygon scores are detected at this
# absolute tolerance (scores are ~1 on the sphere).
_TIE_TOL = 1e-9


def perp(v: np.ndarray) -> np.ndarray:
    """Rotate by +90 degrees: (a, b) -> (-b, a). Works on (..., 2) arrays."""
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _points(v, name: str = "v") -> np.ndarray:
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be an array of numbers") from None
    if a.ndim == 0 or a.shape[-1] != 2:
        raise InputError(f"{name} must have shape (..., 2), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite coordinates")
    return a


@dataclass(frozen=True)
class SupportSet:
    """Endpoints of the segment of supporting functionals at a unit vector.

    The segment lies on the dual unit sphere; ``p_minus`` precedes ``p_plus``
    counterclockwise, and the two coincide at smooth points.
    """

    p_minus: np.ndarray
    p_plus: np.ndarray

    def is_degenerate(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.p_plus - self.p_minus)) <= tol)

    def lerp(self, t: float) -> np.ndarray:
        """Point of the segment at barycentric coordinate t in [0, 1]."""
        return (1.0 - t) * self.p_minus + t * self.p_plus


class Norm:
    """A norm on R^2, given by its gauge. Subclasses implement the family."""

    kind = "abstract"

    # -- evaluation ---------------------------------------------------------

    def _eval(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, v):
        a = _points(v)
        r = self._eval(a)
        return float(r) if np.ndim(r) == 0 else r

    # -- structure ----------------------------------------------------------

    def dual(self) -> "Norm":
        """The dual norm (gauge of the polar unit ball)."""
        raise NotImplementedError

    def sphere_point(self, theta) -> np.ndarray:
        """Unit-sphere point in direction angle theta (vectorized)."""
        th = np.asarray(theta, dtype=float)
        u = np.stack([np.cos(th), np.sin(th)], axis=-1)
        g = np.asarray(self._eval(u))
        return u / g[..., None]

    def _support_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Support-segment endpoints for a batch of (approximately unit) points.

        Returns (p_minus, p_plus), each of shape (n, 2). Inputs are normalized
        internally, so slightly off-sphere points are accepted.
        """
        raise NotImplementedError

    def support_set(self, x, tol: float = 1e-9) -> SupportSet:
        """Support set J(x) = {p on the dual sphere : <p, x> = 1} at unit x."""
        a = _points(x, "x")
        if a.shape != (2,):
            raise InputError("support_set expects a single point of shape (2,)")
        if abs(float(self._eval(a)) - 1.0) > tol:
            raise InputError("x must lie on the unit sphere")
        pm, pp = self._support_batch(a[None, :])
        return SupportSet(pm[0], pp[0])

    def special_angles(self) -> np.ndarray:
        """Direction angles of non-smooth sphere points (polygon vertices)."""
        return np.empty(0, dtype=float)

    def is_smooth(self) -> bool:
        return self.special_angles().size == 0

    def _polygon(self) -> "PolygonNorm | None":
        """The polygon whose gauge this norm is, or None for a smooth norm."""
        return None

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_json_dict()})"


class EuclideanNorm(Norm):
    kind = "euclidean"

    def _eval(self, a):
        a0, a1 = a[..., 0], a[..., 1]
        return np.sqrt(a0 * a0 + a1 * a1)

    def dual(self):
        return self

    def _support_batch(self, X):
        U = X / self._eval(X)[..., None]
        return U, U.copy()

    def to_json_dict(self):
        return {"kind": "euclidean"}


class WeightedLpNorm(Norm):
    """Diagonal scaling followed by l_p: ||x|| = ||(w1*x1, w2*x2)||_p.

    The dual is the weighted l_q norm with reciprocal weights, uniformly in p.
    p=1 and p=inf delegate support-set and vertex logic to an internal
    4-vertex polygon (rhombus / rectangle).
    """

    kind = "weighted-lp"

    def __init__(self, p, w):
        p = _parse_p(p)
        w = np.asarray(w, dtype=float)
        if w.shape != (2,) or not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise RepresentationError("weights must be two positive finite numbers")
        self.p = p
        self.w = w
        self._unit = bool(np.all(w == 1.0))  # unit weights skip the scaling
        self._poly = None
        if p == 1.0:
            a, b = 1.0 / w[0], 1.0 / w[1]
            self._poly = PolygonNorm([(a, 0), (0, b), (-a, 0), (0, -b)])
        elif math.isinf(p):
            a, b = 1.0 / w[0], 1.0 / w[1]
            self._poly = PolygonNorm([(a, b), (-a, b), (-a, -b), (a, -b)])

    def _eval(self, a):
        # by columns: on a last axis of length 2, a sum or max reduction
        # costs more than the one operation it performs
        s0, s1 = np.abs(a[..., 0]), np.abs(a[..., 1])
        if not self._unit:
            s0, s1 = s0 * self.w[0], s1 * self.w[1]
        if self.p == 1.0:
            return s0 + s1
        if math.isinf(self.p):
            return np.maximum(s0, s1)
        if self.p == 2.0:
            return np.sqrt(s0 * s0 + s1 * s1)
        # scaled by the larger coordinate, so that no power underflows or
        # overflows before the root (Blue, ACM TOMS 4(1), 1978); where big is
        # 0 so is the smaller one, and the ratio and the gauge are 0
        big = np.maximum(s0, s1)
        ratio = np.minimum(s0, s1) / np.where(big > 0.0, big, 1.0)
        # in place, so that a many-row call holds one array fewer at its peak
        ratio **= self.p
        ratio += 1.0
        ratio **= 1.0 / self.p
        ratio *= big
        return ratio

    def dual(self):
        return WeightedLpNorm(_conjugate(self.p), 1.0 / self.w)

    def _support_batch(self, X):
        if self._poly is not None:
            return self._poly._support_batch(X)
        # the gradient of the gauge at U = X / ||X||, w sign(S) |S|^(p - 1)
        # with S = w U, which forms no w^p (inf for w = 1e4 and p = 100)
        S = X / np.asarray(self._eval(X))[..., None] * self.w
        P = self.w * np.sign(S) * np.abs(S) ** (self.p - 1.0)
        return P, P.copy()

    def special_angles(self):
        if self._poly is not None:
            return self._poly.special_angles()
        return np.empty(0, dtype=float)

    def _polygon(self):
        return self._poly

    def to_json_dict(self):
        return {
            "kind": "weighted-lp",
            "p": "inf" if math.isinf(self.p) else self.p,
            "w": [float(self.w[0]), float(self.w[1])],
        }


class LpNorm(WeightedLpNorm):
    """The l_p norm for p in [1, inf]: the weighted l_p norm with unit weights."""

    kind = "lp"
    # the inherited function, also named in this class's own dict, where the
    # perfbench tests look up the evaluator they expect the tracer to restore
    _eval = WeightedLpNorm._eval

    def __init__(self, p):
        super().__init__(p, (1.0, 1.0))

    def dual(self):
        return LpNorm(_conjugate(self.p))

    def to_json_dict(self):
        return {"kind": "lp", "p": "inf" if math.isinf(self.p) else self.p}


class PolygonNorm(Norm):
    """Gauge of a convex origin-symmetric polygon, vertices counterclockwise.

    Evaluation is the maximum of the facet functionals a_i, which satisfy
    <a_i, .> = 1 on facet i; those functionals are exactly the vertices of the
    polar polygon, so duality is vertex bookkeeping.
    """

    kind = "polygon"

    def __init__(self, vertices):
        V = _points(vertices, "vertices")
        if V.ndim != 2 or len(V) < 4:
            raise RepresentationError("polygon needs at least 4 vertices")
        if len(V) % 2 != 0:
            raise RepresentationError("origin-symmetric polygon has an even vertex count")
        scale = float(np.max(np.abs(V)))
        if scale <= 0:
            raise RepresentationError("degenerate polygon")
        n = len(V)
        m = n // 2
        if np.max(np.abs(V[(np.arange(n) + m) % n] + V)) > 1e-9 * scale:
            raise RepresentationError("vertices are not origin-symmetric (v[i+n/2] must equal -v[i])")
        E = np.roll(V, -1, axis=0) - V
        cross = E[:, 0] * np.roll(E, -1, axis=0)[:, 1] - E[:, 1] * np.roll(E, -1, axis=0)[:, 0]
        if np.any(cross < 0):
            if np.all(cross <= 0):
                raise RepresentationError("vertices must be listed counterclockwise")
            raise RepresentationError("polygon is not convex")
        if np.any(cross <= 1e-12 * scale * scale):
            raise RepresentationError("collinear or repeated vertices")
        # outward facet normals for a CCW polygon, scaled to support value 1
        N = np.stack([E[:, 1], -E[:, 0]], axis=-1)
        c = np.sum(N * V, axis=-1)
        if np.any(c <= 1e-12 * scale * scale):
            raise RepresentationError("origin is not strictly interior")
        self.vertices = V
        self._functionals = N / c[:, None]
        self._vertex_pairs = tuple((float(a), float(b)) for a, b in V)

    def _scores(self, a):
        """<F_j, a> for each facet functional F_j and each point of a, shape
        (..., 2), laid out facet-first: shape (facets, ...). Each score is one
        elementwise product-sum, so a point gets the same bits alone as in a
        batch, and a reduction over the facets runs along the leading axis."""
        F = self._functionals
        s = np.multiply.outer(F[:, 0], a[..., 0])
        s += np.multiply.outer(F[:, 1], a[..., 1])
        return s

    def _eval(self, a):
        return self._scores(a).max(axis=0)

    def dual(self):
        return PolygonNorm(self._functionals)

    def _support_batch(self, X):
        A = self._functionals
        m = len(A)
        # scored once: the scores over their column max, the gauge, are the
        # scores of the normalized point
        S = self._scores(X)
        S /= S.max(axis=0)
        tie = S >= 1.0 - _TIE_TOL
        idx = np.argmax(S, axis=0)
        # a run of tied facets spans the support segment, from the run's first
        # facet to its last; where the ties form no single run (the tolerance
        # fattened them past a full cycle), the argmax facet stays
        count = np.sum(tie, axis=0)
        multi = np.flatnonzero(count > 1)
        lo = hi = idx
        if multi.size:
            T = tie[:, multi].T
            starts = T & ~T[:, np.arange(m) - 1]
            one = np.sum(starts, axis=-1) == 1
            r, j = multi[one], np.argmax(starts[one], axis=-1)
            lo, hi = idx.copy(), idx.copy()
            lo[r], hi[r] = j, (j + count[r] - 1) % m
        return A[lo], A[hi]

    def special_angles(self):
        return np.arctan2(self.vertices[:, 1], self.vertices[:, 0])

    def _polygon(self):
        return self

    def to_json_dict(self):
        # the vertices are one tuple of pairs shared by every dict: reports
        # carry a norm's spec in each record, and a fresh list of float lists
        # each time made up a third of a probe report's memory
        return {"kind": "polygon", "vertices": self._vertex_pairs}


# -- constructors and serialization ----------------------------------------


def _parse_p(p) -> float:
    if isinstance(p, str):
        if p.lower() in ("inf", "infinity"):
            p = math.inf
        else:
            try:
                p = float(p)
            except ValueError:
                raise RepresentationError(f"cannot parse p={p!r}") from None
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise RepresentationError("p must satisfy 1 <= p <= inf")
    return p


def _conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def euclidean_norm() -> EuclideanNorm:
    return EuclideanNorm()


def lp_norm(p) -> LpNorm:
    return LpNorm(p)


def weighted_lp_norm(p, w1: float, w2: float) -> WeightedLpNorm:
    return WeightedLpNorm(p, (w1, w2))


def polygon_norm(vertices) -> PolygonNorm:
    return PolygonNorm(vertices)


def regular_polygon_norm(n_vertices: int, angle_offset: float = 0.0) -> PolygonNorm:
    """Regular polygon with an even number of vertices on the unit circle.

    The second half is the exact negation of the first, so symmetry holds to
    the last bit.
    """
    n = int(n_vertices)
    if n < 4 or n % 2 != 0:
        raise RepresentationError("regular symmetric polygon needs an even vertex count >= 4")
    ang = angle_offset + 2.0 * np.pi * np.arange(n // 2) / n
    half = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return PolygonNorm(np.concatenate([half, -half], axis=0))


def norm_from_json(data) -> Norm:
    """Build a norm from its JSON description (dict or JSON string)."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise InputError(f"invalid norm JSON: {e}") from None
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("norm JSON must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "euclidean":
        return EuclideanNorm()
    if kind == "lp":
        if "p" not in data:
            raise InputError("lp norm JSON needs 'p'")
        return LpNorm(data["p"])
    if kind == "weighted-lp":
        if "p" not in data or "w" not in data:
            raise InputError("weighted-lp norm JSON needs 'p' and 'w'")
        return WeightedLpNorm(data["p"], data["w"])
    if kind == "polygon":
        if "vertices" not in data:
            raise InputError("polygon norm JSON needs 'vertices'")
        return PolygonNorm(data["vertices"])
    raise InputError(f"unknown norm kind {kind!r}")


def norm_to_json_dict(norm: Norm) -> dict:
    return norm.to_json_dict()


def norm_key(norm: Norm) -> str:
    """Canonical JSON string; stable cache/identity key for a norm."""
    return json.dumps(norm.to_json_dict(), sort_keys=True, separators=(",", ":"))
