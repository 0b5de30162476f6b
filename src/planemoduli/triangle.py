"""Quasi-orthogonality and the right-triangle construction on the unit sphere.

A direction y is quasi-orthogonal to x (written y -| x) when some norm-one
supporting functional p of x annihilates y; equivalently ||x + t*y|| >= ||x||
for every real t. Moving from a unit vector x by eps along such a y and
descending parallel to x back onto the sphere produces the figure used by the
extension moduli: the descent length lambda, the foot z, and companion points
on the supporting line and the ray of x + eps*y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import bracketed_roots
from .errors import DomainError, InputError, PreconditionError
from .norms import Norm, SupportSet, norm_to_json_dict, perp

__all__ = [
    "QuasiNormalCone",
    "TriangleFigure",
    "is_quasi_orthogonal",
    "quasi_normal_cone",
    "lambda_point",
    "lambda_point_batch",
    "build_figure",
    "projection_bound_margin",
]

LAMBDA_ITERATIONS = 48


def _unit_check(norm: Norm, v: np.ndarray, name: str, tol: float) -> None:
    if abs(float(norm(v)) - 1.0) > tol:
        raise InputError(f"{name} must lie on the unit sphere")


def _angle_ccw(u: np.ndarray, v: np.ndarray) -> float:
    """Counterclockwise angle from direction u to direction v, in [0, 2*pi)."""
    a = np.arctan2(v[1], v[0]) - np.arctan2(u[1], u[0])
    return float(np.mod(a, 2.0 * np.pi))


@dataclass(frozen=True)
class QuasiNormalCone:
    """Angle interval [theta_lo, theta_hi] of quasi-normal directions at x.

    Every sphere point with direction angle in the interval is quasi-orthogonal
    to x, and so is its negation; the interval is a single angle at smooth
    points and spans less than pi at polygon vertices.
    """

    theta_lo: float
    theta_hi: float

    @property
    def width(self) -> float:
        return self.theta_hi - self.theta_lo

    def is_degenerate(self, tol: float = 1e-12) -> bool:
        return self.width <= tol

    def contains_angle(self, phi: float, tol: float = 1e-9) -> bool:
        """Membership up to sign: phi and phi+pi are equivalent directions."""
        for cand in (phi, phi + np.pi):
            off = np.mod(cand - self.theta_lo, 2.0 * np.pi)
            if off <= self.width + tol or off >= 2.0 * np.pi - tol:
                return True
        return False


def segment_pairing_min(seg: SupportSet, y: np.ndarray) -> float:
    """min over p in the support segment of |<p, y>| (the pairing is linear)."""
    s1 = float(np.dot(seg.p_minus, y))
    s2 = float(np.dot(seg.p_plus, y))
    if s1 * s2 <= 0.0:
        return 0.0
    return min(abs(s1), abs(s2))


def is_quasi_orthogonal(norm: Norm, y, x, tol: float = 1e-9) -> bool:
    """True when y is quasi-orthogonal to x (y need not be normalized)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = float(norm(x))
    if nx <= 0.0:
        raise InputError("x must be nonzero")
    seg = norm.support_set(x / nx, tol=1e-6)
    return segment_pairing_min(seg, y) <= tol


def quasi_normal_cone(norm: Norm, x) -> QuasiNormalCone:
    """The set {y : ||y|| = 1, y -| x}, as an angle interval (up to sign).

    The kernels of the supporting functionals sweep counterclockwise from
    perp(p_minus) to perp(p_plus) as p crosses the support segment.
    """
    x = np.asarray(x, dtype=float)
    _unit_check(norm, x, "x", tol=1e-6)
    seg = norm.support_set(x, tol=1e-6)
    wm = perp(seg.p_minus)
    wp = perp(seg.p_plus)
    lo = float(np.arctan2(wm[1], wm[0]))
    width = 0.0 if seg.is_degenerate() else _angle_ccw(wm, wp)
    if width >= np.pi:
        raise PreconditionError("support segment spans a half-turn; polygon is degenerate")
    return QuasiNormalCone(lo, lo + width)


def lambda_point_batch(norm: Norm, X: np.ndarray, Y: np.ndarray, eps, tol: float = 1e-9) -> np.ndarray:
    """Smallest lambda >= 0 with ||x + eps*y - lambda*x|| = 1, per row.

    X, Y are (n, 2) arrays of unit vectors with Y quasi-orthogonal to X
    rowwise; eps is a scalar or an (n,) array in [0, 1]. Rows with g(0) <= tol
    return 0. The others solve f = 1 - ||x + eps*y - lambda*x|| = 0 on [0, 1]
    by engine.bracketed_roots, f(1) = 1 - eps taken, not evaluated, and return
    hi of a bracket g(lo) > 0 >= g(hi) as narrow as LAMBDA_ITERATIONS halvings.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    e = np.broadcast_to(np.asarray(eps, dtype=float), X.shape[:-1])
    if np.any(e < 0.0) or np.any(e > 1.0):
        raise DomainError("eps must lie in [0, 1]")
    y1 = X + e[..., None] * Y
    g0 = np.asarray(norm(y1)) - 1.0
    worst = float(np.min(g0, initial=0.0))
    if worst < -tol:
        raise PreconditionError(
            f"||x + eps*y|| = {1.0 + worst:.12g} < 1: y is not quasi-orthogonal to x"
        )
    lam = np.zeros(X.shape[:-1])
    rows = np.flatnonzero(g0 > tol)
    f = lambda t, y1, x: 1.0 - np.asarray(norm(y1 - t[:, None] * x))  # noqa: E731
    lam[rows] = bracketed_roots(f, 0.0, 1.0, -g0[rows], 1.0 - e[rows], LAMBDA_ITERATIONS, y1[rows], X[rows])
    return lam


def lambda_point(norm: Norm, x, y, eps: float, tol: float = 1e-9) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _unit_check(norm, x, "x", tol=1e-6)
    _unit_check(norm, y, "y", tol=1e-6)
    if segment_pairing_min(norm.support_set(x, tol=1e-6), y) > 1e-6:
        raise PreconditionError("y is not quasi-orthogonal to x")
    return float(lambda_point_batch(norm, x[None, :], y[None, :], float(eps), tol=tol)[0])


@dataclass
class TriangleFigure:
    """One descent figure: x on the sphere, y1 = x + eps*y, foot z, and the
    supporting functional p at x with <p, y> = 0."""

    norm: Norm
    x: np.ndarray
    y: np.ndarray
    eps: float
    lam: float
    y1: np.ndarray
    z: np.ndarray
    d: np.ndarray
    y2: np.ndarray
    p: np.ndarray

    def to_json_dict(self) -> dict:
        as_list = lambda v: [float(v[0]), float(v[1])]
        return {
            "norm": norm_to_json_dict(self.norm),
            "x": as_list(self.x),
            "y": as_list(self.y),
            "eps": float(self.eps),
            "lam": float(self.lam),
            "y1": as_list(self.y1),
            "z": as_list(self.z),
            "d": as_list(self.d),
            "y2": as_list(self.y2),
            "p": as_list(self.p),
        }

    def residuals(self) -> dict:
        """Defect of each construction invariant; all should be ~0."""
        n = self.norm
        return {
            "unit_x": abs(float(n(self.x)) - 1.0),
            "unit_y": abs(float(n(self.y)) - 1.0),
            "unit_z": abs(float(n(self.z)) - 1.0),
            "unit_d": abs(float(n(self.d)) - 1.0),
            "p_norms_x": abs(float(np.dot(self.p, self.x)) - 1.0),
            "p_kills_y": abs(float(np.dot(self.p, self.y))),
            "cathetus_identity": abs(float(n(self.y1 - self.z)) - float(np.dot(self.p, self.x - self.z))),
        }


def _pick_annihilator(seg: SupportSet, y: np.ndarray, tol: float) -> np.ndarray:
    """The p in the support segment with <p, y> = 0; ties resolve to p_minus."""
    s1 = float(np.dot(seg.p_minus, y))
    s2 = float(np.dot(seg.p_plus, y))
    if abs(s1) <= tol:
        return np.asarray(seg.p_minus, dtype=float)
    if abs(s2) <= tol:
        return np.asarray(seg.p_plus, dtype=float)
    if s1 * s2 < 0.0:
        return seg.lerp(s1 / (s1 - s2))
    raise PreconditionError("no supporting functional at x annihilates y")


def build_figure(norm: Norm, x, y, eps: float, tol: float = 1e-9) -> TriangleFigure:
    """Construct the full descent figure for unit x, quasi-normal y, eps in (0, 1].

    z = y1 - lambda*x is the sphere point below y1; d is the radial projection
    of y1; y2 is where the line {x + t*y} meets the line {d + s*x}.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eps = float(eps)
    _unit_check(norm, x, "x", tol=1e-6)
    _unit_check(norm, y, "y", tol=1e-6)
    if not (0.0 < eps <= 1.0):
        raise DomainError("eps must lie in (0, 1]")
    seg = norm.support_set(x, tol=1e-6)
    p = _pick_annihilator(seg, y, tol)
    lam = float(lambda_point_batch(norm, x[None, :], y[None, :], eps, tol=tol)[0])
    y1 = x + eps * y
    z = y1 - lam * x
    d = y1 / float(norm(y1))
    # x + t*y = d + s*x  <=>  [y | -x] (t, s)^T = d - x
    M = np.stack([y, -x], axis=-1)
    t_s = np.linalg.solve(M, d - x)
    y2 = x + t_s[0] * y
    return TriangleFigure(norm=norm, x=x, y=y, eps=eps, lam=lam, y1=y1, z=z, d=d, y2=y2, p=p)


def projection_bound_margin(fig: TriangleFigure) -> float:
    """Margin of the projection inequality 2*||y1 - x|| >= ||x - z||."""
    n = fig.norm
    return 2.0 * float(n(fig.y1 - fig.x)) - float(n(fig.x - fig.z))
