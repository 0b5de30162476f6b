"""Deterministic extremization over low-dimensional boxes.

A coarse uniform scan (cell centers) keeps the best handful of cells, then all
kept cells are refined together by repeated subdivision: nine samples per axis
around each cell, recenter each cell on its best, shrink the cells by a factor
of four. Each round stacks the stencils of every kept cell into one objective
call. The search is written once, as a generator that yields point arrays and
receives their values: ``extremize_batch`` drives many independent searches
in lockstep, one objective call per step for all of them, and ``extremize``
is its one-problem case. Problems of one batch share grid_n, refine_rounds
and keep_cells, so every search takes the same 1 + refine_rounds steps; each
has its own bounds, mode and extra_points.

Stacking rows from several cells (and several problems) is bit-identical to
evaluating them apart only if the objective computes each row on its own: a
row's value may not depend on the other rows of its batch. No randomness
anywhere, so identical inputs give identical results. ``bracketed_roots`` is
the package's one iterative root-finder, for the chords and for lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError

__all__ = ["ExtremizeResult", "Problem", "bracketed_roots", "extremize", "extremize_batch"]


@dataclass
class ExtremizeResult:
    value: float
    point: np.ndarray
    tol: float  # final cell diameter times a local Lipschitz estimate
    n_evals: int


class Problem(NamedTuple):
    """One search of an extremize_batch call: its box, mode and injected
    points, as the extremize arguments of the same names."""

    bounds: object
    mode: str = "inf"
    extra_points: object = None


def _search(bounds, mode, grid_n, refine_rounds, keep_cells, extra_points):
    """The coarse-then-refine search: yields each step's (N, d) points,
    receives their (N,) values, and returns the ExtremizeResult."""
    if mode not in ("inf", "sup"):
        raise InputError(f"mode must be 'inf' or 'sup', got {mode!r}")
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    d = len(bounds)
    if d < 1 or any(hi <= lo for lo, hi in bounds):
        raise InputError("bounds must be nonempty (lo, hi) pairs with lo < hi")
    if int(grid_n) < 64:
        raise InputError("grid_n must be at least 64 per dimension")
    ns = (int(grid_n),) * d
    if isinstance(refine_rounds, bool) or not isinstance(refine_rounds, (int, np.integer)) or refine_rounds < 1:
        raise InputError(f"refine_rounds must be an integer >= 1, got {refine_rounds!r}")
    if isinstance(keep_cells, bool) or not isinstance(keep_cells, (int, np.integer)) or keep_cells < 1:
        raise InputError(f"keep_cells must be an integer >= 1, got {keep_cells!r}")
    sign = 1.0 if mode == "sup" else -1.0

    axes = [lo + (np.arange(n) + 0.5) * (hi - lo) / n for (lo, hi), n in zip(bounds, ns)]
    widths0 = np.array([(hi - lo) / n for (lo, hi), n in zip(bounds, ns)])
    lo, hi = np.array(bounds).T
    P = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    if extra_points is not None and len(extra_points) > 0:
        E = np.clip(np.array(extra_points, dtype=float).reshape(-1, d), lo, hi)
        P = np.concatenate([P, E], axis=0)

    def values_of(Q):
        v = np.asarray((yield Q), dtype=float)
        if v.shape != (len(Q),):
            raise InputError("objective must return one value per point")
        return v

    vals = yield from values_of(P)
    n_evals = len(P)
    score = sign * vals
    k = min(int(keep_cells), len(P))
    top = np.argpartition(-score, k - 1)[:k]
    top = top[np.argsort(-score[top], kind="stable")]

    offs = np.linspace(-0.5, 0.5, 9)
    stencil = np.indices((9,) * d).reshape(d, -1)
    axis_ix = np.arange(d)[:, None]
    rows = np.arange(k)
    center = P[top]
    cand_val = vals[top]
    cand_pt = P[top]
    del P, vals, score  # a suspended search keeps its locals while the rest of its batch runs
    width = widths0.copy()
    lip = np.zeros(k)
    for r in range(refine_rounds):
        grids = np.clip(center[:, :, None] + offs * width[:, None], lo[:, None], hi[:, None])
        Q = grids[:, axis_ix, stencil].transpose(0, 2, 1)  # (k, 9^d, d), meshgrid "ij" order
        qv = (yield from values_of(Q.reshape(-1, d))).reshape(k, 9**d)
        n_evals += qv.size
        j = np.argmax(sign * qv, axis=1)
        qj = qv[rows, j]
        center = Q[rows, j]
        take = sign * qj >= sign * cand_val
        cand_val = np.where(take, qj, cand_val)
        cand_pt = np.where(take[:, None], center, cand_pt)
        if r == refine_rounds - 1:
            V = qv.reshape((k,) + (9,) * d)
            cells = tuple(range(1, d + 1))
            for a in range(d):
                step = width[a] / 8.0
                if step > 0.0:
                    lip = np.fmax(lip, np.max(np.abs(np.diff(V, axis=a + 1)), axis=cells) / step)
        width = width / 4.0
    with np.errstate(over="ignore"):
        diam = float(np.sqrt(np.sum(width * width)))
    if not np.isfinite(diam):  # widths above ~1e154 overflow when squared
        wmax = float(np.max(width))
        diam = wmax * float(np.sqrt(np.sum((width / wmax) ** 2)))
    tol = lip * diam
    # in-order pick: a cell displaces the best only when strictly better
    w = 0
    for i in range(1, k):
        if sign * cand_val[i] > sign * cand_val[w]:
            w = i
    best_val, best_pt, best_tol = float(cand_val[w]), cand_pt[w].copy(), float(tol[w])
    return ExtremizeResult(value=best_val, point=best_pt, tol=best_tol, n_evals=n_evals)


def extremize(
    objective,
    bounds,
    mode: str = "inf",
    grid_n: int = 1024,
    refine_rounds: int = 6,
    keep_cells: int = 8,
    extra_points=None,
) -> ExtremizeResult:
    """Extremize a vectorized objective over a box.

    objective maps an (N, d) array of parameter points to (N,) values; bounds
    is a sequence of (lo, hi) pairs; grid_n is the coarse resolution on every
    axis (at least 64). extra_points are exact parameter points injected into
    the coarse scan (e.g. polygon vertex angles).

    The best keep_cells coarse cells are refined in lockstep, one objective
    call per round on all their stencils. The objective must therefore be
    row-independent.
    """
    problem = Problem(bounds, mode, extra_points)
    (r,) = extremize_batch(lambda Ps: [objective(Ps[0])], [problem], grid_n, refine_rounds, keep_cells)
    return r


def extremize_batch(
    objective,
    problems,
    grid_n: int = 1024,
    refine_rounds: int = 6,
    keep_cells: int = 8,
) -> list[ExtremizeResult]:
    """Run independent extremize searches in lockstep.

    problems is a sequence of Problem(bounds, mode, extra_points). At each of
    the 1 + refine_rounds steps, objective receives a list with one (N_i, d_i)
    point array per problem, in problem order, and returns a list of the
    matching (N_i,) value arrays. Results come back in problem order and equal
    what extremize returns for each problem on its own, given a row-independent
    objective.
    """
    searches = [_search(p.bounds, p.mode, grid_n, refine_rounds, keep_cells, p.extra_points) for p in problems]
    points, results = [next(s) for s in searches], []
    while points:
        values = list(objective(points))
        if len(values) != len(points):
            raise InputError("objective must return one value array per problem")
        points, results = [], []
        for search, v in zip(searches, values):
            try:
                points.append(search.send(v))
            except StopIteration as done:
                results.append(done.value)
    return results


def bracketed_roots(f, lo: float, hi: float, glo, ghi, halvings: int, *args):
    """Per row, the upper end of the final bracket of the one crossing of f,
    which is negative before it and not after, from [lo, hi] and the rows'
    arrays glo = f(lo), ghi = f(hi). f(x, *args) sees the rows still open,
    args cut to them; f(x) >= 0 moves the upper end, else the lower. Steps
    are ITP's (Oliveira & Takahashi, ACM TOMS 47(1), 2020): regula falsi,
    truncated toward the midpoint by max(0.2 / (hi - lo) * width**2, tol) and
    projected into the radius that keeps bisection's schedule plus one slack
    step. A row stops at width <= 2 * tol, the width `halvings` halvings of
    [lo, hi] leave, after at most halvings + 1 calls."""
    glo = np.array(glo, dtype=float)
    n = len(glo)
    ghi = np.array(ghi, dtype=float)
    tol = math.ldexp(hi - lo, -halvings - 1)
    k1 = 0.2 / (hi - lo)
    out = np.empty(n)
    rows = np.arange(n)
    a, b = np.full(n, float(lo)), np.full(n, float(hi))
    width = b - a
    for j in range(halvings + 1):
        if not len(rows):
            break
        half = 0.5 * width
        mid = a + half
        # regula falsi, as an offset from the midpoint (a zero or non-finite
        # denominator falls back to the midpoint), truncated and projected
        den = glo - ghi
        t = np.divide(glo, den, out=np.full_like(den, 0.5), where=np.isfinite(den) & (den != 0.0))
        offset = (t - 0.5) * width
        step = np.maximum(k1 * width * width, tol)
        radius = math.ldexp(tol, halvings + 1 - j) - half
        x = mid + np.copysign(np.maximum(np.minimum(np.abs(offset) - step, radius), 0.0), offset)
        fx = f(x, *args)
        moved = fx >= 0.0
        np.copyto(b, x, where=moved)
        np.copyto(ghi, fx, where=moved)
        np.copyto(a, x, where=~moved)
        np.copyto(glo, fx, where=~moved)
        width = b - a
        done = width <= 2.0 * tol
        if done.any():
            out[rows[done]] = b[done]
            keep = ~done
            rows, a, b, glo, ghi, width = (v[keep] for v in (rows, a, b, glo, ghi, width))
            args = tuple(v[keep] for v in args)
    out[rows] = b
    return out
