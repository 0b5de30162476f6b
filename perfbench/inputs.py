"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the run seed and the workload name: the
same seed gives the same norms, weights, weight parameter t and probe seeds.
The program receives only these built inputs. Random polygons come from this
file's own hull code and reach the program through the public
``polygon_norm``.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Claims made by a later change are checked last on this seed, which is never
# used while the change is being written or tuned.
HELD_OUT_SEED = 7919

# One salt per workload, so that a seed gives unrelated inputs to each.
_SALT = {"verify": 101, "compute": 202, "probe": 303}


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counterclockwise, collinear points dropped.

    For an origin-symmetric point set the hull starts at the lexicographically
    smallest point and reaches its negation halfway round, which is the vertex
    order ``polygon_norm`` expects.
    """
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    scale = float(np.max(np.abs(pts))) or 1.0
    tol = 1e-12 * scale * scale

    def chain(seq):
        out: list[np.ndarray] = []
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


def random_polygon_vertices(rng: np.random.Generator) -> list[list[float]]:
    """Vertices of a random origin-symmetric convex polygon with 6 to 24 vertices.

    m points in the upper half-plane (m in [3, 12]) and their negations are
    hulled; draws whose hull has fewer than six vertices are redrawn.
    """
    while True:
        m = int(rng.integers(3, 13))
        theta = rng.uniform(0.0, math.pi, m)
        radius = rng.uniform(0.6, 1.4, m)
        half = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        hull = convex_hull(np.concatenate([half, -half]))
        if len(hull) >= 6:
            return [[float(x), float(y)] for x, y in hull]


def make_inputs(workload: str, seed: int) -> dict:
    """The JSON-serializable inputs of one workload at one seed."""
    rng = np.random.default_rng([int(seed), _SALT[workload]])
    if workload == "verify":
        return {
            "lp_p": float(rng.uniform(1.5, 4.0)),
            "polygon": random_polygon_vertices(rng),
        }
    if workload == "compute":
        return {
            "lp_p": float(rng.uniform(1.5, 4.0)),
            "weighted_p": float(rng.uniform(1.5, 4.0)),
            "weights": [float(w) for w in rng.uniform(0.5, 2.0, 2)],
            "t": float(rng.uniform(0.1, 0.9)),
        }
    if workload == "probe":
        return {"probe_seeds": [int(s) for s in rng.integers(0, 2**31 - 1, 3)]}
    raise ValueError(f"unknown workload {workload!r}")


def digest(obj) -> str:
    """sha256 of the canonical JSON text of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
