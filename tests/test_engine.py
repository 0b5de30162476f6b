import numpy as np
import pytest

from planemoduli import InputError
from planemoduli.engine import extremize


def test_constant_objective_zero_tol():
    res = extremize(lambda P: np.full(len(P), 1.3), [(0.0, 1.0)], mode="sup", grid_n=64, refine_rounds=2)
    assert res.value == 1.3
    assert res.tol == 0.0


def test_sup_of_sine():
    res = extremize(lambda P: np.sin(P[:, 0]), [(0.0, 2 * np.pi)], mode="sup", grid_n=256)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.point[0] == pytest.approx(np.pi / 2, abs=1e-4)
    assert res.tol < 1e-5


def test_inf_of_sine():
    res = extremize(lambda P: np.sin(P[:, 0]), [(0.0, 2 * np.pi)], mode="inf", grid_n=256)
    assert res.value == pytest.approx(-1.0, abs=1e-10)


def test_2d_quadratic():
    f = lambda P: (P[:, 0] - 0.3) ** 2 + (P[:, 1] + 0.2) ** 2
    res = extremize(f, [(-1.0, 1.0), (-1.0, 1.0)], mode="inf", grid_n=64, refine_rounds=6)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(res.point, [0.3, -0.2], atol=1e-4)


def test_extra_points_catch_spike():
    x0 = 0.1234567891
    f = lambda P: np.maximum(0.0, 1.0 - 1e7 * np.abs(P[:, 0] - x0))
    missed = extremize(f, [(0.0, 1.0)], mode="sup", grid_n=64, refine_rounds=3)
    caught = extremize(f, [(0.0, 1.0)], mode="sup", grid_n=64, refine_rounds=3, extra_points=[[x0]])
    assert missed.value < 1.0
    assert caught.value == 1.0


def test_deterministic():
    f = lambda P: np.cos(3 * P[:, 0]) + 0.1 * P[:, 0]
    a = extremize(f, [(0.0, 7.0)], mode="sup", grid_n=128)
    b = extremize(f, [(0.0, 7.0)], mode="sup", grid_n=128)
    assert a.value == b.value
    assert np.array_equal(a.point, b.point)
    assert a.n_evals == b.n_evals


def test_validation():
    f = lambda P: P[:, 0]
    with pytest.raises(InputError):
        extremize(f, [(0.0, 1.0)], grid_n=32)
    with pytest.raises(InputError):
        extremize(f, [(0.0, 1.0)], mode="max")
    with pytest.raises(InputError):
        extremize(f, [(1.0, 0.0)])
    with pytest.raises(InputError):
        extremize(f, [(0.0, 1.0)], refine_rounds=0)
    with pytest.raises(InputError):
        extremize(f, [(0.0, 1.0)], keep_cells=0)
    with pytest.raises(InputError):
        extremize(f, [(0.0, 1.0)], keep_cells=-1)
    with pytest.raises(InputError):
        extremize(f, [(0.0, 1.0)], keep_cells=2.5)
    with pytest.raises(InputError):
        extremize(f, [(0.0, 1.0)], refine_rounds=2.5)
    with pytest.raises(InputError):
        extremize(f, [(0.0, 1.0)], refine_rounds=True)


def _reference_extremize(objective, bounds, mode, grid_n, refine_rounds, keep_cells=8, extra_points=None):
    """The same search with each kept cell refined on its own: one objective
    call per cell and round, cells visited in score order."""
    sign = 1.0 if mode == "sup" else -1.0
    d = len(bounds)
    axes = [lo + (np.arange(grid_n) + 0.5) * (hi - lo) / grid_n for lo, hi in bounds]
    widths0 = np.array([(hi - lo) / grid_n for lo, hi in bounds])
    P = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    if extra_points is not None:
        E = np.array(extra_points, dtype=float).reshape(-1, d)
        for a in range(d):
            E[:, a] = np.clip(E[:, a], bounds[a][0], bounds[a][1])
        P = np.concatenate([P, E], axis=0)
    vals = np.asarray(objective(P), dtype=float)
    n_evals = len(P)
    score = sign * vals
    k = min(keep_cells, len(P))
    top = np.argpartition(-score, k - 1)[:k]
    top = top[np.argsort(-score[top], kind="stable")]
    best = None
    for idx in top:
        center, width = P[idx].copy(), widths0.copy()
        cand_val, cand_pt = float(vals[idx]), P[idx].copy()
        lip = 0.0
        for r in range(refine_rounds):
            grids = [
                np.clip(center[a] + np.linspace(-0.5, 0.5, 9) * width[a], bounds[a][0], bounds[a][1])
                for a in range(d)
            ]
            Q = np.stack([m.ravel() for m in np.meshgrid(*grids, indexing="ij")], axis=-1)
            qv = np.asarray(objective(Q), dtype=float)
            n_evals += len(Q)
            j = int(np.argmax(sign * qv))
            if sign * qv[j] >= sign * cand_val:
                cand_val, cand_pt = float(qv[j]), Q[j].copy()
            center = Q[j].copy()
            if r == refine_rounds - 1:
                V = qv.reshape((9,) * d)
                for a in range(d):
                    step = width[a] / 8.0
                    if step > 0.0:
                        lip = max(lip, float(np.max(np.abs(np.diff(V, axis=a)))) / step)
            width = width / 4.0
        with np.errstate(over="ignore"):
            diam = float(np.sqrt(np.sum(width * width)))
        if not np.isfinite(diam):
            wmax = float(np.max(width))
            diam = wmax * float(np.sqrt(np.sum((width / wmax) ** 2)))
        tol = lip * diam
        if best is None or sign * cand_val > sign * best[0]:
            best = (cand_val, cand_pt, tol)
    return (*best, n_evals)


def _bumpy_2d(P):
    return np.sin(3.0 * P[:, 0]) * np.cos(2.0 * P[:, 1]) + 0.05 * P[:, 0] * P[:, 1]


BATCH_CASES = {
    "1d": (lambda P: np.cos(3 * P[:, 0]) + 0.1 * P[:, 0], [(0.0, 7.0)], "sup", 128, 4, 8, None),
    "1d-quantized-ties": (lambda P: np.round(np.sin(5 * P[:, 0]), 1), [(0.0, 7.0)], "inf", 64, 3, 8, None),
    "1d-constant": (lambda P: np.full(len(P), 1.3), [(0.0, 1.0)], "sup", 64, 2, 8, None),
    "1d-extra-points": (
        lambda P: np.maximum(0.0, 1.0 - 1e7 * np.abs(P[:, 0] - 0.1234567891)),
        [(0.0, 1.0)],
        "sup",
        64,
        3,
        8,
        [[0.1234567891], [2.0]],
    ),
    "1d-nan-rows": (lambda P: np.where(np.abs(P[:, 0] - 1.5) < 0.3, np.nan, np.sin(P[:, 0])), [(0.0, 7.0)], "sup", 64, 3, 8, None),
    "2d": (_bumpy_2d, [(-1.0, 2.0), (0.0, 3.0)], "inf", 64, 4, 8, None),
    "2d-constant": (lambda P: np.zeros(len(P)), [(0.0, 1.0), (0.0, 1.0)], "inf", 64, 2, 8, None),
    "2d-extra-points": (_bumpy_2d, [(-1.0, 2.0), (0.0, 3.0)], "sup", 64, 3, 3, [[0.5, 0.5], [1.9, 2.9], [-5.0, 9.0]]),
    # box widths whose squares overflow: tol must stay finite and the first
    # of the tied cells must win
    "1d-huge-box": (lambda P: (P[:, 0] > 5e159).astype(float), [(0.0, 1e160)], "sup", 64, 3, 3, None),
}


@pytest.mark.parametrize("case", BATCH_CASES)
def test_refine_batches_cells_and_matches_per_cell_loop(case):
    f, bounds, mode, grid_n, rounds, keep, extra = BATCH_CASES[case]
    calls = []

    def counted(P):
        calls.append(len(P))
        return f(P)

    res = extremize(counted, bounds, mode=mode, grid_n=grid_n, refine_rounds=rounds, keep_cells=keep, extra_points=extra)
    assert len(calls) == 1 + rounds
    ref_val, ref_pt, ref_tol, ref_evals = _reference_extremize(f, bounds, mode, grid_n, rounds, keep, extra)
    bits = lambda x: np.asarray(x, dtype=float).tobytes()
    assert bits(res.value) == bits(ref_val)
    assert bits(res.point) == bits(ref_pt)
    assert bits(res.tol) == bits(ref_tol)
    assert res.n_evals == ref_evals == sum(calls)
