"""Brute-force dynamic-programming oracle for cross-validation.

A semi-Lagrangian discretization of the exit-time problem on a box
grid: V(x) = min_a [ h*l(x,a) + V(x + h*f(x,a)) ] with multilinear
interpolation at the foot, V = 0 pinned on the target nodes, and
monotone non-increasing sweeps from an optimistic start.  The table is
independent of the certificate pipeline, so agreement between the two
is evidence, not circularity.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .certificates import MAX_RECORDS, CandidateMrf, GridSpec
from .systems import ConfigError, ControlSystem, NegativeLagrangian, TargetSet

log = logging.getLogger(__name__)

__all__ = [
    "NonConvergence",
    "GridValueTable",
    "build_stencils",
    "jacobi_sweep",
    "hjb_value_iteration",
    "compare_bound",
]

# Value iteration starts every free node at the ceiling BIG; a node whose
# value is not below RESOLVED counts as never reached from the target.
BIG = 1e12
RESOLVED = BIG / 10


class NonConvergence(RuntimeError):
    """Value iteration did not reach the tolerance within the sweep budget."""

    def __init__(self, sweeps: int, last_change: float, tol: float):
        self.sweeps = int(sweeps)
        self.last_change = float(last_change)
        self.tol = float(tol)
        super().__init__(
            f"no convergence after {sweeps} sweeps: last change {last_change:.3g} > tol {tol:.3g}"
        )


# ----------------------------------------------------------------------
# stencil precomputation


def build_stencils(system: ControlSystem, grid: GridSpec, h: float):
    """Precompute the control-major sweep plan for every (control, node) pair.

    Returns (idx, wts, stage): idx[k, i, c] is the flat index of corner c
    of the interpolation cell that holds the foot x_i + h*f(x_i, a_k),
    wts[k, i, c] is that corner's multilinear weight, and
    stage[k, i] = h * l(x_i, a_k).  Where the foot leaves the box, or f
    or l is not finite at x_i, stage[k, i] is inf and the cell is the one
    at index 0, so the control never wins the minimum.  Putting the
    control axis first makes the minimum over controls an elementwise
    minimum of whole rows.  The plan is written in place, one control at
    a time.
    """
    if h <= 0:
        raise ConfigError("time step h must be positive")
    axes = grid.axes()
    shape = tuple(len(ax) for ax in axes)
    dim = grid.dim
    X = grid.points()
    n = X.shape[0]
    n_ctrl = system.n_controls

    strides = np.empty(dim, dtype=np.int64)
    acc = 1
    for j in range(dim - 1, -1, -1):
        strides[j] = acc
        acc *= shape[j]

    corners = list(itertools.product((0, 1), repeat=dim))
    offsets = np.array([sum(c[j] * strides[j] for j in range(dim)) for c in corners],
                       dtype=np.int64)

    idx = np.empty((n_ctrl, n, len(corners)), dtype=np.int64)
    wts = np.empty((n_ctrl, n, len(corners)), dtype=np.float64)
    stage = np.empty((n_ctrl, n), dtype=np.float64)
    lower = np.asarray(grid.lower, dtype=float)
    limits = np.array([s - 1 for s in shape], dtype=float)

    for k in range(n_ctrl):
        a = system.control(k)
        F = np.asarray(system.batch_dynamics(X, a), dtype=float)
        L = np.asarray(system.batch_lagrangian(X, a), dtype=float)
        bad_l = np.isfinite(L) & (L < 0)
        if np.any(bad_l):
            i = int(np.argmax(bad_l))
            raise NegativeLagrangian(X[i], k, float(L[i]))

        cells = h * F
        cells += X  # the foot
        # loops over the dim columns: a row reduction over the short state
        # axis costs more than dim flat passes, and booleans and int64 sums
        # come out the same either way
        inside = np.isfinite(L)
        for j in range(dim):
            inside &= np.isfinite(cells[:, j])
        np.multiply(h, L, out=stage[k])
        del F, L  # this control's temporaries live one at a time
        cells -= lower
        cells /= grid.spacing
        for j in range(dim):
            inside &= cells[:, j] >= -1e-9
            inside &= cells[:, j] <= limits[j] + 1e-9
        cells[~np.isfinite(cells)] = 0.0
        i0 = np.clip(np.floor(cells).astype(np.int64), 0, np.array(shape) - 2)
        cells -= i0
        frac = np.clip(cells, 0.0, 1.0, out=cells)

        base = i0[:, 0] * strides[0]
        for j in range(1, dim):
            base += i0[:, j] * strides[j]
        base[~inside] = 0
        np.add(base[:, None], offsets, out=idx[k])
        for ci, c in enumerate(corners):
            w = wts[k, :, ci]
            w.fill(1.0)
            for j in range(dim):
                w *= frac[:, j] if c[j] else (1.0 - frac[:, j])
        stage[k, ~inside] = np.inf
        del cells, frac, i0, base, inside  # before the next control's dynamics

    return idx, wts, stage


def jacobi_sweep(values, fixed, idx, wts, stage):
    """One synchronous update of the table; returns (new_values, max_change).

    Every non-fixed node takes
    min(values[i], min_k stage[k, i] + sum_c wts[k, i, c] * values[idx[k, i, c]])
    against the previous table, so the iteration descends monotonically
    and the result does not depend on node order.  Controls are gathered
    one at a time, so the gather temporary holds one control's corners.
    """
    best = stage[0] + np.einsum("nc,nc->n", wts[0], values[idx[0]])
    for k in range(1, len(stage)):
        np.minimum(best, stage[k] + np.einsum("nc,nc->n", wts[k], values[idx[k]]), out=best)
    new = np.where(fixed, values, np.minimum(values, best))
    return new, float(np.max(values - new))


# ----------------------------------------------------------------------
# value table


@dataclass
class GridValueTable:
    """Converged semi-Lagrangian value table."""

    grid: GridSpec
    values: np.ndarray
    fixed: np.ndarray
    h: float
    sweeps: int
    last_change: float

    def sup_error(self, fn: Callable[[np.ndarray], np.ndarray]):
        """Sup-norm distance to a reference function over resolved nodes."""
        X = self.grid.points()
        ref = np.asarray(fn(X), dtype=float)
        ok = self.values < RESOLVED
        if not np.any(ok):
            raise ConfigError("no resolved nodes to compare")
        err = np.abs(self.values[ok] - ref[ok])
        i = int(np.argmax(err))
        return float(err[i]), X[ok][i]


def hjb_value_iteration(
    system: ControlSystem,
    target: TargetSet,
    grid: GridSpec,
    h: float,
    *,
    iter_tol: float = 1e-8,
    max_sweeps: int = 100000,
    target_radius: Optional[float] = None,
    pin: Optional[tuple[np.ndarray, float]] = None,
) -> GridValueTable:
    """Solve the discretized exit-time problem on the grid.

    Nodes within target_radius (default half a grid spacing) of the
    target are pinned at zero; ``pin = (mask, value)`` optionally pins the
    masked nodes at one value (boundary layers around singular dynamics).
    Jacobi sweeps (jacobi_sweep) descend monotonically from the
    ceiling BIG; iteration stops when the largest change of a sweep
    falls to iter_tol (NonConvergence after max_sweeps otherwise).
    """
    if grid.dim > 3:
        raise ConfigError("the oracle is a brute-force check; dimensions above 3 are not supported")
    if target_radius is None:
        target_radius = grid.spacing / 2.0

    X = grid.points()
    fixed = target.d_many(X) <= target_radius
    values = np.full(X.shape[0], BIG, dtype=np.float64)
    values[fixed] = 0.0
    if pin is not None:
        mask, value = pin
        mask = np.asarray(mask, dtype=bool)
        values[mask] = float(value)
        fixed[mask] = True
    if not np.any(fixed):
        raise ConfigError(
            "no grid node lies within target_radius of the target; refine the grid"
        )

    idx, wts, stage = build_stencils(system, grid, h)

    t0 = time.perf_counter()
    sweeps = 0
    change = np.inf
    while sweeps < max_sweeps:
        values, change = jacobi_sweep(values, fixed, idx, wts, stage)
        sweeps += 1
        if change <= iter_tol:
            break
    elapsed = time.perf_counter() - t0
    log.info(
        "value iteration: %d sweeps, last change %.3g, %.3fs", sweeps, change, elapsed,
    )
    if not change <= iter_tol:  # a NaN change never converges
        raise NonConvergence(sweeps, change, iter_tol)

    return GridValueTable(
        grid=grid,
        values=values,
        fixed=fixed,
        h=h,
        sweeps=sweeps,
        last_change=change,
    )


# ----------------------------------------------------------------------
# bound comparison


def compare_bound(
    table: GridValueTable,
    mrf: CandidateMrf,
    *,
    oracle_tol: Optional[float] = None,
    target: Optional[TargetSet] = None,
    include: Optional[np.ndarray] = None,
) -> dict:
    """Check the value bound V <= U / p0_bar + oracle_tol node by node.

    p0_bar is the candidate's own ``mrf.p0_bar``.

    The inequality governs states off the target, so when a target is
    supplied its nodes are skipped: there V = 0 trivially while a glued
    candidate may extend to meaningless (even negative) values.  Nodes
    whose table value is still at the optimistic ceiling are skipped too
    (unreachable within the box), as are nodes masked out by ``include``
    (used to keep boundary-layer pins around singular dynamics out of
    the comparison).  A comparison that checks no node fails.  The
    default tolerance 2*(h + spacing) matches the first-order accuracy
    of the scheme.
    """
    p0_bar = mrf.p0_bar
    if p0_bar <= 0:
        raise ConfigError("the value bound needs a positive p0_bar")
    if oracle_tol is None:
        oracle_tol = 2.0 * (table.h + table.grid.spacing)

    X = table.grid.points()
    U = mrf.u_batch(X)
    ok = (table.values < RESOLVED) & np.isfinite(U)
    if target is not None:
        ok &= target.d_many(X) > 0.0
    if include is not None:
        ok &= np.asarray(include, dtype=bool)
    bound = U[ok] / p0_bar + oracle_tol
    gap = table.values[ok] - bound
    bad = gap > 0
    records = []
    if np.any(bad):
        idx = np.argsort(gap[bad])[::-1][:MAX_RECORDS]
        pts = X[ok][bad][idx]
        gaps = gap[bad][idx]
        vals = table.values[ok][bad][idx]
        records = [
            {"x": p.tolist(), "v": float(v), "gap": float(g)}
            for p, v, g in zip(pts, vals, gaps)
        ]
    report = {
        "passed": gap.size > 0 and not bool(np.any(bad)),
        "n_checked": int(np.sum(ok)),
        "n_skipped": int(np.sum(~ok)),
        "n_violations": int(np.sum(bad)),
        "worst_gap": float(np.max(gap)) if gap.size else float("-inf"),
        "oracle_tol": float(oracle_tol),
        "p0_bar": float(p0_bar),
        "violations": records,
    }
    log.info(
        "bound comparison: %d checked, %d violations (worst gap %.3g, tol %.3g)",
        report["n_checked"], report["n_violations"], report["worst_gap"], oracle_tol,
    )
    return report
