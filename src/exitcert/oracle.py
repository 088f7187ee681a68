"""Brute-force dynamic-programming oracle for cross-validation.

A semi-Lagrangian discretization of the exit-time problem on a box
grid: V(x) = min_a [ h*l(x,a) + V(x + h*f(x,a)) ] with multilinear
interpolation at the foot, V = 0 pinned on the target nodes, and
monotone non-increasing sweeps from an optimistic start.  The table is
independent of the certificate pipeline, so agreement between the two
is evidence, not circularity.  Also hosts the closed-loop constant
control flow used to check trajectories against exact solutions.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .certificates import MAX_RECORDS, CandidateMrf, GridSpec
from .pwl import bisect_root
from .systems import (
    ConfigError,
    ControlSystem,
    NegativeLagrangian,
    TargetSet,
    eval_dynamics,
)

log = logging.getLogger(__name__)

__all__ = [
    "NonConvergence",
    "GridValueTable",
    "build_stencils",
    "sweep_plan",
    "jacobi_sweep",
    "hjb_value_iteration",
    "compare_bound",
    "FlowResult",
    "simulate_constant_control",
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
    """Precompute interpolation stencils for every (node, control) pair.

    Returns (base, wts, offsets, stage): base[i, k] is the flat index of
    the lower interpolation corner for the foot x_i + h*f(x_i, a_k), or
    -1 when the foot leaves the box or the dynamics is singular there;
    wts[i, k, :] are the multilinear corner weights matching offsets;
    stage[i, k] = h * l(x_i, a_k).
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

    base = np.full((n, n_ctrl), -1, dtype=np.int64)
    wts = np.zeros((n, n_ctrl, len(corners)), dtype=np.float64)
    stage = np.zeros((n, n_ctrl), dtype=np.float64)
    lower = np.asarray(grid.lower, dtype=float)

    for k in range(n_ctrl):
        a = system.control(k)
        F = np.asarray(system.batch_dynamics(X, a), dtype=float)
        L = np.asarray(system.batch_lagrangian(X, a), dtype=float)
        bad_l = np.isfinite(L) & (L < 0)
        if np.any(bad_l):
            i = int(np.argmax(bad_l))
            raise NegativeLagrangian(X[i], k, float(L[i]))

        Y = X + h * F
        cells = (Y - lower) / grid.spacing
        limits = np.array([s - 1 for s in shape], dtype=float)
        inside = (
            np.all(np.isfinite(Y), axis=1)
            & np.isfinite(L)
            & np.all(cells >= -1e-9, axis=1)
            & np.all(cells <= limits[None, :] + 1e-9, axis=1)
        )
        cells = np.where(np.isfinite(cells), cells, 0.0)
        i0 = np.clip(np.floor(cells).astype(np.int64), 0, np.array(shape) - 2)
        frac = np.clip(cells - i0, 0.0, 1.0)

        flat = (i0 * strides[None, :]).sum(axis=1)
        w = np.ones((n, len(corners)))
        for ci, c in enumerate(corners):
            for j in range(dim):
                w[:, ci] *= frac[:, j] if c[j] else (1.0 - frac[:, j])
        base[inside, k] = flat[inside]
        wts[:, k, :] = w
        stage[:, k] = np.where(np.isfinite(L), h * L, 0.0)

    return base, wts, offsets, stage


def sweep_plan(base: np.ndarray, wts: np.ndarray, offsets: np.ndarray, stage: np.ndarray):
    """Rearrange build_stencils' output for jacobi_sweep.

    Returns control-major (idx, wts, stage): idx[k, i, c] is the flat
    index of corner c of the foot of (x_i, a_k), and stage[k, i] is inf
    where that foot leaves the box, so the control never wins the
    minimum.  Putting the control axis first makes the minimum over
    controls an elementwise minimum of whole rows, several times faster
    than a reduction along a short trailing axis.
    """
    inside = base >= 0
    idx = np.where(inside, base, 0)[:, :, None] + offsets
    return (
        np.ascontiguousarray(idx.transpose(1, 0, 2)),
        np.ascontiguousarray(wts.transpose(1, 0, 2)),
        np.ascontiguousarray(np.where(inside, stage, np.inf).T),
    )


def jacobi_sweep(values, fixed, idx, wts, stage):
    """One synchronous update of the table; returns (new_values, max_change).

    Every non-fixed node takes
    min(values[i], min_k stage[k, i] + sum_c wts[k, i, c] * values[idx[k, i, c]])
    against the previous table, so the iteration descends monotonically
    and the result does not depend on node order.
    """
    best = (stage + np.einsum("knc,knc->kn", wts, values[idx])).min(axis=0)
    new = np.where(fixed, values, np.minimum(values, best))
    return new, float(np.max(values - new))


# ----------------------------------------------------------------------
# value table


@dataclass
class GridValueTable:
    """Converged (or interrupted) semi-Lagrangian value table."""

    grid: GridSpec
    values: np.ndarray
    fixed: np.ndarray
    h: float
    sweeps: int
    last_change: float
    converged: bool

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
    fixed = (target.d_many(X) <= target_radius).astype(np.uint8)
    values = np.full(X.shape[0], BIG, dtype=np.float64)
    values[fixed.astype(bool)] = 0.0
    if pin is not None:
        mask, value = pin
        mask = np.asarray(mask, dtype=bool)
        values[mask] = float(value)
        fixed[mask] = 1
    if not np.any(fixed):
        raise ConfigError(
            "no grid node lies within target_radius of the target; refine the grid"
        )

    base, wts, offsets, stage = build_stencils(system, grid, h)
    idx, wts, stage = sweep_plan(base, wts, offsets, stage)
    pinned = fixed.astype(bool)

    t0 = time.perf_counter()
    sweeps = 0
    change = np.inf
    converged = False
    while sweeps < max_sweeps:
        values, change = jacobi_sweep(values, pinned, idx, wts, stage)
        sweeps += 1
        if change <= iter_tol:
            converged = True
            break
    elapsed = time.perf_counter() - t0
    log.info(
        "value iteration: %d sweeps, last change %.3g, %.3fs", sweeps, change, elapsed,
    )
    if not converged:
        raise NonConvergence(sweeps, change, iter_tol)

    return GridValueTable(
        grid=grid,
        values=values,
        fixed=fixed,
        h=h,
        sweeps=sweeps,
        last_change=change,
        converged=converged,
    )


# ----------------------------------------------------------------------
# bound comparison


def compare_bound(
    table: GridValueTable,
    mrf: CandidateMrf,
    *,
    p0_bar: Optional[float] = None,
    oracle_tol: Optional[float] = None,
    target: Optional[TargetSet] = None,
    include: Optional[np.ndarray] = None,
) -> dict:
    """Check the value bound V <= U / p0_bar + oracle_tol node by node.

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
    if p0_bar is None:
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


# ----------------------------------------------------------------------
# closed-loop flow with a frozen control


@dataclass
class FlowResult:
    reached: bool
    t_end: float
    state_end: np.ndarray
    d_end: float
    winding: Optional[float]  # accumulated polar angle in radians, 2-D only

    @property
    def turns(self) -> Optional[float]:
        return None if self.winding is None else self.winding / (2.0 * np.pi)


def simulate_constant_control(
    system: ControlSystem,
    target: TargetSet,
    x0: np.ndarray,
    a_index: int,
    *,
    d_stop: float = 1e-3,
    t_max: float = 100.0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    track_winding: Optional[bool] = None,
) -> FlowResult:
    """Integrate the open-loop dynamics until d(z) falls to d_stop.

    High-accuracy reference for approach times; in two dimensions the
    polar angle is accumulated alongside the state, so the total
    winding comes out of the same integration instead of a lossy
    post-hoc unwrap.  The CLI never calls it; the tests use it as a
    reference flow.  It needs scipy (DOP853 from ``solve_ivp``), which
    only the ``dev`` extra installs.
    """
    from scipy.integrate import solve_ivp

    x0 = np.asarray(x0, dtype=float)
    dim = len(x0)
    if track_winding is None:
        track_winding = dim == 2

    def rhs(t, y):
        z = y[:dim]
        f = eval_dynamics(system, z, a_index)
        if not track_winding:
            return f
        rho2 = z[0] * z[0] + z[1] * z[1]
        dtheta = (z[0] * f[1] - z[1] * f[0]) / rho2 if rho2 > 0 else 0.0
        return np.concatenate([f, [dtheta]])

    def hit_target(t, y):
        return target.d(y[:dim]) - d_stop

    hit_target.terminal = True
    hit_target.direction = -1.0

    y0 = np.concatenate([x0, [0.0]]) if track_winding else x0
    sol = solve_ivp(
        rhs, (0.0, t_max), y0, method="DOP853", rtol=rtol, atol=atol,
        events=[hit_target], dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"flow integration failed: {sol.message}")

    reached = len(sol.t_events[0]) > 0
    if reached:
        t_end = float(sol.t_events[0][0])
        y_end = sol.y_events[0][0]
    else:
        t_end = float(sol.t[-1])
        y_end = sol.y[:, -1]
        # a fast pass through the collar can fit entirely inside one
        # accepted step, where the endpoint sign check cannot see it;
        # rescan the dense solution at a speed-scaled resolution
        for ta, tb in zip(sol.t[:-1], sol.t[1:]):
            v = max(
                float(np.linalg.norm(eval_dynamics(system, sol.sol(ta)[:dim], a_index))),
                float(np.linalg.norm(eval_dynamics(system, sol.sol(tb)[:dim], a_index))),
                1e-12,
            )
            n = int(min(200_000, max(2, np.ceil((tb - ta) * v / (0.5 * d_stop)))))
            ts = np.linspace(ta, tb, n + 1)
            below = np.where(target.d_many(sol.sol(ts)[:dim].T) <= d_stop)[0]
            if below.size:
                k = int(below[0])
                t_end = float(ts[k])
                if k > 0:
                    t_end = bisect_root(
                        lambda t: float(target.d(sol.sol(t)[:dim])) - d_stop,
                        float(ts[k - 1]),
                        float(ts[k]),
                    )
                y_end = sol.sol(t_end)
                reached = True
                break
    state_end = np.asarray(y_end[:dim])
    winding = float(y_end[dim]) if track_winding else None
    return FlowResult(
        reached=reached,
        t_end=t_end,
        state_end=state_end,
        d_end=float(target.d(state_end)),
        winding=winding,
    )
