"""Pure-Python Gauss-Seidel reference for the oracle's Jacobi kernel.

Same semi-Lagrangian operator as ``exitcert.oracle.jacobi_sweep``, but
applied node by node and in place, alternating the sweep direction, so
each update already sees the nodes updated earlier in the same sweep.
It shares only the stencils with the library, read in its own
node-major view; the tests compare the vectorised kernel's tables
against it.
"""

import numpy as np

from exitcert.oracle import BIG, build_stencils


def gs_sweep(values, fixed, idx, wts, stage, reverse):
    """One Gauss-Seidel sweep; mutates values and returns the largest decrease.

    The plan is node-major: each non-fixed node takes the best one-step value
    min_k stage[i, k] + sum_c wts[i, k, c] * values[idx[i, k, c]]
    over controls whose foot lies in the box (finite stage), if it
    improves on the current value.
    """
    n, n_ctrl = stage.shape
    n_corners = idx.shape[2]
    max_change = 0.0
    order = range(n - 1, -1, -1) if reverse else range(n)
    for i in order:
        if fixed[i]:
            continue
        best = values[i]
        for k in range(n_ctrl):
            acc = stage[i, k]
            if acc == np.inf:
                continue
            for c in range(n_corners):
                acc += wts[i, k, c] * values[idx[i, k, c]]
            if acc < best:
                best = acc
        max_change = max(max_change, values[i] - best)
        values[i] = best
    return max_change


def initial_table(target, grid, target_radius=None, pin=None):
    """(values, fixed): the ceiling BIG, zero on target nodes, pins applied."""
    if target_radius is None:
        target_radius = grid.spacing / 2.0
    X = grid.points()
    fixed = (target.d_many(X) <= target_radius).astype(np.uint8)
    values = np.where(fixed.astype(bool), 0.0, BIG)
    if pin is not None:
        mask, value = pin
        values[mask] = value
        fixed[mask] = 1
    return values, fixed


def gs_value_table(system, target, grid, h, *, iter_tol=1e-8, max_sweeps=100000,
                   target_radius=None, pin=None):
    """Converged Gauss-Seidel table and its sweep count."""
    values, fixed = initial_table(target, grid, target_radius, pin)
    idx, wts, stage = build_stencils(system, grid, h)
    # the library's plan is control-major; this reference walks node by node
    plan = idx.transpose(1, 0, 2), wts.transpose(1, 0, 2), stage.T
    for sweep in range(max_sweeps):
        if gs_sweep(values, fixed, *plan, bool(sweep % 2)) <= iter_tol:
            return values, sweep + 1
    raise AssertionError(f"reference did not converge in {max_sweeps} sweeps")
