"""Closed-loop flow with a frozen control, integrated by scipy.

A high-accuracy reference for approach times and winding, kept next to
the tests that check trajectories against exact solutions.  The package
never calls it.  It needs scipy (DOP853 from ``solve_ivp``), which only
the ``dev`` extra installs; the import waits for the first call, so the
test modules that import this one still collect without scipy.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from exitcert.pwl import bisect_root
from exitcert.systems import ControlSystem, TargetSet, eval_dynamics


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
    post-hoc unwrap.
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
