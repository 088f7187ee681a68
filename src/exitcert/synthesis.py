"""Constructive trajectories from a certified decrease modulus.

The construction works in an internal clock s in which the certified
inequality forces U to fall at unit-order rate: legs chase a geometric
cascade of U-levels with piecewise-constant feedback, each step length
is accepted only after the sampled decrease actually holds, and the
physical clock is recovered afterwards by integrating dt = ds / g with
g = p0_bar * l + m(U).  The distance envelopes and the composed decay
bound live here too, since they are consumed by the same audits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import certificates
from .certificates import D_FLOOR, CandidateMrf, DecreaseModulus, GridSpec
from .pwl import (
    MonotonePL, illinois_root, level_max, lift_strict, lower_strict, pwl_min, sorted_unique,
)
from .systems import (
    ConfigError,
    ControlSystem,
    Partition,
    SingularDynamics,
    TargetSet,
    Trajectory,
    TrajectoryStatus,
    eval_block,
    eval_dynamics,
    eval_lagrangian,
)

log = logging.getLogger(__name__)

__all__ = [
    "SynthesisConfig",
    "FeedbackGap",
    "StepCollapse",
    "ModulusError",
    "FeedbackChoice",
    "feedback_select",
    "LegStep",
    "LegResult",
    "LegTimes",
    "integrate_leg",
    "reparam_to_time",
    "SynthesisResult",
    "synthesize",
    "build_sigma_envelopes",
    "KLBound",
    "build_kl_bound",
    "verify_kl",
]


# ----------------------------------------------------------------------
# errors


class FeedbackGap(RuntimeError):
    """No (gradient, control) pair reaches the certified decrease quotient."""

    def __init__(self, x, best_value: float, best_index: int):
        self.x = np.asarray(x, dtype=float)
        self.best_value = float(best_value)
        self.best_index = int(best_index)
        super().__init__(
            f"best decrease quotient {self.best_value:.6g} > -1 at x={self.x.tolist()} "
            f"(control index {self.best_index}); the certificate does not cover this point"
        )


class StepCollapse(RuntimeError):
    """Step-length halving hit the floor without an acceptable step."""

    def __init__(self, x, delta: float, detail: str = ""):
        self.x = np.asarray(x, dtype=float)
        self.delta = float(delta)
        msg = f"step length collapsed to {delta:.3g} at x={self.x.tolist()}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ModulusError(RuntimeError):
    """The reparameterization denominator g = p0*l + m(U) lost positivity."""

    def __init__(self, x, g: float):
        self.x = np.asarray(x, dtype=float)
        self.g = float(g)
        super().__init__(f"g = {g:.6g} <= 0 at x={self.x.tolist()}")


# ----------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SynthesisConfig:
    """The two settings of a synthesis run; the integrator's other numbers are constants below."""

    epsilon: float = 0.1          # cost slack: budget (1+epsilon) * U(x) / p0_bar
    d_tol: float = 1e-3           # stop once d(x) falls below this

    def __post_init__(self) -> None:
        # the one set of range checks, for library and YAML input alike;
        # each message starts with the field's name
        for name in ("epsilon", "d_tol"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)!r}")


# geometric level cascade mu_k = NU_RATIO^k * U(x), for at most MAX_LEVELS legs
NU_RATIO = 0.5
MAX_LEVELS = 20

# first trial step length in the s-clock; a step collapses below DELTA_MIN_REL * DELTA_INIT
DELTA_INIT = 0.1
DELTA_MIN_REL = 1e-9

# RK4 substeps per step; even, since reparam_to_time's error estimate pairs the substeps
SUBSTEPS = 16

# level crossing tolerance, relative to the leg's exit level mu_hat
LEVEL_TOL_REL = 1e-8

# inflation of the local speed estimate that bounds a trial step's length
MF_SAFETY = 2.0

# a leg that takes more steps than this raises StepCollapse
MAX_STEPS_PER_LEG = 20000


# ----------------------------------------------------------------------
# feedback selection


@dataclass(frozen=True)
class FeedbackChoice:
    """The chosen pair, with f and g = p0*l + m(U) of its control at the anchor."""

    a_index: int
    p: np.ndarray
    quotient: float
    f: tuple
    g: float


def feedback_select(
    system: ControlSystem, mrf: CandidateMrf, modulus: DecreaseModulus, x: np.ndarray
) -> FeedbackChoice:
    """Pick the (gradient, control) pair with the best decrease quotient.

    The quotient is <p, f(x,a)> / (p0*l(x,a) + m(U(x))); the certificate
    makes it <= -1 for some pair.  Evaluates f and g once per control,
    then scans every pair gradient by gradient, minimizes, breaks ties
    toward the earlier pair, and raises FeedbackGap when even the best
    pair misses the threshold.
    """
    x = np.asarray(x, dtype=float)
    m_u = float(modulus(mrf.u(x)))
    grads = mrf.limiting_gradients(x)  # its ConfigError comes before any model error
    fs, gs = [], []
    for k in range(system.n_controls):
        fs.append(eval_dynamics(system, x, k))
        g = mrf.p0_bar * eval_lagrangian(system, x, k) + m_u
        if g <= 0:
            raise ModulusError(x, g)
        gs.append(g)
    best_q = np.inf
    best_k = 0
    best_p: Optional[np.ndarray] = None
    for p in grads:
        for k in range(system.n_controls):
            q = float(np.dot(p, fs[k])) / gs[k]
            if q < best_q:
                best_q = q
                best_k = k
                best_p = p
    if best_q > -1.0:  # also when no pair was scanned: best_q is still inf
        raise FeedbackGap(x, best_q, best_k)
    return FeedbackChoice(a_index=best_k, p=np.asarray(best_p, dtype=float), quotient=best_q,
                          f=fs[best_k], g=gs[best_k])


# ----------------------------------------------------------------------
# leg integration


def _cutoff(u: float, mu_hat: float, sigma: float) -> float:
    """C1 plateau equal to 1 on [mu_hat/2, sigma], 0 outside [mu_hat/4, sigma+1]."""
    if mu_hat / 2.0 <= u <= sigma:
        return 1.0
    if u <= mu_hat / 4.0 or u >= sigma + 1.0:
        return 0.0
    if u < mu_hat / 2.0:
        t = (u - mu_hat / 4.0) / (mu_hat / 4.0)
    else:
        t = sigma + 1.0 - u
    return t * t * (3.0 - 2.0 * t)


def _make_field(system, mrf, modulus, a_index, mu_hat, sigma):
    """The normalized field psi(U) f/g of one control, on tuples of floats.

    F(z) returns the field at z and U(z), which it needs for g and the
    cutoff anyway.
    """
    p0 = mrf.p0_bar

    def F(z: tuple) -> tuple[tuple, float]:
        f = eval_dynamics(system, z, a_index)
        l = eval_lagrangian(system, z, a_index)
        u = mrf.u(z)
        g = p0 * l + float(modulus(u))
        if g <= 0:
            raise ModulusError(z, g)
        c = _cutoff(u, mu_hat, sigma)
        return tuple([c * fi / g for fi in f]), u

    return F


def _rk4_path(F, z0, length: float, n: int, stop_at: float = -math.inf) -> np.ndarray:
    """RK4 substeps of length/n with F from z0; returns the (m+1, dim) path.

    Integrates all n substeps (m = n), unless a node's U is at or below
    stop_at: the path then ends one substep past the first such node.
    The state is a tuple of floats, and each update rounds as the array
    form z + (h/6)*(k1 + 2*k2 + 2*k3 + k4) does, element by element.
    """
    h = length / n
    half, sixth = 0.5 * h, h / 6.0
    z = tuple(np.asarray(z0, dtype=float).tolist())
    rows = [z]
    for _ in range(n):
        k1, u = F(z)
        k2 = F(tuple([zi + half * ki for zi, ki in zip(z, k1)]))[0]
        k3 = F(tuple([zi + half * ki for zi, ki in zip(z, k2)]))[0]
        k4 = F(tuple([zi + h * ki for zi, ki in zip(z, k3)]))[0]
        z = tuple([zi + sixth * (a + 2.0 * b + 2.0 * c + d)
                   for zi, a, b, c, d in zip(z, k1, k2, k3, k4)])
        rows.append(z)
        if u <= stop_at:
            break
    return np.array(rows)


@dataclass
class LegStep:
    """One constant-control step of a leg, sampled at the RK4 substeps."""

    a_index: int
    s0: float           # the leg's s-clock at the step's anchor
    length: float
    s: np.ndarray       # substep offsets from the anchor: s[0] == 0, s[-1] == length
    states: np.ndarray  # (n_kept+1, dim), states[0] is the anchor
    u: np.ndarray
    d: np.ndarray


@dataclass
class LegTimes:
    """Physical-clock data for a leg, aligned with its substep trail."""

    t_sub: np.ndarray        # t at the leg's start node, then at each step's kept substeps
    cost_sub: np.ndarray
    t_steps: np.ndarray      # duration of each step
    cost_steps: np.ndarray
    m_int_steps: np.ndarray  # integral of m(U) dt over each step
    quad_err: float          # Richardson estimate for the worst step quadrature
    residual_max: float      # worst relative ODE residual of the t-parameterized path


# build_sigma_envelopes' linear ladder has this many levels from 0 to sigma
ENVELOPE_KNOTS = 33

# verify_kl passes a node whose distance exceeds the decay bound by at most this
KL_TOL = 1e-9

# deterministic work counters of integrate_leg, per leg and summed per state
WORK_COUNTERS = ("rk4_substeps", "rk4_paths", "rejected_trials", "crossing_evals",
                 "accepted_steps")


@dataclass
class LegResult:
    """A leg from level mu_bar down to mu_hat (or into the target collar).

    The leg's nodes are x0 followed by each step's states after its
    anchor; the steps carry them, with their s offsets, U and d.
    """

    x0: np.ndarray
    u0: float          # U(x0)
    mu_bar: float
    mu_hat: float
    sigma: float       # the band top of the field's cutoff
    epsilon: float
    status: TrajectoryStatus
    steps: list
    work: dict         # WORK_COUNTERS -> count
    times: Optional[LegTimes] = None

    @property
    def s_bar(self) -> float:
        if not self.steps:
            return 0.0
        last = self.steps[-1]
        return float(last.s0 + last.s[-1])

    @property
    def u_end(self) -> float:
        return float(self.steps[-1].u[-1]) if self.steps else self.u0

    @property
    def partition(self) -> Partition:
        pts = [0.0]
        for st in self.steps:
            pts.append(st.s0 + st.length)
        return Partition(np.asarray(pts))


def integrate_leg(
    system: ControlSystem,
    target: TargetSet,
    mrf: CandidateMrf,
    modulus: DecreaseModulus,
    x0: np.ndarray,
    mu_bar: float,
    mu_hat: float,
    config: SynthesisConfig,
    *,
    sigma: float,
) -> LegResult:
    """Drive U from its value at x0 down to mu_hat with sampled feedback.

    Each step freezes the control chosen at its anchor and integrates
    the normalized field f/g with RK4.  A trial path ends one substep
    past its first node at or below the exit level (plus its tolerance).
    A trial length is accepted only if every substep of the path
    satisfies the per-step decrease
    U(z(s)) - U(anchor) <= -(s - s_anchor)/(epsilon+1); otherwise it is
    halved (StepCollapse below the floor).  A step that crosses the exit
    level keeps its trial path up to the last even node before the
    crossing and ends on one pair of equal RK4 substeps from that node,
    whose length the Illinois method adjusts until U at its end meets
    the level; the step's substep count stays even.  Steps whose
    interior already dips to the endpoint value are cut at the first
    such substep so that node values strictly decrease.  Stops early
    with status approached_target once d(x) < d_tol.  sigma is the band
    top at which the field cuts off.  The leg's ``work`` counts RK4
    paths and the substeps integrated (a path that raises counts in
    full), rejected trial lengths, crossing evaluations and accepted
    steps.
    """
    x0 = np.asarray(x0, dtype=float)
    if not 0 < mu_hat < mu_bar:
        raise ConfigError(f"need 0 < mu_hat < mu_bar, got {mu_hat}, {mu_bar}")
    eps1 = config.epsilon + 1.0
    level_tol = max(LEVEL_TOL_REL * mu_hat, 1e-15)
    delta_min = DELTA_MIN_REL * DELTA_INIT
    n_sub = SUBSTEPS

    u0 = mrf.u(x0)
    if u0 > mu_bar * (1.0 + 1e-6) + 1e-12:
        raise ConfigError(f"U(x0) = {u0} exceeds the leg's top level {mu_bar}")

    steps: list[LegStep] = []
    work = dict.fromkeys(WORK_COUNTERS, 0)
    status: Optional[TrajectoryStatus] = None
    state = x0.copy()
    s_acc = 0.0

    def rk4(F, z0, length, n, stop_at=-math.inf):
        work["rk4_paths"] += 1
        work["rk4_substeps"] += n
        path = _rk4_path(F, z0, length, n, stop_at)
        work["rk4_substeps"] -= n + 1 - len(path)  # substeps a stop skipped
        return path

    while status is None:
        u_anchor = mrf.u(state)
        d_anchor = target.d(state)
        if d_anchor < config.d_tol:
            status = TrajectoryStatus.APPROACHED_TARGET
            break
        if u_anchor <= mu_hat + level_tol:
            status = TrajectoryStatus.REACHED_LEVEL
            break
        if len(steps) >= MAX_STEPS_PER_LEG:
            raise StepCollapse(state, 0.0, f"exceeded {MAX_STEPS_PER_LEG} steps per leg")

        choice = feedback_select(system, mrf, modulus, state)
        F = _make_field(system, mrf, modulus, choice.a_index, mu_hat, sigma)

        # movement budget: |U drop| <= L * R must not punch through mu_hat/2,
        # so the cutoff stays at 1 along any accepted step
        L_loc = max(float(np.linalg.norm(choice.p)), 1e-12)
        R = mu_hat / (2.0 * L_loc)
        speed = MF_SAFETY * max(float(np.linalg.norm(choice.f)), 1e-12) / choice.g
        trial = min(DELTA_INIT, mu_hat / 2.0, R / speed)

        # one accepted step; halve the trial length on any failed audit
        while True:
            if trial < delta_min:
                raise StepCollapse(state, trial, "per-step decrease unattainable")
            try:
                path = rk4(F, state, trial, n_sub, mu_hat + level_tol)
            except (ModulusError, SingularDynamics):
                work["rejected_trials"] += 1
                trial *= 0.5
                continue
            ds = trial * np.arange(len(path)) / n_sub
            u_path = mrf.u_batch(path)
            slack = 1e-13 * (1.0 + trial)
            if not np.all(u_path - u_anchor <= -ds / eps1 + slack) or (
                float(np.max(np.linalg.norm(path - state, axis=1))) > R * 1.0000001
            ):
                work["rejected_trials"] += 1
                trial *= 0.5
                continue

            d_path = target.d_many(path)
            hit = np.where(d_path[1:] < config.d_tol)[0]
            hit_i = int(hit[0]) + 1 if hit.size else None
            crossed = np.where(u_path[1:] <= mu_hat + level_tol)[0]
            cross_i = int(crossed[0]) + 1 if crossed.size else None

            if hit_i is not None and (cross_i is None or hit_i <= cross_i):
                # target approach: truncate at the first substep in the collar
                length = float(ds[hit_i])
                ds = ds[: hit_i + 1]
                path = path[: hit_i + 1]
                u_path = u_path[: hit_i + 1]
                d_path = d_path[: hit_i + 1]
                status = TrajectoryStatus.APPROACHED_TARGET
                break

            if cross_i is not None:
                # exit-level crossing: keep the trial path up to the last even
                # node j before it, and solve for the length of one final pair
                # of equal RK4 substeps from there; the kept tail is the pair
                # the root finder returned, so the substep count stays even
                j = (cross_i - 1) - (cross_i - 1) % 2
                s_j, z_j = float(ds[j]), path[j]
                tails = {s_j: path[[j, j, j]]}  # illinois_root reads this zero-length pair first

                def gap(t: float) -> float:
                    if t not in tails:
                        tails[t] = rk4(F, z_j, t - s_j, 2)
                        work["crossing_evals"] += 1
                    return mrf.u(tails[t][-1]) - mu_hat

                hi = float(ds[cross_i])
                if gap(hi) > level_tol and cross_i < n_sub:
                    # the pair's end can miss the level the trial path met;
                    # the trial path ran one substep past cross_i for this
                    hi = float(ds[cross_i + 1])
                length = illinois_root(gap, s_j, hi, ftol=level_tol)
                path = np.concatenate([path[:j], tails[length]])
                ds = np.append(ds[: j + 1], [s_j + 0.5 * (length - s_j), length])
                u_path = mrf.u_batch(path)
                slack = 1e-13 * (1.0 + length)
                if not np.all(u_path - u_anchor <= -ds / eps1 + slack):
                    # rare: the shortened step resamples a transient bump;
                    # keep halving from below the crossing bracket
                    work["rejected_trials"] += 1
                    trial = 0.5 * length
                    continue
                d_path = target.d_many(path)
                status = TrajectoryStatus.REACHED_LEVEL
                break

            # interior refinement: cut at the first substep that already
            # reaches the end value, so node values strictly decrease
            u_end = u_path[-1]
            kstar = int(np.where(u_path[1:] <= u_end)[0][0]) + 1
            length = float(ds[kstar])  # the trial length when kstar is the last node
            ds = ds[: kstar + 1]
            path = path[: kstar + 1]
            u_path = u_path[: kstar + 1]
            d_path = d_path[: kstar + 1]
            break

        steps.append(
            LegStep(a_index=choice.a_index, s0=s_acc, length=length, s=ds,
                    states=path, u=u_path, d=d_path)
        )
        s_acc += length
        state = path[-1].copy()

    return LegResult(
        x0=x0,
        u0=u0,
        mu_bar=mu_bar,
        mu_hat=mu_hat,
        sigma=sigma,
        epsilon=config.epsilon,
        status=status,
        steps=steps,
        work=dict(work, accepted_steps=len(steps)),
    )


# ----------------------------------------------------------------------
# reparameterization to the physical clock


def reparam_to_time(
    leg: LegResult,
    system: ControlSystem,
    mrf: CandidateMrf,
    modulus: DecreaseModulus,
) -> LegTimes:
    """Recover t and the running cost from the internal clock.

    On each step dt = ds / g with g = p0*l + m(U) evaluated along the
    stored substep states; time, cost and the modulus integral come from
    trapezoid sums over the step's substep widths.  On a step with an
    even substep count, whose pairs have equal halves, the difference
    from the trapezoid sum over pairs is the Richardson estimate of the
    quadrature error.  Also measures the worst relative
    residual of dz/dt against f at segment midpoints, which checks that
    the reparameterized path solves the original dynamics.
    """
    p0 = mrf.p0_bar
    t_sub = [0.0]
    cost_sub = [0.0]
    t_steps = []
    cost_steps = []
    m_int_steps = []
    quad_err = 0.0
    residual_max = 0.0

    for st in leg.steps:
        n = len(st.states) - 1
        w = np.diff(st.s)
        _, l_vals = eval_block(system, st.states, st.a_index, dynamics=False)
        m_vals = np.asarray(modulus(st.u), dtype=float)
        g_vals = p0 * l_vals + m_vals
        if np.any(g_vals <= 0):
            bad = int(np.argmin(g_vals))
            raise ModulusError(st.states[bad], float(g_vals[bad]))
        inv_g = 1.0 / g_vals
        lc = l_vals * inv_g
        mc = m_vals * inv_g

        dt = w * 0.5 * (inv_g[:-1] + inv_g[1:])
        dc = w * 0.5 * (lc[:-1] + lc[1:])
        dm = w * 0.5 * (mc[:-1] + mc[1:])
        t_step = float(np.sum(dt))
        c_step = float(np.sum(dc))
        m_step = float(np.sum(dm))

        # Richardson: trapezoid error is about (fine - coarse) / 3
        if n >= 2 and n % 2 == 0:
            w2 = w[0::2] + w[1::2]
            coarse_t = float(np.sum(w2 * 0.5 * (inv_g[:-2:2] + inv_g[2::2])))
            coarse_c = float(np.sum(w2 * 0.5 * (lc[:-2:2] + lc[2::2])))
            quad_err = max(
                quad_err, abs(t_step - coarse_t) / 3.0, abs(c_step - coarse_c) / 3.0
            )

        # ODE residual of the t-parameterized path at segment midpoints
        if np.any(dt <= 0):
            i = int(np.argmax(dt <= 0))
            raise ModulusError(st.states[i], float(g_vals[i]))
        z_mid = 0.5 * (st.states[:-1] + st.states[1:])
        u_mid = 0.5 * (st.u[:-1] + st.u[1:])
        psi = [_cutoff(u, leg.mu_hat, leg.sigma) for u in u_mid.tolist()]
        f_raw, _ = eval_block(system, z_mid, st.a_index, lagrangian=False)
        f_mid = np.asarray(psi)[:, None] * f_raw
        r = (st.states[1:] - st.states[:-1]) / dt[:, None] - f_mid
        # np.vecdot (numpy >= 2.0) rounds each row like np.linalg.norm on that one
        # row; np.linalg.norm(axis=1) rounds like einsum, which may differ (see
        # sample_band's max_p)
        res = np.sqrt(np.vecdot(r, r)) / (1.0 + np.sqrt(np.vecdot(f_mid, f_mid)))
        residual_max = max(residual_max, float(np.max(res)))

        off_t = t_sub[-1]
        off_c = cost_sub[-1]
        t_sub.extend((off_t + np.cumsum(dt)).tolist())
        cost_sub.extend((off_c + np.cumsum(dc)).tolist())
        t_steps.append(t_step)
        cost_steps.append(c_step)
        m_int_steps.append(m_step)

    times = LegTimes(
        t_sub=np.asarray(t_sub),
        cost_sub=np.asarray(cost_sub),
        t_steps=np.asarray(t_steps),
        cost_steps=np.asarray(cost_steps),
        m_int_steps=np.asarray(m_int_steps),
        quad_err=quad_err,
        residual_max=residual_max,
    )
    leg.times = times
    return times


# ----------------------------------------------------------------------
# full synthesis


@dataclass
class SynthesisResult:
    trajectory: Trajectory
    legs: list
    levels: list
    u0: float
    d0: float
    epsilon: float
    p0_bar: float
    cost_bound: Optional[float]
    status: TrajectoryStatus

    @property
    def total_cost(self) -> float:
        return self.trajectory.total_cost

    def report(self) -> dict:
        """The audit tree: per-leg measurements, each leg with its pass/fail ``checks``."""
        per_leg = []
        for leg in self.legs:
            tm = leg.times
            step_decrease = []
            integral_dec = []
            strict_nodes = True
            for j, st in enumerate(leg.steps):
                n = len(st.states) - 1
                step_decrease.append(
                    float(np.max(st.u - st.u[0] + st.s / (leg.epsilon + 1.0)))
                )
                if n > 1 and np.any(st.u[1:-1] <= st.u[-1]):
                    strict_nodes = False
                du = float(st.u[-1] - st.u[0])
                integral_dec.append(
                    du
                    + (self.p0_bar * tm.cost_steps[j] + tm.m_int_steps[j])
                    / (leg.epsilon + 1.0)
                )
            entry = {
                "mu_bar": leg.mu_bar,
                "mu_hat": leg.mu_hat,
                "status": leg.status.value,
                "n_steps": len(leg.steps),
                "s_bar": leg.s_bar,
                "u_end": leg.u_end,
                "partition_diameter": leg.partition.diameter if leg.steps else 0.0,
                "step_decrease_worst": max(step_decrease) if step_decrease else 0.0,
                "strict_node_decrease": strict_nodes,
                "s_bar_budget": (leg.epsilon + 1.0) * leg.u0,
                "work": dict(leg.work),
                "integral_decrease_worst": max(integral_dec) if integral_dec else 0.0,
                "integral_decrease_tol": 10.0 * tm.quad_err + 1e-12,
                "quad_err": tm.quad_err,
                "residual_max": tm.residual_max,
                "t_total": float(tm.t_sub[-1]),
                "cost_total": float(tm.cost_sub[-1]),
            }
            s_bar = entry["s_bar"]
            checks = {
                "step_decrease": entry["step_decrease_worst"] <= 1e-11 * (1.0 + abs(s_bar)),
                "progress_budget": s_bar <= entry["s_bar_budget"] * (1.0 + 1e-9) + 1e-15,
                "strict_node_decrease": strict_nodes,
                "integral_decrease": (
                    entry["integral_decrease_worst"] <= entry["integral_decrease_tol"]
                ),
                "level_attained": (
                    leg.status is not TrajectoryStatus.REACHED_LEVEL
                    or leg.u_end <= leg.mu_hat * (1.0 + 1e-6) + 1e-12
                ),
            }
            entry["checks"] = {name: bool(ok) for name, ok in checks.items()}
            per_leg.append(entry)
        return {
            "u0": self.u0,
            "d0": self.d0,
            "epsilon": self.epsilon,
            "levels": self.levels,
            "status": self.status.value,
            "total_cost": self.total_cost,
            "cost_bound": self.cost_bound,
            "cost_within_bound": (
                None if self.cost_bound is None else bool(self.total_cost <= self.cost_bound)
            ),
            "u_max_along": float(np.max(self.trajectory.u)) if self.trajectory.n_nodes else None,
            "work": {k: sum(leg.work[k] for leg in self.legs) for k in WORK_COUNTERS},
            "legs": per_leg,
        }


def synthesize(
    system: ControlSystem,
    target: TargetSet,
    mrf: CandidateMrf,
    modulus: DecreaseModulus,
    x0: np.ndarray,
    config: SynthesisConfig,
    *,
    sigma: float,
) -> SynthesisResult:
    """Concatenate legs along the geometric level cascade mu_k = nu^k U(x0).

    Runs until the target collar is reached (approached_target), the
    level budget is exhausted (truncated), or a leg fails (exceptions
    propagate).  sigma is the certified band top: a start with
    U(x0) >= sigma is refused, and every leg's field cuts off there.
    The result carries the full substep trail as a Trajectory in both
    clocks plus per-leg audit data.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = mrf.u(x0)
    d0 = target.d(x0)
    cost_bound = (config.epsilon + 1.0) * u0 / mrf.p0_bar if mrf.p0_bar > 0 else None

    if d0 < config.d_tol:
        traj = Trajectory(
            t=np.array([0.0]),
            s=np.array([0.0]),
            states=x0[None, :],
            a_index=np.array([0]),
            cost=np.array([0.0]),
            u=np.array([u0]),
            d=np.array([d0]),
            status=TrajectoryStatus.APPROACHED_TARGET,
        )
        return SynthesisResult(
            trajectory=traj, legs=[], levels=[], u0=u0, d0=d0,
            epsilon=config.epsilon, p0_bar=mrf.p0_bar, cost_bound=cost_bound,
            status=TrajectoryStatus.APPROACHED_TARGET,
        )
    if u0 <= 0:
        raise ConfigError(
            f"U(x0) = {u0} is not positive at d(x0) = {d0}; "
            "the candidate is not positive definite at the start point"
        )
    if u0 >= sigma:
        raise ConfigError(
            f"U(x0) = {u0} is not below the certified band top {sigma}; "
            "the construction only covers starts inside the band"
        )

    legs: list[LegResult] = []
    levels: list[float] = []
    t_all = [0.0]
    s_all = [0.0]
    z_all = [x0.copy()]
    a_all = [0]
    c_all = [0.0]
    u_all = [u0]
    d_all = [d0]

    state = x0.copy()
    status = TrajectoryStatus.TRUNCATED
    mu_prev = u0
    for k in range(1, MAX_LEVELS + 1):
        mu_k = u0 * NU_RATIO**k
        if target.d(state) < config.d_tol:
            status = TrajectoryStatus.APPROACHED_TARGET
            break
        if mrf.u(state) <= mu_k:
            mu_prev = mu_k
            continue  # level already passed by the previous leg's overshoot
        levels.append(mu_k)
        leg = integrate_leg(
            system, target, mrf, modulus, state,
            mu_bar=mu_prev, mu_hat=mu_k, config=config, sigma=sigma,
        )
        reparam_to_time(leg, system, mrf, modulus)
        legs.append(leg)

        tm = leg.times
        t_off, s_off, c_off = t_all[-1], s_all[-1], c_all[-1]
        t_all.extend((t_off + tm.t_sub[1:]).tolist())
        c_all.extend((c_off + tm.cost_sub[1:]).tolist())
        for st in leg.steps:
            s_all.extend((s_off + (st.s0 + st.s[1:])).tolist())
            z_all.extend(list(st.states[1:]))
            u_all.extend(st.u[1:].tolist())
            d_all.extend(st.d[1:].tolist())
            a_all[-1] = st.a_index  # the segment leaving the previous node
            a_all.extend([st.a_index] * (len(st.s) - 1))
        if leg.steps:
            state = leg.steps[-1].states[-1].copy()
        mu_prev = mu_k
        if leg.status == TrajectoryStatus.APPROACHED_TARGET:
            status = TrajectoryStatus.APPROACHED_TARGET
            break
    if status != TrajectoryStatus.APPROACHED_TARGET and target.d(state) < config.d_tol:
        status = TrajectoryStatus.APPROACHED_TARGET

    traj = Trajectory(
        t=np.asarray(t_all),
        s=np.asarray(s_all),
        states=np.asarray(z_all),
        a_index=np.asarray(a_all, dtype=int),
        cost=np.asarray(c_all),
        u=np.asarray(u_all),
        d=np.asarray(d_all),
        status=status,
    )
    result = SynthesisResult(
        trajectory=traj, legs=legs, levels=levels, u0=u0, d0=d0,
        epsilon=config.epsilon, p0_bar=mrf.p0_bar, cost_bound=cost_bound, status=status,
    )
    log.info(
        "synthesis from U=%.4g: %s after %d legs, cost %.4g (budget %s)",
        u0, status.value, len(legs), traj.total_cost,
        "none" if cost_bound is None else f"{cost_bound:.4g}",
    )
    return result


# ----------------------------------------------------------------------
# distance envelopes


def build_sigma_envelopes(
    mrf: CandidateMrf,
    target: TargetSet,
    sigma: float,
    grid,
) -> tuple[MonotonePL, MonotonePL]:
    """Sampled monotone envelopes squeezing d between functions of U.

    sigma_minus(r) under-approximates min{d(z) : U(z) >= r} and
    sigma_plus(r) over-approximates max{d(z) : U(z) <= r}.  Knot values
    are shifted one knot inward: the lower envelope at level r uses the
    minimum over the previous (smaller) level, whose sample set is
    larger, and is additionally capped at r, which is always admissible
    for a lower distance envelope.  The upper envelope at level r uses
    the maximum over the next level and is padded by a resolution
    margin.  Together this makes d_i <= sigma_plus(U_i) hold on every
    sample and sigma_minus(U_i) <= d_i on every sample strictly off the
    target (the set the lower envelope is built from; on the target the
    claim is vacuous since the decay bound is zero there).  No margin is
    subtracted from the lower envelope: near a thin target collar the
    raw minimum sits below any useful margin, and deflating it further
    would break the sandwich rather than strengthen it.
    """
    if not isinstance(grid, GridSpec):
        raise ConfigError("grid must be a GridSpec")
    # a cell diagonal times (1 + L), with d 1-Lipschitz and L = 1 taken for
    # U whatever the candidate; the pinned synthesis artifacts rest on it
    margin = grid.spacing * np.sqrt(grid.dim) * (1.0 + 1.0)

    # knot levels: linear ladder plus geometric refinement near 0
    levels = sorted_unique(
        np.concatenate(
            [np.linspace(0.0, sigma, ENVELOPE_KNOTS)[1:], sigma * 0.5 ** np.arange(1, 21)]
        )
    )

    # lower envelope from samples strictly off the target, upper from every
    # usable sample (U finite and >= 0).  The grid is walked in blocks of
    # certificates.BLOCK_ROWS rows; per-block level maxima merge exactly
    # with fmax, and NaN stays "no sample".
    neg_sm = np.full(len(levels), np.nan)
    sp_raw = np.full(len(levels), np.nan)
    n_usable = n_off = 0
    n_grid = grid.n_points
    for start in range(0, n_grid, certificates.BLOCK_ROWS):
        X = grid.rows(np.arange(start, min(start + certificates.BLOCK_ROWS, n_grid)))
        U = mrf.u_batch(X)
        D = target.d_many(X)
        keep = np.isfinite(U) & (U >= 0.0)
        U, D = U[keep], D[keep]
        pos = D > D_FLOOR
        n_usable += U.size
        n_off += int(np.count_nonzero(pos))
        neg_sm = np.fmax(neg_sm, level_max(levels, U[pos], -D[pos], above=True))
        sp_raw = np.fmax(sp_raw, level_max(levels, U, D, above=False))
    if n_usable == 0:
        raise ConfigError("no usable samples: U is negative or undefined on the whole grid")
    if n_off == 0:
        raise ConfigError("no samples off the target; enlarge the grid")
    sm_raw = -neg_sm

    # ---- sigma_minus: lag by one knot, cap at the identity, strictify down
    xs_m, ys_m = [0.0], [0.0]
    prev_raw = None
    for r, raw in zip(levels.tolist(), sm_raw.tolist()):
        if math.isnan(raw):
            continue
        lagged = prev_raw if prev_raw is not None else raw
        prev_raw = raw
        v = min(lagged, r)
        if v > 0:
            xs_m.append(r)
            ys_m.append(v)
    if len(xs_m) < 3:
        raise ConfigError(
            "lower envelope degenerate: too few levels carry positive distance samples; "
            "refine the grid or lower sigma"
        )
    ys_arr = np.maximum.accumulate(np.asarray(ys_m))  # monotone guard before lowering
    floor_m = max(1e-15, 1e-9 * float(ys_arr[-1]) / max(sigma, 1e-15))
    ys_arr = lower_strict(np.asarray(xs_m), ys_arr, floor_m)
    sigma_minus = MonotonePL(np.asarray(xs_m), ys_arr)

    # ---- sigma_plus: lead by one knot, inflate by the margin, strictify up
    kept = [(r, v) for r, v in zip(levels.tolist(), sp_raw.tolist()) if not math.isnan(v)]
    if not kept:
        raise ConfigError("upper envelope degenerate: no samples below sigma")
    xs_p = [0.0]
    ys_p = [0.0]
    for i, (r, _) in enumerate(kept):
        nxt = min(i + 1, len(kept) - 1)
        xs_p.append(r)
        ys_p.append(kept[nxt][1] + margin)
    floor_p = max(1e-15, 1e-9 * float(max(ys_p)) / max(sigma, 1e-15))
    ys_up = lift_strict(np.asarray(xs_p), np.maximum.accumulate(np.asarray(ys_p)), floor_p)
    sigma_plus = MonotonePL(np.asarray(xs_p), ys_up)

    return sigma_minus, sigma_plus


# ----------------------------------------------------------------------
# composed decay bound


@dataclass
class KLBound:
    """Decay certificate beta(r, t) composed from sampled monotone tables.

    beta(r, t) = sigma_plus( m_tilde^{-1}( sigma_minus^{-1}(r) * w(t) ) )
    with w(t) = (2 eps + 1) / (2 eps + 1 + t) and m_tilde the pointwise
    minimum of the identity and the decrease modulus.
    """

    sigma_minus: MonotonePL
    sigma_plus: MonotonePL
    m_tilde: MonotonePL
    epsilon: float

    def __post_init__(self) -> None:
        self._sm_inv = self.sigma_minus.inverse()
        self._mt_inv = self.m_tilde.inverse()

    def beta(self, r, t):
        r_arr = np.asarray(r, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        c = 2.0 * self.epsilon + 1.0
        w = c / (c + t_arr)
        u = np.asarray(self._sm_inv(r_arr), dtype=float)
        val = self.sigma_plus(self._mt_inv(u * w))
        out = np.where(r_arr <= 0.0, 0.0, val)
        if out.ndim == 0:
            return float(out)
        return out

    def validate_axioms(self) -> dict:
        """Check the decay-certificate axioms on a 50 x 50 test lattice.

        The lattice spans r in [0, sigma_minus's top] and t in {0} and
        [1, 1e18].  Zero at r = 0, strictly increasing in r,
        non-increasing in t, decay below 1e-5 at the far end of the t
        range, and a positive end slope in r (the bound keeps growing
        with the initial distance instead of saturating).
        """
        r_lattice = np.linspace(0.0, float(self.sigma_minus.ys[-1]), 50)
        t_lattice = np.concatenate(([0.0], np.logspace(0.0, 18.0, 49)))
        rows = self.beta(r_lattice[:, None], t_lattice[None, :])

        zero_r = bool(np.all(np.abs(rows[0]) <= 1e-15))
        inc_r = bool(np.all(np.diff(rows, axis=0) > 0))
        dec_t = bool(np.all(np.diff(rows, axis=1) <= 1e-15))
        decays = bool(rows[-1, -1] <= 1e-5)
        end_slope = (self.beta(r_lattice[-1], 0.0) - self.beta(r_lattice[-2], 0.0)) / (
            r_lattice[-1] - r_lattice[-2]
        )
        unbounded = bool(end_slope > 0)
        return {
            "passed": zero_r and inc_r and dec_t and decays and unbounded,
            "zero_at_zero": zero_r,
            "strictly_increasing_in_r": inc_r,
            "non_increasing_in_t": dec_t,
            "decays_to_zero": decays,
            "beta_at_corner": float(rows[-1, -1]),
            "unbounded_in_r": unbounded,
            "r_max": float(r_lattice[-1]),
            "t_max": float(t_lattice[-1]),
        }

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "sigma_minus_knots": [self.sigma_minus.xs.tolist(), self.sigma_minus.ys.tolist()],
            "sigma_plus_knots": [self.sigma_plus.xs.tolist(), self.sigma_plus.ys.tolist()],
            "m_tilde_knots": [self.m_tilde.xs.tolist(), self.m_tilde.ys.tolist()],
        }


def build_kl_bound(
    sigma_minus: MonotonePL,
    sigma_plus: MonotonePL,
    modulus: DecreaseModulus,
    epsilon: float,
) -> KLBound:
    """Compose the decay certificate from the envelopes and the modulus."""
    ident = MonotonePL.identity(modulus.pl.xs)
    m_tilde = pwl_min(ident, modulus.pl)
    if not m_tilde.is_strictly_increasing:
        raise ValueError("min(identity, modulus) has a flat segment; cannot invert")
    if not sigma_minus.is_strictly_increasing or not sigma_plus.is_strictly_increasing:
        raise ValueError("envelopes must be strictly increasing")
    return KLBound(
        sigma_minus=sigma_minus, sigma_plus=sigma_plus, m_tilde=m_tilde, epsilon=epsilon
    )


def verify_kl(trajectory: Trajectory, kl: KLBound) -> dict:
    """Check d(z(t)) <= beta(d(z(0)), t) + KL_TOL along a synthesized trajectory.

    Returns the report: ``passed``, ``worst_slack`` (the largest
    d - beta, -inf without nodes), ``worst_time``, ``n_nodes`` and ``tol``.
    """
    if trajectory.n_nodes == 0:
        return {"passed": True, "worst_slack": float("-inf"), "worst_time": 0.0, "n_nodes": 0,
                "tol": KL_TOL}
    bounds = kl.beta(float(trajectory.d[0]), trajectory.t)
    slack = trajectory.d - bounds
    i = int(np.argmax(slack))
    return {
        "passed": bool(slack[i] <= KL_TOL),
        "worst_slack": float(slack[i]),
        "worst_time": float(trajectory.t[i]),
        "n_nodes": trajectory.n_nodes,
        "tol": KL_TOL,
    }
