"""Built-in example systems with their candidate restraint functions.

Each builder returns an ExampleSpec bundling the dynamics, the target
and (where one is known in closed form) the candidate.  Builders accept
keyword parameters so configs can override the defaults.  Everything is
evaluated on (N, dim) blocks, because the verification sweeps touch
hundreds of thousands of grid points; only f, l and U also come in a
one-point form, for the synthesis integrator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .certificates import CandidateMrf, SmoothPiece
from .systems import ConfigError, ControlSystem, TargetSet

__all__ = ["ExampleSpec", "EXAMPLES", "get_example"]


@dataclass
class ExampleSpec:
    name: str
    params: dict
    system: ControlSystem
    target: TargetSet
    mrf: Optional[CandidateMrf] = None
    facts: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# 1-d minimum time: x' = a, cost 1, target the origin


def _origin_target() -> TargetSet:
    return TargetSet(
        name="origin",
        batch_distance=lambda X: np.abs(X[:, 0]),
        distance_gradients=lambda x: [np.array([np.sign(x[0])])] if x[0] != 0 else [],
    )


def _two_sided_pieces(u_of_rho: Callable, grad_mag: Callable) -> tuple:
    """The pieces x > 0 and x < 0 of U(x) = u_of_rho(|x|), where |U'| = grad_mag(|x|)."""
    return (
        SmoothPiece(
            name="right",
            batch_value=lambda X: u_of_rho(np.abs(X[:, 0])),
            batch_gradient=lambda X: grad_mag(np.abs(X[:, 0]))[:, None],
            batch_region=lambda X: X[:, 0] > 0,
        ),
        SmoothPiece(
            name="left",
            batch_value=lambda X: u_of_rho(np.abs(X[:, 0])),
            batch_gradient=lambda X: -grad_mag(np.abs(X[:, 0]))[:, None],
            batch_region=lambda X: X[:, 0] < 0,
        ),
    )


def minimum_time_1d(p0_bar: float = 0.9) -> ExampleSpec:
    """Double integrator-free toy: unit speed on the line, cost = time."""

    system = ControlSystem(
        name="minimum_time_1d",
        state_dim=1,
        dynamics=lambda x, a: np.array([a[0]]),
        lagrangian=lambda x, a: 1.0,
        control_set=(np.array([-1.0]), np.array([1.0])),
        batch_dynamics=lambda X, a: np.full((len(X), 1), a[0]),
        batch_lagrangian=lambda X, a: np.ones(len(X)),
    )
    mrf = CandidateMrf(
        name="abs_x",
        value=lambda x: abs(float(x[0])),
        batch_value=lambda X: np.abs(X[:, 0]),
        p0_bar=p0_bar,
        smooth_pieces=_two_sided_pieces(lambda rho: rho, np.ones_like),
    )
    return ExampleSpec(
        name="minimum_time_1d",
        params={"p0_bar": p0_bar},
        system=system,
        target=_origin_target(),
        mrf=mrf,
        facts={"analytic_value": lambda X: np.abs(X[:, 0])},
    )


def _row(x) -> np.ndarray:
    """One state, an array row or a tuple of floats, as a (1, dim) block."""
    return np.asarray(x, dtype=float)[None]


# ----------------------------------------------------------------------
# 1-d power law: x' = a*m1*|x|^r, cost m2*|x|^s


def power_law(
    r: float = 0.0,
    s: float = 0.0,
    m1: float = 1.0,
    m2: float = 1.0,
    p0_bar: float = 0.5,
) -> ExampleSpec:
    """Power-law speeds and costs on the line.

    The candidate is the antiderivative of (m2/m1)*|x|^(s-r), which is a
    genuine restraint function exactly when e = s - r + 1 > 0.  For
    e <= 0 the antiderivative is log-shaped or negative, and positive
    definiteness fails; the builder still constructs it faithfully so
    that verification can reject it.
    """
    if m1 <= 0:
        raise ConfigError("m1 must be positive")
    if m2 <= 0:
        raise ConfigError("m2 must be positive")
    e = s - r + 1.0

    # The point forms are the block forms on one row: numpy's array power
    # and the C library's pow on a float may round differently, and the two
    # forms must agree to the bit.
    def f_batch(X, a):
        with np.errstate(divide="ignore"):
            return (a[0] * m1 * np.abs(X[:, 0]) ** r)[:, None]

    def l_batch(X, a):
        with np.errstate(divide="ignore"):
            return m2 * np.abs(X[:, 0]) ** s

    system = ControlSystem(
        name="power_law",
        state_dim=1,
        dynamics=lambda x, a: f_batch(_row(x), a)[0],
        lagrangian=lambda x, a: float(l_batch(_row(x), a)[0]),
        control_set=(np.array([-1.0]), np.array([1.0])),
        batch_dynamics=f_batch,
        batch_lagrangian=l_batch,
    )

    # antiderivative of (m2/m1)*rho^(s-r) with value 0 pinned at the target
    if e != 0.0:
        coef = m2 / (m1 * e)

        def u_of_rho(rho):
            with np.errstate(divide="ignore"):
                return np.where(rho > 0, coef * rho**e, 0.0)

    else:
        coef = m2 / m1

        def u_of_rho(rho):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(rho > 0, coef * np.log(np.maximum(rho, 1e-300)), 0.0)

    def grad_mag(rho):
        # |U'| = (m2/m1) * rho^(s-r) on either side of the origin
        with np.errstate(divide="ignore"):
            return (m2 / m1) * rho ** (s - r)

    def u_batch(X):
        return u_of_rho(np.abs(X[:, 0]))

    mrf = CandidateMrf(
        name=f"power_antiderivative_e={e:g}",
        value=lambda x: float(u_batch(_row(x))[0]),
        batch_value=u_batch,
        p0_bar=p0_bar,
        smooth_pieces=_two_sided_pieces(u_of_rho, grad_mag),
    )

    facts: dict = {"exponent": e}
    if r == 0.0 and s > -1.0:
        # with unit speed the optimal cost from x is integrable in closed form
        facts["analytic_value"] = lambda X: m2 * np.abs(X[:, 0]) ** (s + 1.0) / (m1 * (s + 1.0))
    return ExampleSpec(
        name="power_law",
        params={"r": r, "s": s, "m1": m1, "m2": m2, "p0_bar": p0_bar},
        system=system,
        target=_origin_target(),
        mrf=mrf,
        facts=facts,
    )


# ----------------------------------------------------------------------
# planar spiral between two circles


def spiral(epsilon: float = 0.5, k_const: float = 1.0, p0_bar: float = 1.0) -> ExampleSpec:
    """Rotation-dominated planar system between circles of radius 1 and 4.

    The drift spins around the origin with angular speed growing
    unboundedly near the inner circle; the control only moves the radius
    in or out.  The target is the union of the inner disc and the outer
    region, the running cost vanishes on the ring 3 <= |z| <= 4, and the
    candidate is a cubic-in-radius profile glued from three pieces with
    a ridge at |z| = 2.
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    if not 0.0 <= k_const <= 1.0:
        raise ConfigError("k_const must lie in [0, 1]")

    def f_batch(Z, a):
        rho = np.hypot(Z[:, 0], Z[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            rot = np.stack([Z[:, 1], -Z[:, 0]], axis=1) / (rho - 1.0)[:, None]
        return rot - a[0] * Z

    @functools.lru_cache(maxsize=1)
    def radius(z0: float, z1: float) -> float:
        # the integrator evaluates f, l and U at one state in turn: one
        # np.hypot serves all three
        return float(np.hypot(z0, z1))

    def f_point(z, a):
        # f_batch's arithmetic on Python floats, off the inner circle
        z0, z1 = float(z[0]), float(z[1])
        c = radius(z0, z1) - 1.0
        if c == 0.0:
            return f_batch(np.asarray(z, dtype=float)[None], a)[0]
        a0 = float(a[0])
        return np.array([z1 / c - a0 * z0, -z0 / c - a0 * z1])

    def cost_shape(rho):
        return np.select(
            [(rho >= 1.0) & (rho <= 2.0), (rho > 2.0) & (rho <= 3.0)],
            [(rho - 1.0) ** 2, (3.0 - rho) ** 2],
            default=0.0,
        )

    def cost_at(rho: float) -> float:
        # cost_shape at one radius; numpy squares by multiplying, as here
        if 1.0 <= rho <= 2.0:
            return (rho - 1.0) * (rho - 1.0)
        if 2.0 < rho <= 3.0:
            return (3.0 - rho) * (3.0 - rho)
        return 0.0

    system = ControlSystem(
        name="spiral",
        state_dim=2,
        dynamics=f_point,
        lagrangian=lambda z, a: k_const * cost_at(radius(float(z[0]), float(z[1]))),
        control_set=(np.array([-1.0]), np.array([1.0])),
        batch_dynamics=f_batch,
        batch_lagrangian=lambda Z, a: k_const * cost_shape(np.hypot(Z[:, 0], Z[:, 1])),
    )

    def d_batch(Z):
        rho = np.hypot(Z[:, 0], Z[:, 1])
        return np.maximum(0.0, np.minimum(rho - 1.0, 4.0 - rho))

    def d_grads(z):
        rho = float(np.hypot(z[0], z[1]))
        if rho <= 1.0 or rho >= 4.0:
            return []
        zz = np.asarray(z, dtype=float)
        if abs(rho - 2.5) <= 1e-12:
            return [zz / rho, -zz / rho]
        return [zz / rho] if rho < 2.5 else [-zz / rho]

    target = TargetSet(
        name="disc_and_outside",
        batch_distance=d_batch,
        distance_gradients=d_grads,
    )

    eps = float(epsilon)

    # np.power, not **: on a float, ** calls the C library's pow, which can
    # round differently from numpy's vectorised pow, and then U at a point
    # would differ in its last bit from the same point's row of a block
    def u_inner(rho):
        return 2.0 * eps + np.power(rho - 1.0, 3) / 3.0

    def u_middle(rho):
        return eps * (4.0 - rho) + np.power(3.0 - rho, 3) / 3.0

    def u_outer(rho):
        return eps * (4.0 - rho)

    def u_batch(Z):
        # each piece on its own rows only: np.select would evaluate all three
        # everywhere, and np.power of a negative base is slow
        rho = np.hypot(Z[:, 0], Z[:, 1])
        inner = rho < 2.0
        middle = ~inner & (rho < 3.0)
        out = u_outer(rho)
        out[inner] = u_inner(rho[inner])
        out[middle] = u_middle(rho[middle])
        return out

    def u_at(z) -> float:
        rho = radius(float(z[0]), float(z[1]))
        if rho < 2.0:
            return float(u_inner(rho))
        if rho < 3.0:
            return float(u_middle(rho))
        return u_outer(rho)

    def _radial(Z, scale):
        # scale(rho) * z / rho, vectorized
        rho = np.hypot(Z[:, 0], Z[:, 1])
        return (scale(rho) / rho)[:, None] * Z

    gtol = 1e-12

    def _in_ring(Z, lo, hi):
        rho = np.hypot(Z[:, 0], Z[:, 1])
        return (rho >= lo - gtol) & (rho <= hi + gtol)

    pieces = (
        SmoothPiece(
            name="inner",
            batch_value=lambda Z: u_inner(np.hypot(Z[:, 0], Z[:, 1])),
            batch_gradient=lambda Z: _radial(Z, lambda rho: (rho - 1.0) ** 2),
            batch_region=lambda Z: _in_ring(Z, 1.0, 2.0),
        ),
        SmoothPiece(
            name="middle",
            batch_value=lambda Z: u_middle(np.hypot(Z[:, 0], Z[:, 1])),
            batch_gradient=lambda Z: _radial(Z, lambda rho: -eps - (3.0 - rho) ** 2),
            batch_region=lambda Z: _in_ring(Z, 2.0, 3.0),
        ),
        SmoothPiece(
            name="outer",
            batch_value=lambda Z: u_outer(np.hypot(Z[:, 0], Z[:, 1])),
            batch_gradient=lambda Z: _radial(Z, lambda rho: -eps + 0.0 * rho),
            batch_region=lambda Z: _in_ring(Z, 3.0, 4.0),
        ),
    )
    mrf = CandidateMrf(
        name=f"spiral_cubic_eps={eps:g}",
        value=u_at,
        batch_value=u_batch,
        p0_bar=p0_bar,
        smooth_pieces=pieces,
    )
    return ExampleSpec(
        name="spiral",
        params={"epsilon": eps, "k_const": k_const, "p0_bar": p0_bar},
        system=system,
        target=target,
        mrf=mrf,
        facts={
            "u_ridge": float(u_inner(2.0)),
            "oracle_pin": _spiral_oracle_pin(k_const),
        },
    )


def _spiral_oracle_pin(k_const: float):
    """Pin builder for grid value tables near the inner circle.

    The drift speed blows up like 1/(rho - 1), so grid dynamic
    programming cannot resolve the layer 1 < rho < 1 + width.  Nodes in
    that layer get pinned at the cost of the cheapest continuation: ride
    a = +1 inward, which costs

        int_1^{1+width} (u - 1)^2 k / u du
            = k * (width^2 / 2 - width + log(1 + width)),

    about k * width^3 / 3 for small widths.  The caller should drop the
    pinned layer from any bound comparison.
    """

    def pin(points: np.ndarray, width: float):
        rho = np.hypot(points[:, 0], points[:, 1])
        mask = (rho > 1.0) & (rho < 1.0 + width)
        value = k_const * (0.5 * width * width - width + math.log1p(width))
        return mask, float(value)

    return pin


# ----------------------------------------------------------------------
# weak directional decrease demo (minimum time on the line)


_MU_PROFILES: dict = {
    "sqrt": lambda r: np.minimum(np.sqrt(np.maximum(r, 0.0)), 1.0),
    "linear": lambda r: np.clip(r, 0.0, 1.0),
    "constant": lambda r: np.ones_like(r, dtype=float),
}

# closed-form gauges phi(r) = integral of 1/mu over [0, r], where finite
_GAUGES: dict = {
    "sqrt": lambda r: np.where(r <= 1.0, 2.0 * np.sqrt(r), 2.0 + (r - 1.0)),
    "constant": lambda r: r,
}


def petrov_demo(profile: str = "sqrt", delta: float = 1.0, p0_bar: float = 0.5) -> ExampleSpec:
    """Minimum time on the line with a named decrease-rate profile.

    The 'sqrt' profile has an integrable reciprocal and yields the gauge
    2*sqrt(r); 'constant' is the classical case (gauge r); 'linear' has
    a log-divergent gauge and exists to exercise the failure path.  The
    candidate is the gauge of the distance, phi(|x|), whose gradient is
    sign(x) / mu(|x|).
    """
    if profile not in _MU_PROFILES:
        raise ConfigError(f"unknown mu profile {profile!r}; choose from {sorted(_MU_PROFILES)}")
    mu = _MU_PROFILES[profile]

    base = minimum_time_1d(p0_bar=p0_bar)

    mrf: Optional[CandidateMrf] = None
    gauge = _GAUGES.get(profile)
    if gauge is not None:
        mrf = CandidateMrf(
            name=f"petrov_gauge_{profile}",
            value=lambda x: float(gauge(abs(float(x[0])))),
            batch_value=lambda X: gauge(np.abs(X[:, 0])),
            p0_bar=p0_bar,
            smooth_pieces=_two_sided_pieces(gauge, lambda rho: 1.0 / mu(rho)),
        )

    return ExampleSpec(
        name="petrov_demo",
        params={"profile": profile, "delta": delta, "p0_bar": p0_bar},
        system=base.system,
        target=base.target,
        mrf=mrf,
    )


# ----------------------------------------------------------------------

EXAMPLES: dict = {
    "minimum_time_1d": minimum_time_1d,
    "power_law": power_law,
    "spiral": spiral,
    "petrov_demo": petrov_demo,
}


def get_example(name: str, **params) -> ExampleSpec:
    try:
        builder = EXAMPLES[name]
    except KeyError:
        raise ConfigError(f"unknown example {name!r}; choose from {sorted(EXAMPLES)}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for example {name!r}: {exc}") from None
