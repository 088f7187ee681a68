"""Controlled dynamics, running costs, targets and trajectory containers.

The control set is a finite tuple of control values.  Controls are
referred to by index everywhere (trajectories store indices, not
values), which keeps tie-breaking deterministic: ties always go to the
lowest index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ConfigError",
    "SingularDynamics",
    "NegativeLagrangian",
    "ControlSystem",
    "TargetSet",
    "Partition",
    "TrajectoryStatus",
    "Trajectory",
    "eval_dynamics",
    "eval_lagrangian",
    "eval_block",
    "hamiltonian",
]


class ConfigError(ValueError):
    """A run or system description is malformed."""


class SingularDynamics(RuntimeError):
    """Dynamics or cost evaluated to a non-finite value."""

    def __init__(self, x, detail: str = ""):
        self.x = np.asarray(x, dtype=float)
        msg = f"non-finite evaluation at x={self.x.tolist()}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NegativeLagrangian(ValueError):
    """The running cost came out negative, which the model forbids."""

    def __init__(self, x, a_index: int, value: float):
        self.x = np.asarray(x, dtype=float)
        self.a_index = a_index
        self.value = value
        super().__init__(
            f"lagrangian {value} < 0 at x={self.x.tolist()}, control index {a_index}"
        )


# ----------------------------------------------------------------------
# system description


@dataclass(frozen=True)
class ControlSystem:
    """Dynamics x' = f(x, a), running cost l(x, a), finite control set.

    ``batch_dynamics`` and ``batch_lagrangian`` take an (N, dim) state
    block and one control value and return (N, dim) / (N,); every grid
    sweep uses them.  ``dynamics`` and ``lagrangian`` take one state and
    one control value; they serve synthesis, whose integrator evaluates
    one point at a time.
    """

    name: str
    state_dim: int
    dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lagrangian: Callable[[np.ndarray, np.ndarray], float]
    control_set: tuple
    batch_dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    batch_lagrangian: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.state_dim < 1:
            raise ConfigError("state_dim must be at least 1")
        controls = tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in self.control_set)
        if not controls:
            raise ConfigError("control set is empty")
        object.__setattr__(self, "control_set", controls)

    @property
    def n_controls(self) -> int:
        return len(self.control_set)

    def control(self, a_index: int) -> np.ndarray:
        if not 0 <= a_index < len(self.control_set):
            raise ConfigError(f"control index {a_index} out of range")
        return self.control_set[a_index]


def eval_dynamics(system: ControlSystem, x: np.ndarray, a_index: int) -> np.ndarray:
    a = system.control(a_index)
    f = np.asarray(system.dynamics(np.asarray(x, dtype=float), a), dtype=float)
    if f.shape != (system.state_dim,):
        raise ConfigError(f"dynamics returned shape {f.shape}, expected ({system.state_dim},)")
    # one state has a handful of entries: math.isfinite on a list beats a ufunc
    if not all(map(math.isfinite, f.tolist())):
        raise SingularDynamics(x, f"f(x, a[{a_index}])={f.tolist()}")
    return f


def eval_lagrangian(system: ControlSystem, x: np.ndarray, a_index: int) -> float:
    a = system.control(a_index)
    val = float(system.lagrangian(np.asarray(x, dtype=float), a))
    if not math.isfinite(val):
        raise SingularDynamics(x, f"l(x, a[{a_index}])={val}")
    if val < 0:
        raise NegativeLagrangian(x, a_index, val)
    return val


def eval_block(
    system: ControlSystem,
    X: np.ndarray,
    a_index: int,
    *,
    dynamics: bool = True,
    lagrangian: bool = True,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """f and l of one control at every row of X, checked like the point forms.

    Returns the (N, dim) dynamics and the (N,) running costs, each None
    when not asked for; only what is asked for is evaluated and checked.
    Raises SingularDynamics on a non-finite row and NegativeLagrangian on
    a negative cost.
    """
    a = system.control(a_index)
    F = np.asarray(system.batch_dynamics(X, a), dtype=float) if dynamics else None
    L = np.asarray(system.batch_lagrangian(X, a), dtype=float) if lagrangian else None
    # whole-array checks first: the row mask is built only to name a bad row
    if not ((F is None or np.isfinite(F).all()) and (L is None or np.isfinite(L).all())):
        finite = np.ones(len(X), dtype=bool)
        if F is not None:
            finite &= np.isfinite(F).all(axis=1)
        if L is not None:
            finite &= np.isfinite(L)
        bad = int(np.argmin(finite))
        raise SingularDynamics(X[bad], f"f or l of control index {a_index}")
    if L is not None and np.any(L < 0):
        bad = int(np.argmin(L))
        raise NegativeLagrangian(X[bad], a_index, float(L[bad]))
    return F, L


# ----------------------------------------------------------------------
# minimized Hamiltonian


def hamiltonian(system: ControlSystem, X: np.ndarray, p0: float, P: np.ndarray) -> np.ndarray:
    """Minimized Hamiltonian at each (x, p) row pair of X and P.

    H(x, p0, p) = min over the control set of p0*l(x, a) + <p, f(x, a)>,
    evaluated on (N, dim) blocks with one model call per control.
    """
    if p0 < 0:
        raise ValueError("p0 must be non-negative")
    H = np.full(len(X), np.inf)
    for k in range(system.n_controls):
        F, L = eval_block(system, X, k)
        np.minimum(H, p0 * L + np.einsum("ij,ij->i", P, F), out=H)
    return H


# ----------------------------------------------------------------------
# target set


@dataclass(frozen=True)
class TargetSet:
    """Closed target described through its Euclidean distance function.

    ``batch_distance`` maps an (N, dim) block to the (N,) distances and
    must be 1-Lipschitz (it is a metric distance).  The optional
    ``distance_gradients`` returns the list of limiting gradients of d
    at a point outside the target; where d is smooth the list is a
    singleton.
    """

    name: str
    batch_distance: Callable[[np.ndarray], np.ndarray]
    distance_gradients: Optional[Callable[[np.ndarray], list]] = None

    def d(self, x: np.ndarray) -> float:
        return float(self.d_many(np.asarray(x, dtype=float)[None])[0])

    def d_many(self, X: np.ndarray) -> np.ndarray:
        """d at every row of X; raises ConfigError on a non-finite or negative value."""
        X = np.asarray(X, dtype=float)
        D = np.asarray(self.batch_distance(X), dtype=float)
        bad = ~np.isfinite(D) | (D < 0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ConfigError(f"distance evaluated to {D[i]} at x={X[i].tolist()}")
        return D


# ----------------------------------------------------------------------
# partitions and trajectories


@dataclass(frozen=True)
class Partition:
    """Strictly increasing node sequence starting at 0."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("partition needs at least one node")
        if pts[0] != 0.0:
            raise ValueError("partition must start at 0")
        if pts.size > 1 and np.any(np.diff(pts) <= 0):
            raise ValueError("partition nodes must be strictly increasing")

    @property
    def diameter(self) -> float:
        if self.points.size < 2:
            return 0.0
        return float(np.max(np.diff(self.points)))


class TrajectoryStatus(enum.Enum):
    REACHED_LEVEL = "reached_level"
    APPROACHED_TARGET = "approached_target"
    TRUNCATED = "truncated"


@dataclass
class Trajectory:
    """Sampled trajectory in both clocks.

    Parallel arrays: physical time t, internal parameter s, states
    (N, dim), control index in effect on [t_i, t_{i+1}) (the last entry
    repeats its predecessor), and accumulated cost.  U and d samples are
    carried along because every consumer wants them.
    """

    t: np.ndarray
    s: np.ndarray
    states: np.ndarray
    a_index: np.ndarray
    cost: np.ndarray
    u: np.ndarray
    d: np.ndarray
    status: TrajectoryStatus

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.a_index = np.asarray(self.a_index, dtype=int)
        self.cost = np.asarray(self.cost, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        self.validate()

    def validate(self) -> None:
        n = len(self.t)
        for name in ("s", "a_index", "cost", "u", "d"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"array {name!r} length mismatch")
        if self.states.shape[0] != n:
            raise ValueError("states length mismatch")
        if n == 0:
            return
        if np.any(np.diff(self.t) <= 0) or np.any(np.diff(self.s) <= 0):
            raise ValueError("time and parameter samples must be strictly increasing")
        if self.cost[0] != 0.0:
            raise ValueError("cost must start at 0")
        if np.any(np.diff(self.cost) < -1e-12):
            raise ValueError("cost must be non-decreasing")

    @property
    def n_nodes(self) -> int:
        return len(self.t)

    @property
    def total_cost(self) -> float:
        return float(self.cost[-1]) if len(self.cost) else 0.0
