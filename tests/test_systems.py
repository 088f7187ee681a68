"""Control systems, Hamiltonians, targets and trajectory containers."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hamiltonian_reference import brute_hamiltonian

from exitcert.library import minimum_time_1d, spiral
from exitcert.synthesis import feedback_select
from exitcert.systems import (
    ConfigError,
    ControlSystem,
    NegativeLagrangian,
    Partition,
    SingularDynamics,
    TargetSet,
    Trajectory,
    TrajectoryStatus,
    eval_block,
    eval_dynamics,
    eval_lagrangian,
    hamiltonian,
)

MT = minimum_time_1d(p0_bar=0.9)


def test_minimum_time_hamiltonian_values():
    # min over a in {-1, +1} of p0*1 + p*a = p0 - |p|
    X = np.array([[1.0], [1.0], [-0.5]])
    P = np.array([[1.0], [-2.0], [0.0]])
    np.testing.assert_allclose(hamiltonian(MT.system, X, 0.9, P), [-0.1, -1.1, 0.9])
    np.testing.assert_allclose(hamiltonian(MT.system, X, 0.5, P), [-0.5, -1.5, 0.5])
    np.testing.assert_allclose(
        hamiltonian(MT.system, X, 0.9, P), brute_hamiltonian(MT.system, X, 0.9, P)
    )


def test_hamiltonian_rejects_negative_p0():
    with pytest.raises(ValueError):
        hamiltonian(MT.system, np.array([[1.0]]), -0.1, np.array([[1.0]]))
    with pytest.raises(ConfigError, match="empty"):
        ControlSystem(
            name="empty",
            state_dim=1,
            dynamics=lambda x, a: np.zeros(1),
            lagrangian=lambda x, a: 1.0,
            control_set=(),
            batch_dynamics=lambda X, a: np.zeros((len(X), 1)),
            batch_lagrangian=lambda X, a: np.ones(len(X)),
        )


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.01, 100.0),
    st.floats(-5.0, 5.0),
    st.floats(0.0, 3.0),
)
def test_hamiltonian_positive_homogeneity(lam, p_val, p0):
    """H(x, lam*p0, lam*p) = lam * H(x, p0, p) for lam > 0."""
    X = np.array([[0.7], [-1.3]])
    P = np.array([[p_val], [-p_val]])
    h1 = hamiltonian(MT.system, X, p0, P)
    h2 = hamiltonian(MT.system, X, lam * p0, lam * P)
    np.testing.assert_allclose(h2, lam * h1, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(h1, brute_hamiltonian(MT.system, X, p0, P), rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hamiltonian_matches_brute_scan_on_random_affine_systems(data):
    n_ctrl = data.draw(st.integers(2, 6))
    dim = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 5))
    controls = tuple(
        np.array(data.draw(st.lists(st.floats(-2, 2), min_size=dim, max_size=dim)))
        for _ in range(n_ctrl)
    )
    sys_rand = ControlSystem(
        name="affine",
        state_dim=dim,
        dynamics=lambda x, a: a + 0.5 * x,
        lagrangian=lambda x, a: 1.0 + float(np.dot(a, a)),
        control_set=controls,
        batch_dynamics=lambda X, a: a + 0.5 * X,
        batch_lagrangian=lambda X, a: np.full(len(X), 1.0 + float(np.dot(a, a))),
    )
    row = st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)
    X = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
    P = 3.0 * np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
    p0 = data.draw(st.floats(0.0, 2.0))
    np.testing.assert_allclose(
        hamiltonian(sys_rand, X, p0, P), brute_hamiltonian(sys_rand, X, p0, P),
        rtol=1e-12, atol=1e-12,
    )


def test_argmin_tie_goes_to_lowest_index(mt):
    # controls 1 and 2 are the same descending control a = -1, so the
    # feedback choice ties between them
    tied = replace(
        mt.ex.system, control_set=(np.array([1.0]), np.array([-1.0]), np.array([-1.0]))
    )
    choice = feedback_select(tied, mt.ex.mrf, mt.modulus, np.array([1.0]))
    assert choice.a_index == 1


def test_spiral_dynamics_value():
    ex = spiral(epsilon=0.5)
    f = eval_dynamics(ex.system, np.array([2.0, 0.0]), 1)  # index 1 is a = +1
    np.testing.assert_allclose(f, [-2.0, -2.0])


def test_spiral_radial_rate_is_minus_rho():
    ex = spiral(epsilon=0.5)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.uniform(-3, 3, size=2)
        rho = np.hypot(z[0], z[1])
        if abs(rho - 1.0) < 0.1 or rho < 0.2:
            continue
        f = eval_dynamics(ex.system, z, 1)
        assert float(z @ f) / rho == pytest.approx(-rho, rel=1e-12)


def test_eval_guards():
    bad = ControlSystem(
        name="bad",
        state_dim=1,
        dynamics=lambda x, a: np.array([np.inf]),
        lagrangian=lambda x, a: -1.0,
        control_set=(np.array([0.0]),),
        batch_dynamics=lambda X, a: np.full((len(X), 1), np.inf),
        batch_lagrangian=lambda X, a: -np.ones(len(X)),
    )
    with pytest.raises(SingularDynamics):
        eval_dynamics(bad, np.array([0.0]), 0)
    with pytest.raises(NegativeLagrangian) as exc:
        eval_lagrangian(bad, np.array([0.0]), 0)
    assert exc.value.value == -1.0
    with pytest.raises(SingularDynamics):
        eval_block(bad, np.array([[0.0]]), 0)
    # only what is asked for is evaluated and checked
    ok_l = replace(bad, batch_lagrangian=lambda X, a: np.ones(len(X)))
    F, L = eval_block(ok_l, np.array([[0.0]]), 0, dynamics=False)
    assert F is None and L.tolist() == [1.0]
    ok_f = replace(bad, batch_dynamics=lambda X, a: np.zeros((len(X), 1)))
    F, L = eval_block(ok_f, np.array([[0.0]]), 0, lagrangian=False)
    assert F.tolist() == [[0.0]] and L is None
    # the block form names the first offending row and the control index
    neg = ControlSystem(
        name="neg",
        state_dim=1,
        dynamics=lambda x, a: np.zeros(1),
        lagrangian=lambda x, a: float(x[0]),
        control_set=(np.array([0.0]), np.array([1.0])),
        batch_dynamics=lambda X, a: np.zeros((len(X), 1)),
        batch_lagrangian=lambda X, a: X[:, 0] - a[0],
    )
    with pytest.raises(NegativeLagrangian) as exc:
        eval_block(neg, np.array([[2.0], [0.5], [1.5]]), 1)
    assert (exc.value.a_index, exc.value.value, exc.value.x.tolist()) == (1, -0.5, [0.5])
    with pytest.raises(NegativeLagrangian):
        hamiltonian(neg, np.array([[2.0], [0.5]]), 1.0, np.zeros((2, 1)))
    with pytest.raises(ConfigError):
        bad.control(5)


def test_eval_block_names_the_first_non_finite_row():
    # f is NaN at row 3 and l is inf at row 1: the error names row 1
    def dyn(X, a):
        F = np.zeros((len(X), 2))
        F[3, 1] = np.nan
        return F

    def lag(X, a):
        L = np.ones(len(X))
        L[1] = np.inf
        return L

    sys_ = ControlSystem(
        name="late_nan_early_inf",
        state_dim=2,
        dynamics=lambda x, a: np.zeros(2),
        lagrangian=lambda x, a: 1.0,
        control_set=(np.array([0.0]),),
        batch_dynamics=dyn,
        batch_lagrangian=lag,
    )
    X = np.arange(10.0).reshape(5, 2)
    with pytest.raises(SingularDynamics, match="control index 0") as exc:
        eval_block(sys_, X, 0)
    assert exc.value.x.tolist() == [2.0, 3.0]
    # each array alone names its own first bad row
    with pytest.raises(SingularDynamics) as exc:
        eval_block(sys_, X, 0, lagrangian=False)
    assert exc.value.x.tolist() == [6.0, 7.0]
    with pytest.raises(SingularDynamics) as exc:
        eval_block(sys_, X, 0, dynamics=False)
    assert exc.value.x.tolist() == [2.0, 3.0]


def test_target_distance_validation():
    t = TargetSet(name="neg", batch_distance=lambda X: -np.ones(len(X)))
    with pytest.raises(ConfigError):
        t.d(np.array([0.0]))
    t2 = TargetSet(name="nan", batch_distance=lambda X: np.full(len(X), np.nan))
    with pytest.raises(ConfigError):
        t2.d(np.array([0.0]))
    # d is the one-row block, so d and d_many check values in one place
    X = np.array([[0.0], [1.0]])
    for bad in (-1.0, np.nan, np.inf):
        t3 = TargetSet(name="batch", batch_distance=lambda X, bad=bad: np.array([0.0, bad]))
        with pytest.raises(ConfigError, match=r"at x=\[1\.0\]"):
            t3.d_many(X)
    np.testing.assert_array_equal(MT.target.d_many(X), [0.0, 1.0])
    assert MT.target.d(np.array([-0.5])) == 0.5


def check_distance_lipschitz(target: TargetSet, points: np.ndarray, tol: float = 1e-9) -> float:
    """Largest violation of |d(x)-d(y)| <= |x-y| over consecutive sample pairs.

    Returns the worst slack (positive means a violation larger than tol
    was found, and a ConfigError is raised instead).
    """
    pts = np.asarray(points, dtype=float)
    D = target.d_many(pts)
    slack = np.abs(np.diff(D)) - np.linalg.norm(np.diff(pts, axis=0), axis=1)
    worst = float(np.max(slack, initial=-np.inf))
    if worst > tol:
        raise ConfigError(f"distance is not 1-Lipschitz on samples (slack {worst})")
    return worst


def test_distance_lipschitz_on_abs():
    pts = np.linspace(-2, 2, 101)[:, None]
    worst = check_distance_lipschitz(MT.target, pts)
    assert worst <= 1e-9  # slack of |d(x)-d(y)| <= |x-y| on sample pairs


def test_distance_lipschitz_rejects_steep_function():
    steep = TargetSet(name="steep", batch_distance=lambda X: 10.0 * np.abs(X[:, 0]))
    pts = np.linspace(0.1, 1.0, 10)[:, None]
    with pytest.raises(ConfigError):
        check_distance_lipschitz(steep, pts)


def test_partition_validation():
    p = Partition(np.array([0.0, 0.5, 2.0]))
    assert p.diameter == pytest.approx(1.5)
    with pytest.raises(ValueError):
        Partition(np.array([0.1, 0.5]))
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 0.5, 0.5]))


def _tiny_trajectory():
    return Trajectory(
        t=np.array([0.0, 1.0]),
        s=np.array([0.0, 0.5]),
        states=np.array([[1.0], [0.5]]),
        a_index=np.array([0, 0]),
        cost=np.array([0.0, 1.0]),
        u=np.array([1.0, 0.5]),
        d=np.array([1.0, 0.5]),
        status=TrajectoryStatus.REACHED_LEVEL,
    )


def test_trajectory_validate_accepts_consistent_data():
    _tiny_trajectory().validate()


def test_trajectory_validate_rejects_nonmonotone_time():
    traj = _tiny_trajectory()
    traj.t = np.array([0.0, 0.0])
    with pytest.raises(ValueError):
        traj.validate()


def test_trajectory_validate_rejects_nonzero_initial_cost():
    traj = _tiny_trajectory()
    traj.cost = np.array([0.5, 1.0])
    with pytest.raises(ValueError):
        traj.validate()


def test_trajectory_status_values():
    assert TrajectoryStatus.REACHED_LEVEL.value == "reached_level"
    assert TrajectoryStatus.APPROACHED_TARGET.value == "approached_target"
    assert TrajectoryStatus.TRUNCATED.value == "truncated"
