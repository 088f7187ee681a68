"""Inequalities behind the trajectory construction, checked on real runs.

Every synthesized trajectory must satisfy, leg by leg: per-step decrease
of the value function in the internal clock, a duration budget, strictly
decreasing node values, the integral form of the decrease up to quadrature
error, attainment of each exit level, and a monotone physical clock whose
path actually solves the dynamics.  The decay certificate must satisfy the
KL axioms on a lattice and dominate the measured distance along the same
runs.  Hamiltonian algebra is checked on randomized instances.

The module is self-contained (fixtures come from conftest) so it can be
timed as a unit.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hamiltonian_reference import brute_hamiltonian

from exitcert.library import get_example
from exitcert.synthesis import verify_kl
from exitcert.systems import (
    ControlSystem,
    TrajectoryStatus,
    hamiltonian,
)


@pytest.fixture(params=["mt_synthesis", "ring_synthesis"], ids=["minimum_time", "ring"])
def synth(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["mt", "ring"], ids=["minimum_time", "ring"])
def bundle(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(
    params=[("mt_synthesis", "mt_kl"), ("ring_synthesis", "ring_kl")],
    ids=["minimum_time", "ring"],
)
def synth_with_kl(request):
    return (
        request.getfixturevalue(request.param[0]),
        request.getfixturevalue(request.param[1]),
    )


# ------------------------------------------------------------------ legs


def test_per_step_decrease(synth):
    """U(z(s)) - U(anchor) <= -(s - s0)/(eps+1) at every kept substep."""
    for entry in synth.report()["legs"]:
        assert entry["step_decrease_worst"] <= 1e-12


def test_leg_duration_budget(synth):
    # the internal time spent on a leg is at most (eps+1) * U at its start
    for entry in synth.report()["legs"]:
        assert entry["s_bar"] <= entry["s_bar_budget"] + 1e-8


def test_node_values_strictly_decrease(synth):
    for entry in synth.report()["legs"]:
        assert entry["strict_node_decrease"]


def test_partitions_are_fine_and_monotone(synth):
    for leg in synth.legs:
        s_nodes = np.concatenate([[0.0]] + [st.s0 + st.s[1:] for st in leg.steps])
        assert np.all(np.diff(s_nodes) > 0)
        if leg.steps:
            part = leg.partition  # construction validates strict increase
            # trial lengths start at delta_init = 0.1 and are only halved
            assert part.diameter <= 0.1 + 1e-12


def test_integral_decrease_up_to_quadrature(synth):
    # Delta U + (p0 * cost + int m(U) dt) / (eps+1) <= 0 per step, up to
    # ten times the Richardson estimate of the trapezoid error
    for entry in synth.report()["legs"]:
        assert entry["integral_decrease_worst"] <= entry["integral_decrease_tol"]


def test_levels_are_attained(synth):
    for leg in synth.legs:
        if leg.status is TrajectoryStatus.REACHED_LEVEL:
            assert leg.u_end <= leg.mu_hat * (1 + 1e-6) + 1e-12
    assert synth.status is TrajectoryStatus.APPROACHED_TARGET
    assert synth.trajectory.d[-1] < 1e-3
    assert synth.report()["u_max_along"] <= synth.u0 + 1e-12


def test_physical_clock(synth):
    traj = synth.trajectory
    assert np.all(np.diff(traj.t) > 0)
    entries = synth.report()["legs"]
    for entry in entries:
        assert entry["residual_max"] <= 1e-3
    total = sum(e["t_total"] for e in entries)
    assert traj.t[-1] == pytest.approx(total, rel=1e-9, abs=1e-12)


def test_cost_stays_within_budget(synth):
    assert synth.cost_bound is not None
    assert synth.total_cost <= synth.cost_bound + 1e-12


# ----------------------------------------------------- margins and modulus


def test_margin_table_is_monotone(bundle):
    levels = np.array([a for a, _ in bundle.cert.m_hat_samples])
    margins = np.array([b for _, b in bundle.cert.m_hat_samples])
    assert np.all(np.diff(levels) > 0)
    assert np.all(np.diff(margins) >= 0)
    assert np.all(margins > 0)


def test_modulus_is_strict_and_below_margins(bundle):
    m = bundle.modulus
    assert m.pl.is_strictly_increasing
    assert m(0.0) == 0.0
    for lev, marg in bundle.cert.m_hat_samples:
        assert 0.0 < m(lev) < marg


# ------------------------------------------------------- decay certificate


@pytest.fixture(params=["mt_kl", "ring_kl"], ids=["minimum_time", "ring"])
def klb(request):
    return request.getfixturevalue(request.param)


def test_kl_axioms_on_lattice(klb):
    axioms = klb.kl.validate_axioms()
    assert axioms["passed"], axioms


def test_distance_dominated_by_beta(synth_with_kl):
    res, klb = synth_with_kl
    rep = verify_kl(res.trajectory, klb.kl)
    assert rep["passed"]
    assert rep["worst_slack"] <= rep["tol"]
    assert rep["n_nodes"] == res.trajectory.n_nodes


# ------------------------------------------------------ Hamiltonian algebra

SHEAR = ControlSystem(
    name="shear",
    state_dim=2,
    dynamics=lambda x, a: np.array([x[1] + a[0], -x[0] + a[1]]),
    lagrangian=lambda x, a: 1.0 + 0.5 * float(np.dot(a, a)),
    control_set=tuple(
        np.array(v, dtype=float) for v in [(-1, 0), (1, 0), (0, -1), (0, 1), (0, 0)]
    ),
    batch_dynamics=lambda X, a: np.stack([X[:, 1] + a[0], -X[:, 0] + a[1]], axis=1),
    batch_lagrangian=lambda X, a: np.full(len(X), 1.0 + 0.5 * float(np.dot(a, a))),
)


SPIRAL = get_example("spiral").system


def _term_size(system, X, p0, P) -> float:
    """Largest p0*|l| + sum |p_i f_i| over rows and controls: the scale of rounding errors."""
    return max(
        float(np.max(p0 * np.abs(system.batch_lagrangian(X, a))
                     + np.abs(P * system.batch_dynamics(X, a)).sum(axis=1)))
        for a in system.control_set
    )


def _draw_block(data, system):
    n = data.draw(st.integers(1, 6))
    row = st.lists(st.floats(-3, 3), min_size=2, max_size=2)
    X = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
    P = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
    if system is SPIRAL:
        assume(np.all(np.hypot(X[:, 0], X[:, 1]) != 1.0))  # the drift is singular there
    return X, P


@settings(max_examples=60, deadline=None)
@given(st.data(), st.floats(1e-3, 1e3), st.floats(0.0, 2.0))
def test_hamiltonian_homogeneous_degree_one(data, lam, p0):
    system = data.draw(st.sampled_from([SHEAR, SPIRAL]))
    X, P = _draw_block(data, system)
    base = hamiltonian(system, X, p0, P)
    scaled = hamiltonian(system, X, lam * p0, lam * P)
    tol = 1e-12 * (1.0 + _term_size(system, X, p0, P))
    np.testing.assert_allclose(scaled, lam * base, rtol=1e-10, atol=lam * tol)
    np.testing.assert_allclose(base, brute_hamiltonian(system, X, p0, P), rtol=1e-12, atol=tol)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_block_hamiltonian_agrees_with_point_hamiltonian(data):
    """The block Hamiltonian is the exhaustive scan over the point evaluators."""
    system = data.draw(st.sampled_from([SHEAR, SPIRAL]))
    X, P = _draw_block(data, system)
    p0 = data.draw(st.floats(0.0, 2.0))
    H = hamiltonian(system, X, p0, P)
    tol = 1e-12 * (1.0 + _term_size(system, X, p0, P))
    np.testing.assert_allclose(H, brute_hamiltonian(system, X, p0, P), rtol=1e-12, atol=tol)


# Every example with a candidate, with the parameters of the bundled
# configs and a few more.  The synthesis integrator evaluates f, l and U
# one state at a time and the grid work evaluates them on blocks, so the
# two forms must agree to the bit, not within a tolerance.
POINT_FORM_EXAMPLES = [
    pytest.param("minimum_time_1d", {}, id="minimum_time_1d"),
    pytest.param("power_law", {"r": 0.0, "s": -1.0}, id="power_law-r0-s-1"),
    pytest.param("power_law", {"r": 0.5, "s": 1.5, "m1": 2.0, "m2": 0.7}, id="power_law-r0.5-s1.5"),
    pytest.param("power_law", {"r": -0.3, "s": 0.25}, id="power_law-r-0.3-s0.25"),
    pytest.param("petrov_demo", {"profile": "sqrt"}, id="petrov_demo-sqrt"),
    pytest.param("spiral", {"epsilon": 0.5}, id="spiral-eps0.5"),
    pytest.param("spiral", {"epsilon": 0.01, "k_const": 0.6}, id="spiral-eps0.01-k0.6"),
]

# points on the seams of the spiral's cost and candidate, and one ulp off
SPIRAL_SEAMS = [
    pt
    for radius in (1.0, 2.0, 3.0, 4.0)
    for r in (np.nextafter(radius, 0.0), radius, np.nextafter(radius, 5.0))
    for pt in ((r, 0.0), (0.0, -r))
]


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _assert_point_forms_match_block(ex, X):
    system, mrf = ex.system, ex.mrf
    U = mrf.u_batch(X)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a in system.control_set:
            F = system.batch_dynamics(X, a)
            L = system.batch_lagrangian(X, a)
            for i, row in enumerate(X):
                # the integrator passes tuples of floats, other callers array rows
                for x in (row, tuple(row.tolist())):
                    assert _same_bits(system.dynamics(x, a), F[i]), (x, a)
                    assert _same_bits(system.lagrangian(x, a), L[i]), (x, a)
        for i, row in enumerate(X):
            for x in (row, tuple(row.tolist())):
                assert _same_bits(mrf.u(x), U[i]), x


@pytest.mark.parametrize("name,params", POINT_FORM_EXAMPLES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_point_forms_equal_block_rows_bitwise(name, params, data):
    ex = get_example(name, **params)
    dim = ex.system.state_dim
    row = st.lists(st.floats(-5, 5), min_size=dim, max_size=dim)
    X = np.array(data.draw(st.lists(row, min_size=1, max_size=8)), dtype=float)
    _assert_point_forms_match_block(ex, X)


@pytest.mark.parametrize(
    "params",
    [
        pytest.param({"epsilon": 0.5}, id="eps0.5"),
        pytest.param({"epsilon": 0.01, "k_const": 0.6}, id="eps0.01-k0.6"),
    ],
)
def test_spiral_point_forms_equal_block_rows_on_seams(params):
    _assert_point_forms_match_block(get_example("spiral", **params), np.array(SPIRAL_SEAMS))
