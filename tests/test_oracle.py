"""Dynamic-programming value tables against closed forms."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from flow_reference import simulate_constant_control
from gs_reference import gs_value_table

from exitcert.certificates import GridSpec
from exitcert.config import config_from_dict
from exitcert.library import minimum_time_1d, power_law, spiral
from exitcert.oracle import (
    NonConvergence,
    build_stencils,
    compare_bound,
    hjb_value_iteration,
)
from exitcert.systems import ConfigError, ControlSystem, TargetSet

GRID_1D = GridSpec(np.array([-2.0]), np.array([2.0]), 0.01)


@pytest.fixture(scope="module")
def mt_table():
    ex = minimum_time_1d(p0_bar=0.9)
    table = hjb_value_iteration(ex.system, ex.target, GRID_1D, 0.01)
    return ex, table


@pytest.fixture(scope="module")
def ring_table():
    """Spiral table with the layer around the inner circle pinned.

    Grid dynamics cannot resolve the rotational blow-up next to rho = 1,
    so that layer is pinned at the exact continuation cost and excluded
    from bound comparisons.
    """
    ex = spiral(epsilon=0.01)
    grid = GridSpec(np.array([-4.2, -4.2]), np.array([4.2, 4.2]), 0.05)
    mask, value = ex.facts["oracle_pin"](grid.points(), 0.2)
    table = hjb_value_iteration(
        ex.system, ex.target, grid, 0.05, pin=(mask, value)
    )
    return ex, table, mask, value


def test_minimum_time_table_is_exact(mt_table):
    # h equal to the spacing makes the scheme nest the grid exactly
    ex, table = mt_table
    err, _ = table.sup_error(ex.facts["analytic_value"])
    assert err < 1e-9
    assert int(table.fixed.sum()) == 1  # just the origin node


def test_quadratic_cost_table_matches_closed_form():
    ex = power_law(r=0.0, s=1.0)
    table = hjb_value_iteration(ex.system, ex.target, GRID_1D, 0.01)
    err, _ = table.sup_error(ex.facts["analytic_value"])
    assert err <= 2.0 * (0.01 + 0.01)


def test_jacobi_agrees_with_gauss_seidel(mt_table):
    ex, jac = mt_table
    gs, gs_sweeps = gs_value_table(ex.system, ex.target, GRID_1D, 0.01)
    np.testing.assert_allclose(jac.values, gs, atol=1e-9)
    assert jac.sweeps >= gs_sweeps  # synchronous updates propagate slower


def test_non_convergence_is_typed(mt_table):
    ex, _ = mt_table
    with pytest.raises(NonConvergence) as exc:
        hjb_value_iteration(ex.system, ex.target, GRID_1D, 0.01, max_sweeps=1)
    assert exc.value.sweeps == 1
    assert exc.value.last_change > exc.value.tol


def test_mode_and_dimension_guards():
    # there is one iteration scheme, so a config asking for one is a typo
    raw = {
        "system": {"name": "minimum_time_1d"},
        "oracle": {"grid": {"lower": [-2.0], "upper": [2.0], "spacing": 0.01},
                   "h": 0.01, "mode": "jacobi"},
    }
    with pytest.raises(ConfigError, match=r"'oracle'.*unknown key\(s\) \['mode'\]"):
        config_from_dict(raw)
    sys4 = ControlSystem(
        name="still",
        state_dim=4,
        dynamics=lambda x, a: np.zeros(4),
        lagrangian=lambda x, a: 1.0,
        control_set=(np.zeros(4),),
        batch_dynamics=lambda X, a: np.zeros_like(X),
        batch_lagrangian=lambda X, a: np.ones(len(X)),
    )
    t4 = TargetSet(name="origin", batch_distance=lambda X: np.linalg.norm(X, axis=1))
    g4 = GridSpec(np.zeros(4), np.ones(4), 1.0)
    with pytest.raises(ConfigError):
        hjb_value_iteration(sys4, t4, g4, 0.1)


def test_no_target_node_is_an_error(mt_table):
    ex, _ = mt_table
    far = TargetSet(name="far", batch_distance=lambda X: np.abs(X[:, 0] - 10.0))
    with pytest.raises(ConfigError, match="target_radius"):
        hjb_value_iteration(ex.system, far, GRID_1D, 0.01)


def test_stencil_weights_are_multilinear(mt_table):
    ex, _ = mt_table
    idx, wts, stage = build_stencils(ex.system, GRID_1D, 0.01)
    ok = np.isfinite(stage)  # the foot lies in the box
    assert np.sum(~ok) == 2  # the end nodes, stepping outward
    np.testing.assert_allclose(stage[ok], 0.01)  # h * unit running cost
    assert np.all(wts[ok] >= -1e-12)
    np.testing.assert_allclose(wts[ok].sum(axis=-1), 1.0, atol=1e-12)
    offsets = idx - idx[..., :1]  # corner offsets from the lower corner
    assert np.unique(offsets.reshape(-1, 2), axis=0).tolist() == [[0, 1]]


def test_value_iteration_memory_is_the_plan_and_one_control(ring_table):
    """Traced peak of hjb_value_iteration on spiral_ring's oracle grid.

    The sweep plan (idx, wts, stage) is kept for the whole iteration:
    nine float64-sized values per node and control on this 2-d grid.
    On top of it one control's work is allowed sixteen float64 values
    per node: its foot and cell, its corner gather and the model's own
    temporaries.  On 28,561 nodes with 2 controls the plan is 3.9 MiB.
    With numpy 2.4 the peak is 6.6 MiB; building the node-major stencils
    and transposing them into the plan peaked at 9.5 MiB.
    """
    ex, table, mask, value = ring_table
    grid = table.grid
    tracemalloc.start()
    try:
        hjb_value_iteration(ex.system, ex.target, grid, table.h, pin=(mask, value))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plan = sum(a.nbytes for a in build_stencils(ex.system, grid, table.h))
    assert peak < plan + 16 * 8 * grid.n_points


def test_bound_holds_on_minimum_time(mt_table):
    ex, table = mt_table
    rep = compare_bound(table, ex.mrf, target=ex.target)
    assert rep["passed"]
    assert rep["n_checked"] == 400
    assert rep["n_skipped"] == 1  # the origin is a target node
    # tightest point is next to the target: V=h while U/p0 = h/0.9
    assert rep["worst_gap"] == pytest.approx(0.01 - 0.01 / 0.9 - 0.04, abs=1e-9)
    # a comparison that checks no node certifies nothing
    none = compare_bound(table, ex.mrf, target=ex.target, include=np.zeros(401, dtype=bool))
    assert none["n_checked"] == 0
    assert not none["passed"]


def test_bound_comparison_must_skip_target_nodes(ring_table):
    ex, table, mask, _ = ring_table
    # the glued candidate extends negatively inside the disc, where the
    # oracle rightly reports 0; that is not a counterexample to the bound
    rep_naive = compare_bound(table, ex.mrf)
    assert not rep_naive["passed"]
    assert rep_naive["worst_gap"] == pytest.approx(1.0 / 3.0 - 0.02 - 0.2, abs=1e-9)

    rep = compare_bound(table, ex.mrf, target=ex.target, include=~mask)
    assert rep["passed"]
    assert rep["n_violations"] == 0
    assert rep["worst_gap"] < 0
    assert rep["n_checked"] > 10000


def test_pinned_layer_is_fixed_at_continuation_cost(ring_table):
    _, table, mask, value = ring_table
    assert value == pytest.approx(0.5 * 0.04 - 0.2 + math.log1p(0.2))
    assert mask.sum() > 0
    assert np.all(table.fixed[mask] == 1)
    np.testing.assert_allclose(table.values[mask], value)


def test_compare_bound_rejects_nonpositive_p0(mt_table):
    ex, table = mt_table
    with pytest.raises(ConfigError):
        compare_bound(table, replace(ex.mrf, p0_bar=0.0))


# ----------------------------------------------------------------------
# constant-control flow


def test_spiral_flow_time_and_winding():
    ex = spiral(epsilon=0.5)
    res = simulate_constant_control(
        ex.system, ex.target, np.array([2.0, 0.0]), 1, d_stop=1e-3
    )
    assert res.reached
    # radius follows rho' = -rho, so the stopping time is log(2/1.001)
    assert res.t_end == pytest.approx(math.log(2.0 / 1.001), rel=1e-8)
    # total angle integrates -1/(rho-1) along that decay: -log(500.5)
    assert res.winding == pytest.approx(-math.log(500.5), rel=1e-8)
    assert abs(res.turns) < 1.0
    assert res.d_end == pytest.approx(1e-3, abs=1e-9)


def test_line_flow_has_no_winding():
    ex = minimum_time_1d()
    res = simulate_constant_control(
        ex.system, ex.target, np.array([1.5]), 0, d_stop=1e-3
    )
    assert res.reached
    assert res.t_end == pytest.approx(1.5 - 1e-3, rel=1e-10)
    assert res.winding is None and res.turns is None
