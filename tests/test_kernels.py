"""The oracle's Jacobi kernel against the pure-Python Gauss-Seidel reference."""

import json
from pathlib import Path

import numpy as np
import pytest
from gs_reference import gs_value_table, initial_table

from exitcert.certificates import GridSpec
from exitcert.cli import main
from exitcert.config import load_config
from exitcert.library import get_example, minimum_time_1d, spiral
from exitcert.oracle import build_stencils, hjb_value_iteration, jacobi_sweep, sweep_plan

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# bound comparison of the bundled runs as the Gauss-Seidel oracle computed it
GS_BOUND = {
    "minimum_time": (400, -0.041111111111111084),
    "spiral_ring": (18280, -0.20000937609889038),
}


def _spiral_problem():
    ex = spiral(epsilon=0.01)
    grid = GridSpec(np.array([-4.2, -4.2]), np.array([4.2, 4.2]), 0.2)
    values, fixed = initial_table(ex.target, grid)
    base, wts, offsets, stage = build_stencils(ex.system, grid, 0.2)
    idx, wts, stage = sweep_plan(base, wts, offsets, stage)
    return values, fixed.astype(bool), idx, wts, stage


def test_sweeps_descend_monotonically():
    values, fixed, idx, wts, stage = _spiral_problem()
    for _ in range(8):
        new, change = jacobi_sweep(values, fixed, idx, wts, stage)
        assert change >= 0.0
        assert np.all(new <= values)
        values = new


def test_fixed_nodes_never_move():
    values, fixed, idx, wts, stage = _spiral_problem()
    pinned_before = values[fixed].copy()
    for _ in range(6):
        values, _ = jacobi_sweep(values, fixed, idx, wts, stage)
    np.testing.assert_array_equal(values[fixed], pinned_before)


def test_jacobi_reaches_an_exact_fixed_point():
    # 1-d minimum time with h equal to the spacing: feet land on nodes,
    # so the iteration terminates at the exact table in finitely many steps
    ex = minimum_time_1d()
    grid = GridSpec(np.array([-2.0]), np.array([2.0]), 0.01)
    values, fixed = initial_table(ex.target, grid)
    fixed = fixed.astype(bool)
    base, wts, offsets, stage = build_stencils(ex.system, grid, 0.01)
    idx, wts, stage = sweep_plan(base, wts, offsets, stage)

    change = np.inf
    for _ in range(500):
        values, change = jacobi_sweep(values, fixed, idx, wts, stage)
        if change == 0.0:
            break
    assert change == 0.0
    again, change2 = jacobi_sweep(values, fixed, idx, wts, stage)
    assert change2 == 0.0
    assert np.array_equal(again, values)
    np.testing.assert_allclose(values, np.abs(grid.points()[:, 0]), atol=1e-12)


def test_feet_leaving_the_box_never_win():
    # on [0, 2] the target sits at the left end, so from the top node the
    # control +1 leaves the box; if that control entered the minimum, it
    # would read the value of a node next to the target, not 2
    ex = minimum_time_1d()
    grid = GridSpec(np.array([0.0]), np.array([2.0]), 0.01)
    table = hjb_value_iteration(ex.system, ex.target, grid, 0.01)
    np.testing.assert_allclose(table.values, grid.points()[:, 0], atol=1e-12)


@pytest.mark.parametrize("name", sorted(GS_BOUND))
def test_bundled_oracle_runs_match_gauss_seidel(tmp_path, name):
    path = CONFIGS / f"{name}.yaml"
    assert main(["oracle", "-c", str(path), "-o", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "oracle_report.json").read_text())
    comp = rep["bound_comparison"]
    n_checked, worst_gap = GS_BOUND[name]
    assert comp["passed"] is True
    assert comp["n_checked"] == n_checked
    assert comp["worst_gap"] == pytest.approx(worst_gap, abs=1e-8)

    cfg = load_config(path)
    ocfg = cfg.oracle
    ex = get_example(cfg.system.name, **cfg.system.params)
    grid = ocfg.grid
    pin = ex.facts["oracle_pin"](grid.points(), ocfg.collar) if ocfg.collar > 0 else None
    ref, _ = gs_value_table(ex.system, ex.target, grid, ocfg.h, iter_tol=ocfg.iter_tol,
                            target_radius=ocfg.target_radius, pin=pin)
    table = np.loadtxt(tmp_path / "value_table.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.max(np.abs(table[:, -1] - ref)) <= ocfg.iter_tol
