"""Acceptance gate: one test per headline guarantee, at fixed tolerances.

Each test prints a single "criterion N: PASS/FAIL" line (visible with
pytest -s) before asserting, and carries its own wall-clock budget.

The winding half of criterion 5 is a strict expected failure: with the
control held at +1 the radius contracts as 2 e^{-t} while the stopping
collar sits at radius 1.001, so the accumulated polar angle is exactly
ln(500.5) radians, about 0.99 turns.  More than 10 turns cannot occur on
this flow; the approach-time half is asserted for real in its own test.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from flow_reference import simulate_constant_control

from exitcert.certificates import (
    GridSpec,
    PositiveDefinitenessViolation,
    build_decrease_modulus,
    verify_mrf_band,
)
from exitcert.library import minimum_time_1d, power_law, spiral
from exitcert.oracle import compare_bound, hjb_value_iteration
from exitcert.synthesis import SynthesisConfig, synthesize
from exitcert.systems import TrajectoryStatus

REPO_ROOT = Path(__file__).resolve().parents[1]


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_spiral_band_certificate():
    t0 = time.perf_counter()
    ex = spiral(epsilon=0.5, k_const=1.0, p0_bar=1.0)
    grid = GridSpec([-4.1, -4.1], [4.1, 4.1], 0.01)
    cert = verify_mrf_band(ex.system, ex.target, ex.mrf, 0.05, ex.facts["u_ridge"], grid)
    el = time.perf_counter() - t0
    ok = cert.certified and cert.worst_h < 0.0 and el < 10.0
    _line(1, ok, f"certified={cert.certified}, worst margin {cert.worst_h:.4g}, {el:.2f}s")
    assert cert.certified
    assert cert.worst_h < 0.0
    assert el < 10.0


def test_criterion_2_degenerate_candidate_is_rejected():
    t0 = time.perf_counter()
    ex = power_law(r=0.0, s=-1.0)
    grid = GridSpec([-2.0], [2.0], 0.01)
    with pytest.raises(PositiveDefinitenessViolation) as exc:
        verify_mrf_band(ex.system, ex.target, ex.mrf, 0.05, 1.0, grid)
    el = time.perf_counter() - t0
    ok = exc.value.total > 0 and el < 1.0
    _line(2, ok, f"{exc.value.total} sign violations, {el:.2f}s")
    assert exc.value.total > 0
    assert el < 1.0


def test_criterion_3_cheap_trajectory_on_the_line():
    t0 = time.perf_counter()
    ex = minimum_time_1d(p0_bar=0.9)
    grid = GridSpec([-2.0], [2.0], 0.01)
    cert = verify_mrf_band(ex.system, ex.target, ex.mrf, 0.05, 1.5, grid)
    modulus = build_decrease_modulus(cert.m_hat_samples)
    res = synthesize(
        ex.system, ex.target, ex.mrf, modulus,
        np.array([1.0]), SynthesisConfig(epsilon=0.1), sigma=1.5,
    )
    el = time.perf_counter() - t0
    bound = (1.0 + 0.1) * 1.0 / 0.9
    ok = (
        res.status is TrajectoryStatus.APPROACHED_TARGET
        and res.total_cost <= bound + 1e-12
        and abs(res.total_cost - 1.0) <= 0.1
        and el < 5.0
    )
    _line(3, ok, f"cost {res.total_cost:.6f}, budget {bound:.4f}, {el:.2f}s")
    assert res.status is TrajectoryStatus.APPROACHED_TARGET
    assert res.total_cost <= bound + 1e-12
    assert abs(res.total_cost - 1.0) <= 0.1
    assert el < 5.0


def test_criterion_4_grid_oracle_agrees_in_one_dimension():
    t0 = time.perf_counter()
    grid = GridSpec([-2.0], [2.0], 0.01)
    h = 0.01
    tol = 2.0 * (h + grid.spacing)
    worst = []
    for ex in (minimum_time_1d(p0_bar=0.9), power_law(r=0.0, s=1.0)):
        table = hjb_value_iteration(ex.system, ex.target, grid, h)
        err, _ = table.sup_error(ex.facts["analytic_value"])
        comp = compare_bound(table, ex.mrf, target=ex.target)
        worst.append((ex.system.name, err, comp["n_violations"]))
    el = time.perf_counter() - t0
    ok = all(e <= tol and v == 0 for _, e, v in worst) and el < 30.0
    detail = ", ".join(f"{n}: err {e:.4f}, {v} violations" for n, e, v in worst)
    _line(4, ok, f"{detail}, tol {tol:.3f}, {el:.2f}s")
    for _, err, n_viol in worst:
        assert err <= tol
        assert n_viol == 0
    assert el < 30.0


def test_criterion_5_approach_time_of_the_constant_flow():
    t0 = time.perf_counter()
    ex = spiral(epsilon=0.5)
    flow = simulate_constant_control(
        ex.system, ex.target, np.array([2.0, 0.0]), 1, d_stop=1e-3
    )
    el = time.perf_counter() - t0
    rel = abs(flow.t_end - math.log(2.0)) / math.log(2.0)
    ok = flow.reached and rel <= 0.02
    _line("5a", ok, f"t_end {flow.t_end:.6f} vs ln 2, off by {100 * rel:.3f}%, {el:.2f}s")
    assert flow.reached
    assert rel <= 0.02


@pytest.mark.xfail(
    strict=True,
    reason="unattainable for this flow: the radius contracts as 2 exp(-t) and the "
    "collar sits at radius 1.001, so the total winding is ln(500.5) radians, "
    "about 0.99 turns, never more than 10",
)
def test_criterion_5_winding_count_of_the_constant_flow():
    ex = spiral(epsilon=0.5)
    flow = simulate_constant_control(
        ex.system, ex.target, np.array([2.0, 0.0]), 1, d_stop=1e-3
    )
    turns = abs(flow.turns)
    _line("5b", turns > 10.0, f"{turns:.4f} turns accumulated")
    assert turns > 10.0


def test_criterion_6_ring_exit_is_nearly_free():
    t0 = time.perf_counter()
    ex = spiral(epsilon=0.01)
    grid = GridSpec([-4.1, -4.1], [4.1, 4.1], 0.02)
    cert = verify_mrf_band(ex.system, ex.target, ex.mrf, 1e-6, 6e-3, grid)
    modulus = build_decrease_modulus(cert.m_hat_samples)
    res = synthesize(
        ex.system, ex.target, ex.mrf, modulus,
        np.array([0.0, 3.5]), SynthesisConfig(epsilon=0.01), sigma=6e-3,
    )
    el = time.perf_counter() - t0
    ok = (
        cert.certified
        and res.status is TrajectoryStatus.APPROACHED_TARGET
        and res.total_cost <= 0.1
        and el < 10.0
    )
    _line(6, ok, f"cost {res.total_cost:.3g}, {el:.2f}s")
    assert cert.certified
    assert res.status is TrajectoryStatus.APPROACHED_TARGET
    assert res.total_cost <= 0.1
    assert el < 10.0


def test_criterion_7_property_suite_is_clean():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    el = time.perf_counter() - t0
    ok = proc.returncode == 0 and el < 120.0
    _line(7, ok, f"exit {proc.returncode}, {el:.1f}s")
    assert proc.returncode == 0, proc.stdout + "\n" + proc.stderr
    assert el < 120.0
