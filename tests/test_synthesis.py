"""Leg integration, full synthesis, envelopes and the decay bound."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import exitcert.certificates as certificates
import exitcert.synthesis as synthesis_mod
from exitcert.certificates import D_FLOOR, DecreaseModulus, build_decrease_modulus
from exitcert.config import load_config
from exitcert.library import get_example, power_law
from exitcert.pwl import MonotonePL
from exitcert.synthesis import (
    FeedbackGap,
    LegResult,
    LegStep,
    ModulusError,
    StepCollapse,
    SynthesisConfig,
    build_kl_bound,
    build_sigma_envelopes,
    feedback_select,
    integrate_leg,
    reparam_to_time,
    synthesize,
    verify_kl,
)
from exitcert.systems import ConfigError, TrajectoryStatus

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ----------------------------------------------------------------------
# configuration guards


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"nu_ratio": 1.0},
        {"nu_ratio": 0.0},
        {"max_levels": 0},
        {"delta_init": 0.0},
        {"substeps": 7},
        {"substeps": 0},
        {"d_tol": 0.0},
        {"mf_safety": 0.5},
        {"level_tol_rel": 0.0},
        {"delta_min_rel": 0.0},
        {"nu_ratio": 0.9995},
        {"substeps": 4098},
        {"max_levels": 10001},
        {"max_steps_per_leg": 0},
    ],
)
def test_synthesis_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        SynthesisConfig(**kwargs)


# ----------------------------------------------------------------------
# feedback selection


def test_feedback_select_descends(mt):
    choice = feedback_select(mt.ex.system, mt.ex.mrf, mt.modulus, np.array([1.0]))
    assert choice.a_index == 0  # control -1 moves toward the origin
    assert choice.quotient <= -1.0
    np.testing.assert_allclose(choice.p, [1.0])


def test_feedback_gap_with_oversized_modulus(mt):
    fat = build_decrease_modulus([(lev, 80.0) for lev, _ in mt.cert.m_hat_samples])
    with pytest.raises(FeedbackGap) as exc:
        feedback_select(mt.ex.system, mt.ex.mrf, fat, np.array([1.0]))
    assert exc.value.best_value > -1.0


def test_modulus_error_where_cost_and_modulus_vanish(ring):
    # on the outer circle U = 0 and the running cost is 0, so g = 0
    with pytest.raises(ModulusError) as exc:
        feedback_select(ring.ex.system, ring.ex.mrf, ring.modulus, np.array([4.0, 0.0]))
    assert exc.value.g <= 0.0


# ----------------------------------------------------------------------
# leg integration


def test_leg_rejects_bad_levels(mt):
    cfg = SynthesisConfig()
    with pytest.raises(ConfigError):
        integrate_leg(
            mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
            np.array([1.0]), mu_bar=0.5, mu_hat=0.9, config=cfg,
        )
    with pytest.raises(ConfigError):
        integrate_leg(
            mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
            np.array([1.0]), mu_bar=0.5, mu_hat=0.25, config=cfg,
        )


def test_step_collapse_when_speed_estimate_explodes(mt):
    cfg = SynthesisConfig(mf_safety=1e15)
    with pytest.raises(StepCollapse) as exc:
        integrate_leg(
            mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
            np.array([1.0]), mu_bar=1.0, mu_hat=0.5, config=cfg,
        )
    assert exc.value.delta < 1e-9


def test_step_budget_is_enforced(mt):
    cfg = SynthesisConfig(max_steps_per_leg=2)
    with pytest.raises(StepCollapse, match="exceeded 2 steps"):
        integrate_leg(
            mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
            np.array([1.0]), mu_bar=1.0, mu_hat=0.05, config=cfg,
        )


def test_single_leg_reaches_its_level(mt):
    cfg = SynthesisConfig()
    leg = integrate_leg(
        mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
        np.array([1.0]), mu_bar=1.0, mu_hat=0.5, config=cfg,
    )
    assert leg.status == TrajectoryStatus.REACHED_LEVEL
    assert leg.u_end == pytest.approx(0.5, abs=1e-6)
    assert leg.s_bar <= (cfg.epsilon + 1.0) * 1.0 + 1e-12
    s_nodes = np.concatenate([[0.0]] + [st.s0 + st.s[1:] for st in leg.steps])
    assert np.all(np.diff(s_nodes) > 0)


def test_crossing_step_is_integrated_once(mt, monkeypatch):
    """The crossing is bisected on one final pair of substeps, kept as integrated."""
    paths = []  # (start state, length, substeps, returned path) per RK4 path
    bisections = []  # (low end, evaluated lengths, returned length, paths so far)

    def rk4(F, z0, length, n):
        path = rk4_path(F, z0, length, n)
        paths.append((np.array(z0), length, n, path))
        return path

    def bisect(fn, lo, hi, **kw):
        evals = []

        def counted(t):
            evals.append(t)
            return fn(t)

        root = bisect_root(counted, lo, hi, **kw)
        bisections.append((lo, evals, root, len(paths)))
        return root

    rk4_path, bisect_root = synthesis_mod._rk4_path, synthesis_mod.bisect_root
    monkeypatch.setattr(synthesis_mod, "_rk4_path", rk4)
    monkeypatch.setattr(synthesis_mod, "bisect_root", bisect)
    cfg = SynthesisConfig()
    leg = integrate_leg(
        mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
        np.array([1.0]), mu_bar=1.0, mu_hat=0.5, config=cfg,
    )
    assert leg.status == TrajectoryStatus.REACHED_LEVEL
    assert len(bisections) == 1, "the leg should end on one level crossing"
    lo, evals, root, n_paths = bisections[0]
    st = leg.steps[-1]
    n = len(st.states) - 1
    assert n % 2 == 0, "the crossing step must keep an even substep count"
    j = n - 2
    assert lo == st.s[j]

    # every evaluation past node j integrates 2 substeps from node j, once
    pairs = [p for p in paths if p[2] != cfg.substeps]
    assert pairs
    for z0, _, n_sub, _ in pairs:
        assert n_sub == 2
        np.testing.assert_array_equal(z0, st.states[j])
    evaluated = {t for t in evals if t != lo}
    assert sorted(p[1] for p in pairs) == sorted(t - lo for t in evaluated)

    # the kept tail is the pair the bisection returned, not a rerun
    assert len(paths) == n_paths, "a path was integrated after the bisection"
    kept = [p[3] for p in pairs if p[1] == root - lo]
    assert len(kept) == 1
    np.testing.assert_array_equal(st.states[j:], kept[0])
    trial = [p[3] for p in paths if p[2] == cfg.substeps][-1]
    np.testing.assert_array_equal(st.states[: j + 1], trial[: j + 1])
    assert st.length == root == st.s[-1]
    assert st.s[j + 1] == lo + 0.5 * (root - lo)
    assert leg.work["crossing_evals"] == len(pairs)
    assert leg.work["rk4_paths"] == len(paths)
    assert leg.work["rk4_substeps"] == sum(p[2] for p in paths)


def _one_step_leg(inv_g_of_s, s):
    """A minimum_time leg of one step on the offsets s, with 1/g = inv_g_of_s(s).

    With l = 1, p0 = 0.9 and m(U) = U, g = 0.9 + U, so U is chosen to
    give the wanted 1/g at each node.
    """
    u = 1.0 / inv_g_of_s(s) - 0.9
    states = (1.0 - s)[:, None]
    step = LegStep(a_index=0, s0=0.0, length=float(s[-1]), s=s, states=states, u=u,
                   d=states[:, 0])
    return LegResult(
        x0=states[0], u0=float(u[0]), mu_bar=1.0, mu_hat=0.5, epsilon=0.1,
        status=TrajectoryStatus.REACHED_LEVEL, steps=[step], work={},
    )


def test_reparam_handles_a_shorter_last_pair(mt):
    # four substeps of 0.25, then a final pair of two 0.05 halves
    s = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.05, 1.1])
    length = s[-1]
    identity = DecreaseModulus(pl=MonotonePL(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                               eta=0.1, samples=())
    a, b, c = 1.0 / 1.8, 0.1, 0.1

    # 1/g linear in s: the trapezoid sums are exact
    leg = _one_step_leg(lambda s: a + b * s, s)
    tm = reparam_to_time(leg, mt.ex.system, mt.ex.mrf, identity)
    closed = a * length + b * length**2 / 2.0
    assert tm.t_steps[0] == pytest.approx(closed, rel=1e-14, abs=0.0)
    assert tm.cost_steps[0] == pytest.approx(closed, rel=1e-14, abs=0.0)
    assert tm.quad_err <= 1e-15

    # 1/g quadratic in s: on pairs with equal halves, the coarse/fine
    # Richardson estimate is exactly the error of the fine trapezoid sum
    leg = _one_step_leg(lambda s: a + c * s**2, s)
    tm = reparam_to_time(leg, mt.ex.system, mt.ex.mrf, identity)
    error = abs(tm.t_steps[0] - (a * length + c * length**3 / 3.0))
    assert tm.quad_err > 1e-4
    assert tm.quad_err == pytest.approx(error, rel=1e-9)


@pytest.mark.parametrize("fixture", ["mt_synthesis", "ring_synthesis"])
def test_crossing_steps_have_even_substep_counts(fixture, request):
    res = request.getfixturevalue(fixture)
    crossings = [leg.steps[-1] for leg in res.legs
                 if leg.status == TrajectoryStatus.REACHED_LEVEL]
    assert crossings
    for st in crossings:
        assert (len(st.states) - 1) % 2 == 0
        assert st.s[0] == 0.0 and st.s[-1] == st.length
        assert np.all(np.diff(st.s) > 0)


@pytest.mark.parametrize("fixture", ["mt_synthesis", "ring_synthesis"])
def test_work_counters_stay_below_whole_step_bisection(fixture, request):
    """Tripwire: whole-step crossing bisection integrates over 3,000 substeps here."""
    rep = request.getfixturevalue(fixture).report()
    work = rep["work"]
    assert work["rk4_substeps"] <= 1200
    for key in work:
        assert work[key] == sum(leg["work"][key] for leg in rep["legs"])
    assert work["accepted_steps"] == sum(leg["n_steps"] for leg in rep["legs"])
    assert work["rk4_paths"] >= work["accepted_steps"] + work["crossing_evals"]


# ----------------------------------------------------------------------
# full synthesis


def test_minimum_time_synthesis(mt, mt_synthesis):
    res = mt_synthesis
    assert res.status == TrajectoryStatus.APPROACHED_TARGET
    assert res.u0 == pytest.approx(1.0)
    assert res.cost_bound == pytest.approx(1.1 / 0.9)
    assert res.total_cost <= res.cost_bound
    assert res.total_cost == pytest.approx(1.0, rel=0.1)
    res.trajectory.validate()
    assert res.trajectory.d[-1] < 1e-3
    assert res.trajectory.u[-1] < res.u0
    assert len(res.legs) >= 1


def test_levels_follow_the_geometric_cascade(mt_synthesis):
    levels = mt_synthesis.levels
    for k, lev in enumerate(levels, start=1):
        assert lev == pytest.approx(mt_synthesis.u0 * 0.5**k)


def test_synthesis_report_shape(mt_synthesis):
    rep = mt_synthesis.report()
    assert rep["status"] == "approached_target"
    assert rep["cost_within_bound"] is True
    assert len(rep["legs"]) == len(mt_synthesis.legs)
    leg0 = rep["legs"][0]
    for key in (
        "mu_bar", "mu_hat", "status", "n_steps", "s_bar", "u_end",
        "partition_diameter", "step_decrease_worst", "strict_node_decrease",
        "s_bar_budget", "integral_decrease_worst", "integral_decrease_tol",
        "quad_err", "residual_max", "t_total", "cost_total",
    ):
        assert key in leg0


def test_ring_synthesis_runs_at_zero_cost(ring, ring_synthesis):
    res = ring_synthesis
    assert res.status == TrajectoryStatus.APPROACHED_TARGET
    assert res.total_cost == 0.0  # the running cost vanishes on the ring
    assert res.total_cost <= res.cost_bound
    assert res.trajectory.d[-1] < 1e-3
    # the trajectory leaves through the outer circle, not the inner one
    rho_end = float(np.hypot(*res.trajectory.states[-1]))
    assert rho_end > 3.9


def test_start_inside_collar_returns_trivial_trajectory(mt):
    cfg = SynthesisConfig()
    res = synthesize(
        mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
        np.array([1e-6]), cfg, sigma=mt.sigma,
    )
    assert res.status == TrajectoryStatus.APPROACHED_TARGET
    assert res.trajectory.n_nodes == 1
    assert res.total_cost == 0.0
    assert res.legs == []


def test_start_above_band_is_rejected(mt):
    cfg = SynthesisConfig()
    with pytest.raises(ConfigError, match="band top"):
        synthesize(
            mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
            np.array([1.6]), cfg, sigma=mt.sigma,
        )


def test_start_with_nonpositive_value_is_rejected(mt):
    # log-shaped candidate: U < 0 on (0, 1), so certification would fail;
    # synthesis refuses such a start outright
    ex = power_law(r=0.0, s=-1.0)
    cfg = SynthesisConfig()
    with pytest.raises(ConfigError, match="positive definite"):
        synthesize(ex.system, ex.target, ex.mrf, mt.modulus, np.array([0.5]), cfg)


def test_truncation_when_levels_run_out(mt):
    cfg = SynthesisConfig(max_levels=1, d_tol=1e-6)
    res = synthesize(
        mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
        np.array([1.0]), cfg, sigma=mt.sigma,
    )
    assert res.status == TrajectoryStatus.TRUNCATED
    assert res.trajectory.u[-1] == pytest.approx(0.5, abs=1e-6)


# ----------------------------------------------------------------------
# envelopes


def _sandwich(ns, kl_ns):
    X = ns.grid.points()
    U = ns.ex.mrf.u_batch(X)
    D = ns.ex.target.d_many(X)
    sel = np.isfinite(U) & (U >= 0.0) & (U <= ns.sigma)
    off = D > 1e-12
    sm, sp = kl_ns.sigma_minus, kl_ns.sigma_plus
    lower_ok = sm(U[sel & off]) <= D[sel & off] + 1e-12
    upper_ok = D[sel] <= sp(U[sel]) + 1e-12
    return bool(np.all(lower_ok)), bool(np.all(upper_ok)), sm, sp


def test_envelopes_sandwich_minimum_time(mt, mt_kl):
    lower_ok, upper_ok, sm, sp = _sandwich(mt, mt_kl)
    assert lower_ok and upper_ok
    assert sm.is_strictly_increasing
    assert sp.is_strictly_increasing
    assert sm(0.0) == 0.0
    assert sp(0.0) == 0.0


def test_envelopes_sandwich_ring(ring, ring_kl):
    lower_ok, upper_ok, _, _ = _sandwich(ring, ring_kl)
    assert lower_ok and upper_ok


@pytest.mark.parametrize("name", ["minimum_time", "spiral_ring"])
def test_envelopes_sandwich_between_grid_points(name):
    """sigma_minus(U) <= d off the target and d <= sigma_plus(U) at seeded off-grid points.

    The envelopes come from grid samples; the pad on sigma_plus is what
    carries them to the points in between.  Points are uniform in the
    config's verify box, kept where 0 <= U <= sigma.
    """
    cfg = load_config(CONFIGS / f"{name}.yaml")
    ex = get_example(cfg.system.name, **cfg.system.params)
    box = cfg.verify.grid
    sm, sp = build_sigma_envelopes(
        ex.mrf, ex.target, cfg.verify.sigma, box, n_knots=cfg.kl.n_knots
    )
    X = np.random.default_rng(20121).uniform(box.lower, box.upper, size=(200_000, box.dim))
    U = ex.mrf.u_batch(X)
    D = ex.target.d_many(X)
    sel = np.isfinite(U) & (U >= 0.0) & (U <= cfg.verify.sigma)
    off = sel & (D > D_FLOOR)
    assert off.sum() > 10_000
    assert np.all(sm(U[off]) <= D[off] + 1e-12)
    assert np.all(D[sel] <= sp(U[sel]) + 1e-12)


def _same_envelopes(got, want):
    return all(
        np.array_equal(g.xs, w.xs) and np.array_equal(g.ys, w.ys)
        for g, w in zip(got, want, strict=True)
    )


# 7-row blocks on the ring grid's 168,921 points take seconds, so the
# smallest blocks run on the 1-d grid only.
@pytest.mark.parametrize(
    "bundle, block_rows",
    [("mt", 7), ("mt", 97), ("mt", 1000), ("ring", 97), ("ring", 1000)],
)
def test_envelopes_do_not_depend_on_the_block_size(request, monkeypatch, bundle, block_rows):
    ns = request.getfixturevalue(bundle)
    kl_ns = request.getfixturevalue(f"{bundle}_kl")  # built with the default BLOCK_ROWS
    monkeypatch.setattr(certificates, "BLOCK_ROWS", block_rows)
    got = build_sigma_envelopes(ns.ex.mrf, ns.ex.target, ns.sigma, ns.grid)
    assert _same_envelopes(got, (kl_ns.sigma_minus, kl_ns.sigma_plus))


def _split(early, late):
    """`early(x)` below x = 1.9 and `late(x)` from there on (the last blocks)."""
    return lambda X: np.where(X[:, 0] < 1.9, early(X[:, 0]), late(X[:, 0]))


def _const(c):
    return lambda x: np.full(len(x), c)


@pytest.mark.parametrize(
    "u, d, message",
    [
        # U undefined early and negative late: rows lie off the target,
        # but none is usable
        (_split(_const(np.nan), _const(-1.0)), _split(np.abs, np.abs), "no usable samples"),
        # usable U only in the last blocks, which lie on the target
        (_split(_const(-1.0), np.abs), _split(np.abs, _const(0.0)),
         "no samples off the target"),
        # off-target rows only in the last blocks: enough for both envelopes
        (_split(np.abs, np.abs), _split(_const(0.0), np.abs), None),
    ],
    ids=["no_usable", "usable_rows_on_target", "off_target_rows_late"],
)
@pytest.mark.parametrize("block_rows", [certificates.BLOCK_ROWS, 7])
def test_envelope_errors_wait_for_the_whole_grid(mt, monkeypatch, u, d, message, block_rows):
    """"No usable samples" comes before "no samples off the target", whatever the blocks."""
    mrf = replace(mt.ex.mrf, batch_value=u)
    target = replace(mt.ex.target, batch_distance=d)
    if message is None:
        want = build_sigma_envelopes(mrf, target, mt.sigma, mt.grid)  # one block
        monkeypatch.setattr(certificates, "BLOCK_ROWS", block_rows)
        assert _same_envelopes(build_sigma_envelopes(mrf, target, mt.sigma, mt.grid), want)
        return
    monkeypatch.setattr(certificates, "BLOCK_ROWS", block_rows)
    with pytest.raises(ConfigError, match=message):
        build_sigma_envelopes(mrf, target, mt.sigma, mt.grid)


def test_envelope_memory_follows_the_block_not_the_grid(ring):
    """Traced peak of the envelopes on the ring grid: one block's work.

    The grid has 168,921 points, about 2.6 blocks.  A block is allowed
    sixteen float64 values per row (8 MiB at the default BLOCK_ROWS).
    With numpy 2.4 the blocked walk peaks at 5.3 MiB, and evaluating the
    whole grid at once at 9.0 MiB.
    """
    tracemalloc.start()
    try:
        build_sigma_envelopes(ring.ex.mrf, ring.ex.target, ring.sigma, ring.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * certificates.BLOCK_ROWS


def test_envelope_requires_gridspec(mt):
    with pytest.raises(ConfigError):
        build_sigma_envelopes(mt.ex.mrf, mt.ex.target, mt.sigma, "not a grid")


# ----------------------------------------------------------------------
# composed decay bound


def test_kl_axioms_minimum_time(mt_kl):
    axioms = mt_kl.kl.validate_axioms()
    assert axioms["passed"], axioms


def test_kl_bound_decays_along_sections(mt_kl):
    kl = mt_kl.kl
    r = 0.8
    assert kl.beta(0.0, 0.0) == 0.0
    assert kl.beta(-1.0, 5.0) == 0.0
    b0 = kl.beta(r, 0.0)
    b1 = kl.beta(r, 10.0)
    b2 = kl.beta(r, 1e12)
    assert b0 >= b1 >= b2 >= 0.0
    assert b2 < 1e-3
    assert kl.beta(r, 0.0) >= r  # upper envelope dominates the start


def test_kl_bound_rejects_flat_envelopes(mt, mt_kl):
    flat = MonotonePL(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        build_kl_bound(flat, mt_kl.sigma_plus, mt.modulus, epsilon=0.1)


def test_kl_bound_serializes(mt_kl):
    blob = mt_kl.kl.to_dict()
    assert set(blob) == {"epsilon", "sigma_minus_knots", "sigma_plus_knots", "m_tilde_knots"}
    xs, ys = blob["m_tilde_knots"]
    assert len(xs) == len(ys)


def test_decay_bound_holds_along_synthesis(mt_synthesis, mt_kl):
    rep = verify_kl(mt_synthesis.trajectory, mt_kl.kl)
    assert rep.passed, rep.to_dict()
    assert rep.n_nodes == mt_synthesis.trajectory.n_nodes
    assert rep.worst_slack <= rep.tol
