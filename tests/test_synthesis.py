"""Leg integration, full synthesis, envelopes and the decay bound."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import exitcert.certificates as certificates
import exitcert.synthesis as synthesis_mod
from exitcert.certificates import D_FLOOR, DecreaseModulus, build_decrease_modulus
from exitcert.config import as_plain, load_config
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
from rk4_reference import array_field, array_rk4_path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ----------------------------------------------------------------------
# configuration guards


# the ids are the case names these two had when the table also held the
# integrator constants
@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param({"epsilon": 0.0}, id="kwargs0"),
        pytest.param({"d_tol": 0.0}, id="kwargs7"),
    ],
)
def test_synthesis_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        SynthesisConfig(**kwargs)


def test_integrator_constants_keep_their_invariants():
    # the crossing pair and the Richardson estimate both need an even count
    assert synthesis_mod.SUBSTEPS >= 2 and synthesis_mod.SUBSTEPS % 2 == 0
    # the level cascade must fall geometrically
    assert 0 < synthesis_mod.NU_RATIO < 1
    # the modulus must stay strictly below the sampled margins
    assert 0 < certificates.ETA < 1


# ----------------------------------------------------------------------
# feedback selection


def test_feedback_select_descends(mt):
    choice = feedback_select(mt.ex.system, mt.ex.mrf, mt.modulus, np.array([1.0]))
    assert choice.a_index == 0  # control -1 moves toward the origin
    assert choice.quotient <= -1.0
    np.testing.assert_allclose(choice.p, [1.0])


def test_feedback_select_evaluates_each_control_once(monkeypatch):
    # on the spiral's ridge |z| = 2 the inner and middle pieces are both
    # active: two gradients, two controls, four pairs, two dynamics calls
    ex = get_example("spiral", epsilon=0.5)
    modulus = build_decrease_modulus([(2.0, 0.5)])
    x = np.array([2.0, 0.0])
    assert len(ex.mrf.limiting_gradients(x)) == 2
    calls = []
    eval_dynamics = synthesis_mod.eval_dynamics

    def counted(system, z, k):
        calls.append(k)
        return eval_dynamics(system, z, k)

    monkeypatch.setattr(synthesis_mod, "eval_dynamics", counted)
    choice = feedback_select(ex.system, ex.mrf, modulus, x)
    assert calls == [0, 1]
    # the middle piece's gradient -1.5 z/|z| against the outward control
    assert choice.a_index == 0
    np.testing.assert_array_equal(choice.p, [-1.5, 0.0])
    assert np.array_equal(choice.f, eval_dynamics(ex.system, x, choice.a_index))
    l = synthesis_mod.eval_lagrangian(ex.system, x, choice.a_index)
    assert choice.g == ex.mrf.p0_bar * l + float(modulus(ex.mrf.u(x)))
    assert choice.quotient == float(np.dot(choice.p, choice.f)) / choice.g


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
            np.array([1.0]), mu_bar=0.5, mu_hat=0.9, config=cfg, sigma=mt.sigma,
        )
    with pytest.raises(ConfigError):
        integrate_leg(
            mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
            np.array([1.0]), mu_bar=0.5, mu_hat=0.25, config=cfg, sigma=mt.sigma,
        )


def test_step_collapse_when_speed_estimate_explodes(mt, monkeypatch):
    monkeypatch.setattr(synthesis_mod, "MF_SAFETY", 1e15)
    cfg = SynthesisConfig()
    with pytest.raises(StepCollapse) as exc:
        integrate_leg(
            mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
            np.array([1.0]), mu_bar=1.0, mu_hat=0.5, config=cfg, sigma=mt.sigma,
        )
    assert exc.value.delta < 1e-9


def test_step_budget_is_enforced(mt, monkeypatch):
    monkeypatch.setattr(synthesis_mod, "MAX_STEPS_PER_LEG", 2)
    cfg = SynthesisConfig()
    with pytest.raises(StepCollapse, match="exceeded 2 steps"):
        integrate_leg(
            mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
            np.array([1.0]), mu_bar=1.0, mu_hat=0.05, config=cfg, sigma=mt.sigma,
        )


def test_single_leg_reaches_its_level(mt):
    cfg = SynthesisConfig()
    leg = integrate_leg(
        mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
        np.array([1.0]), mu_bar=1.0, mu_hat=0.5, config=cfg, sigma=mt.sigma,
    )
    assert leg.status == TrajectoryStatus.REACHED_LEVEL
    assert leg.u_end == pytest.approx(0.5, abs=1e-6)
    assert leg.s_bar <= (cfg.epsilon + 1.0) * 1.0 + 1e-12
    s_nodes = np.concatenate([[0.0]] + [st.s0 + st.s[1:] for st in leg.steps])
    assert np.all(np.diff(s_nodes) > 0)


def test_crossing_step_is_integrated_once(mt, monkeypatch):
    """The crossing is solved on one final pair of substeps, kept as integrated."""
    paths = []  # (start state, length, substeps, stop level, returned path) per RK4 path
    solves = []  # (low end, evaluated lengths, returned length, paths so far)

    def rk4(F, z0, length, n, stop_at=-math.inf):
        path = rk4_path(F, z0, length, n, stop_at)
        paths.append((np.array(z0), length, n, stop_at, path))
        return path

    def root_finder(fn, lo, hi, **kw):
        evals = []

        def counted(t):
            evals.append(t)
            return fn(t)

        root = illinois_root(counted, lo, hi, **kw)
        solves.append((lo, evals, root, len(paths)))
        return root

    rk4_path, illinois_root = synthesis_mod._rk4_path, synthesis_mod.illinois_root
    monkeypatch.setattr(synthesis_mod, "_rk4_path", rk4)
    monkeypatch.setattr(synthesis_mod, "illinois_root", root_finder)
    cfg = SynthesisConfig()
    leg = integrate_leg(
        mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
        np.array([1.0]), mu_bar=1.0, mu_hat=0.5, config=cfg, sigma=mt.sigma,
    )
    assert leg.status == TrajectoryStatus.REACHED_LEVEL
    assert len(solves) == 1, "the leg should end on one level crossing"
    lo, evals, root, n_paths = solves[0]
    st = leg.steps[-1]
    n = len(st.states) - 1
    assert n % 2 == 0, "the crossing step must keep an even substep count"
    j = n - 2
    assert lo == st.s[j]

    # every evaluation past node j integrates 2 substeps from node j, once
    pairs = [p for p in paths if p[2] != synthesis_mod.SUBSTEPS]
    assert pairs
    for z0, _, n_sub, _, _ in pairs:
        assert n_sub == 2
        np.testing.assert_array_equal(z0, st.states[j])
    evaluated = {t for t in evals if t != lo}
    assert sorted(p[1] for p in pairs) == sorted(t - lo for t in evaluated)

    # the kept tail is the pair the root finder returned, not a rerun
    assert len(paths) == n_paths, "a path was integrated after the root finder returned"
    kept = [p[4] for p in pairs if p[1] == root - lo]
    assert len(kept) == 1
    np.testing.assert_array_equal(st.states[j:], kept[0])
    _, _, _, stop_at, trial = [p for p in paths if p[2] == synthesis_mod.SUBSTEPS][-1]
    np.testing.assert_array_equal(st.states[: j + 1], trial[: j + 1])
    assert st.length == root == st.s[-1]
    assert st.s[j + 1] == lo + 0.5 * (root - lo)
    assert leg.work["crossing_evals"] == len(pairs)
    assert leg.work["rk4_paths"] == len(paths)
    assert leg.work["rk4_substeps"] == sum(len(p[4]) - 1 for p in paths)

    # the trial path ends one substep past its first node at or below the level
    assert stop_at == 0.5 + synthesis_mod.LEVEL_TOL_REL * 0.5
    u_trial = mt.ex.mrf.u_batch(trial)
    first = int(np.flatnonzero(u_trial <= stop_at)[0])
    assert len(trial) == first + 2 < synthesis_mod.SUBSTEPS + 1


def _start_states(name, rng):
    """Twelve seeded states inside the certified band of the mt or ring fixture."""
    if name == "mt":
        return rng.uniform(0.1, 1.4, size=(12, 1)) * rng.choice([-1.0, 1.0], size=(12, 1))
    rho = rng.uniform(3.42, 3.99, size=12)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=12)
    return np.stack([rho * np.cos(ang), rho * np.sin(ang)], axis=1)


@pytest.mark.parametrize("name", ["mt", "ring"])
def test_float_rk4_matches_the_array_rk4_bitwise(name, request):
    """The tuple-of-floats field and RK4 round exactly as their 1-d array forms.

    Every state takes the integrator's own trial length for three exit
    levels; at 3 U(x) the state sits on the cutoff's ramp.  A path told
    to stop at the level must be a prefix of the full path.
    """
    ns = request.getfixturevalue(name)
    ex = ns.ex
    stops = 0
    for x in _start_states(name, np.random.default_rng(7)):
        choice = feedback_select(ex.system, ex.mrf, ns.modulus, x)
        u = ex.mrf.u(x)
        for mu_hat in (0.5 * u, 0.9 * u, 3.0 * u):
            R = mu_hat / (2.0 * float(np.linalg.norm(choice.p)))
            speed = synthesis_mod.MF_SAFETY * float(np.linalg.norm(choice.f)) / choice.g
            trial = min(synthesis_mod.DELTA_INIT, mu_hat / 2.0, R / speed)
            args = (ex.system, ex.mrf, ns.modulus, choice.a_index, mu_hat, ns.sigma)
            F, G = synthesis_mod._make_field(*args), array_field(*args)
            assert F(tuple(x.tolist())) == (tuple(G(x).tolist()), u)
            for length, n in ((trial, synthesis_mod.SUBSTEPS), (0.3 * trial, 2)):
                got = synthesis_mod._rk4_path(F, x, length, n)
                want = array_rk4_path(G, x, length, n)
                assert got.shape == want.shape == (n + 1, len(x))
                assert got.tobytes() == want.tobytes()
                # a path told to stop at mu_hat is the same path, cut one
                # substep past its first node at or below mu_hat
                below = np.flatnonzero(ex.mrf.u_batch(want[:-1]) <= mu_hat)
                m = int(below[0]) + 1 if below.size else n
                stopped = synthesis_mod._rk4_path(F, x, length, n, mu_hat)
                assert stopped.tobytes() == want[: m + 1].tobytes()
                stops += m < n
    assert stops > 0


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
        x0=states[0], u0=float(u[0]), mu_bar=1.0, mu_hat=0.5, sigma=1.0, epsilon=0.1,
        status=TrajectoryStatus.REACHED_LEVEL, steps=[step], work={},
    )


def test_reparam_handles_a_shorter_last_pair(mt):
    # four substeps of 0.25, then a final pair of two 0.05 halves
    s = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.05, 1.1])
    length = s[-1]
    identity = DecreaseModulus(pl=MonotonePL(np.array([0.0, 1.0]), np.array([0.0, 1.0])))
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
    """Tripwire: whole-step crossing bisection integrates over 3,000 substeps here.

    Bisecting the final pair took 15-22 evaluations per crossing and
    over 1,000 substeps; the Illinois method takes a few.
    """
    res = request.getfixturevalue(fixture)
    rep = res.report()
    work = rep["work"]
    assert work["rk4_substeps"] <= 800
    crossings = sum(leg.status == TrajectoryStatus.REACHED_LEVEL for leg in res.legs)
    assert crossings > 0
    assert work["crossing_evals"] <= 4 * crossings
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
        "quad_err", "residual_max", "t_total", "cost_total", "checks",
    ):
        assert key in leg0
    for leg in rep["legs"]:
        assert leg["checks"] == dict.fromkeys(
            ("step_decrease", "progress_budget", "strict_node_decrease",
             "integral_decrease", "level_attained"), True
        )


def test_ring_synthesis_runs_at_zero_cost(ring, ring_synthesis):
    res = ring_synthesis
    assert res.status == TrajectoryStatus.APPROACHED_TARGET
    assert res.total_cost == 0.0  # the running cost vanishes on the ring
    assert res.total_cost <= res.cost_bound
    assert res.trajectory.d[-1] < 1e-3
    # the trajectory leaves through the outer circle, not the inner one
    rho_end = float(np.hypot(*res.trajectory.states[-1]))
    assert rho_end > 3.9


def test_one_band_top_reaches_the_cutoff(ring, monkeypatch):
    # the integrated field and the reparameterisation's residual both cut
    # off at the band top synthesize is given, not at the modulus' top knot
    assert ring.modulus.pl.xs[-1] != ring.sigma
    tops = set()
    cutoff = synthesis_mod._cutoff

    def recording_cutoff(u, mu_hat, sigma):
        tops.add(sigma)
        return cutoff(u, mu_hat, sigma)

    monkeypatch.setattr(synthesis_mod, "_cutoff", recording_cutoff)
    cfg = SynthesisConfig(epsilon=0.01, d_tol=1e-3)
    synthesize(
        ring.ex.system, ring.ex.target, ring.ex.mrf, ring.modulus,
        np.array([0.0, 3.5]), cfg, sigma=ring.sigma,
    )
    assert tops == {ring.sigma}


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
        synthesize(ex.system, ex.target, ex.mrf, mt.modulus, np.array([0.5]), cfg,
                   sigma=mt.sigma)


def test_truncation_when_levels_run_out(mt, monkeypatch):
    monkeypatch.setattr(synthesis_mod, "MAX_LEVELS", 1)
    cfg = SynthesisConfig(d_tol=1e-6)
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
    sm, sp = build_sigma_envelopes(ex.mrf, ex.target, cfg.verify.sigma, box)
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
    assert rep["passed"], rep
    assert rep["n_nodes"] == mt_synthesis.trajectory.n_nodes
    assert rep["worst_slack"] <= rep["tol"]


def test_decay_audit_is_a_plain_report(mt_synthesis, mt_kl):
    rep = verify_kl(mt_synthesis.trajectory, mt_kl.kl)
    assert type(rep) is dict
    assert set(rep) == {"passed", "worst_slack", "worst_time", "n_nodes", "tol"}
    assert repr(as_plain(rep)) == repr(rep)
    # a trajectory without nodes has no slack: -inf, written as None
    none = np.zeros(0)
    empty = replace(mt_synthesis.trajectory, t=none, s=none, states=np.zeros((0, 1)),
                    a_index=none, cost=none, u=none, d=none)
    rep = verify_kl(empty, mt_kl.kl)
    assert rep["n_nodes"] == 0 and rep["worst_slack"] == -np.inf
    assert as_plain(rep) == dict(rep, worst_slack=None)
