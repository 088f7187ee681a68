"""Band certification, decrease moduli and the auxiliary checks."""

import json
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import exitcert.certificates as certificates
from exitcert.certificates import (
    CandidateMrf,
    DecreaseModulus,
    GridSpec,
    PositiveDefinitenessViolation,
    SmoothPiece,
    build_decrease_modulus,
    check_supersolution,
    check_weak_petrov,
    sample_band,
    verify_mrf_band,
)
from exitcert.config import as_plain
from exitcert.library import _two_sided_pieces, minimum_time_1d, power_law, spiral
from exitcert.pwl import MonotonePL, level_max
from exitcert.systems import ConfigError, NegativeLagrangian, SingularDynamics


# ----------------------------------------------------------------------
# grids


def test_gridspec_axes_and_points():
    g = GridSpec(np.array([-1.0]), np.array([1.0]), 0.5)
    np.testing.assert_allclose(g.axes()[0], [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.n_points == 5
    g2 = GridSpec(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.5)
    assert g2.points().shape == (9, 2)
    # rows() rebuilds any rows of points() without the rest, bit for bit
    g3 = GridSpec(np.array([-0.3, 0.1, -2.0]), np.array([0.7, 0.45, -1.3]), 0.07)
    idx = np.random.default_rng(0).permutation(g3.n_points)[:50]
    assert np.array_equal(g3.rows(idx), g3.points()[idx])
    assert g3.rows(np.arange(0)).shape == (0, 3)


def test_gridspec_validation():
    with pytest.raises(ConfigError):
        GridSpec(np.array([1.0]), np.array([0.0]), 0.1)
    with pytest.raises(ConfigError):
        GridSpec(np.array([0.0]), np.array([1.0]), 0.0)
    with pytest.raises(ConfigError, match="must be finite"):
        GridSpec(np.array([-np.inf]), np.array([1.0]), 0.1)


# ----------------------------------------------------------------------
# piece activity


def test_active_masks_need_region_and_value_agreement(mt):
    mrf = mt.ex.mrf  # pieces right (x > 0) and left (x < 0) of |x|
    X = np.array([[-1.0], [0.0], [1.0]])
    right, left = mrf.active_masks(X, np.abs(X[:, 0]))
    assert right.tolist() == [False, False, True]
    assert left.tolist() == [True, False, False]
    # a value off by more than ACT_TOL, or a NaN piece value, is inactive
    assert not np.any(mrf.active_masks(X, np.abs(X[:, 0]) + 1e-6))
    nan_right = replace(mrf.smooth_pieces[0], batch_value=lambda X: np.full(len(X), np.nan))
    nan_mrf = replace(mrf, smooth_pieces=(nan_right,))
    assert not np.any(nan_mrf.active_masks(X, np.abs(X[:, 0])))
    assert [p.name for p in mrf.active_pieces(np.array([1.0]))] == ["right"]
    np.testing.assert_array_equal(mrf.limiting_gradients(np.array([-1.0])), [[-1.0]])


# ----------------------------------------------------------------------
# decrease modulus


def test_modulus_single_sample():
    m = build_decrease_modulus([(1.0, 0.5)])
    # one sample: lagged margin 0.5, position weight 1, eta haircut 0.9
    assert m(1.0) == pytest.approx(0.45)
    assert m(0.0) == 0.0
    assert m(0.5) == pytest.approx(0.225)
    assert m.pl.xs[-1] == 1.0


def test_modulus_two_samples_lag_and_weights():
    m = build_decrease_modulus([(1.0, 0.4), (2.0, 0.6)])
    # both knots use the lagged margin 0.4; weights (1+1/2)/2 and (1+2/2)/2
    assert m(1.0) == pytest.approx(0.9 * 0.4 * 0.75)
    assert m(2.0) == pytest.approx(0.9 * 0.4 * 1.0)


def test_modulus_stays_below_sampled_margins():
    samples = [(0.5, 0.2), (1.0, 0.35), (1.5, 0.5), (2.0, 0.5)]
    m = build_decrease_modulus(samples)
    for lev, marg in samples:
        assert m(lev) < marg
    assert m.pl.is_strictly_increasing


def test_modulus_clamps_negative_extrapolation():
    m = build_decrease_modulus([(1.0, 0.5), (2.0, 0.7)])
    assert m(-5.0) == 0.0


def test_modulus_rejects_bad_samples():
    with pytest.raises(ValueError):
        build_decrease_modulus([])
    with pytest.raises(ValueError):
        build_decrease_modulus([(1.0, 0.0)])
    with pytest.raises(ValueError):
        build_decrease_modulus([(0.0, 0.5)])
    with pytest.raises(ValueError):
        build_decrease_modulus([(1.0, 0.5), (2.0, 0.1)])  # decreasing margins


# ----------------------------------------------------------------------
# records and reports


def _assert_record(rec, keys):
    """rec has exactly these keys, and x and p are lists of Python floats."""
    assert type(rec) is dict
    assert set(rec) == keys
    assert type(rec["kind"]) is str
    assert type(rec["value"]) is float
    for key in {"x", "p"} & keys:
        assert type(rec[key]) is list
        assert all(type(v) is float for v in rec[key])


def _assert_plain_report(rep):
    """rep is a dict that as_plain leaves as it is, apart from non-finite floats becoming None."""
    assert type(rep) is dict
    plain = as_plain(rep)
    odd = {k for k, v in rep.items() if isinstance(v, float) and not np.isfinite(v)}
    assert all(plain[k] is None for k in odd)
    assert repr({k: v for k, v in plain.items() if k not in odd}) == repr(
        {k: v for k, v in rep.items() if k not in odd}
    )


# ----------------------------------------------------------------------
# band verification


def test_minimum_time_band_certificate(mt):
    cert = mt.cert
    assert cert.certified
    assert cert.worst_h == pytest.approx(-0.1, abs=1e-12)
    assert cert.n_band > 0
    assert not cert.violations
    levels = [lev for lev, _ in cert.m_hat_samples]
    margins = [marg for _, marg in cert.m_hat_samples]
    assert levels == sorted(levels)
    assert all(m > 0 for m in margins)
    assert np.all(np.diff(margins) >= -1e-12)  # m_hat non-decreasing


def test_certificate_serializes_to_json(mt):
    blob = json.dumps(mt.cert.to_dict())
    back = json.loads(blob)
    assert back["certified"] is True
    assert back["delta"] == 0.05


def test_spiral_ring_band_certificate(ring):
    assert ring.cert.certified
    assert ring.cert.worst_h < 0
    # the thin band hugs the outer circle, so samples sit at rho > 3
    assert ring.cert.n_band > 100


def test_power_law_rejection_is_fast_and_typed():
    ex = power_law(r=0.0, s=-1.0)
    grid = GridSpec(np.array([-2.0]), np.array([2.0]), 0.01)
    with pytest.raises(PositiveDefinitenessViolation) as exc:
        verify_mrf_band(ex.system, ex.target, ex.mrf, 0.05, 1.0, grid)
    assert exc.value.total > 0
    assert exc.value.violations
    assert exc.value.violations[0]["kind"] == "positive_definiteness"
    for rec in exc.value.violations:
        _assert_record(rec, {"kind", "x", "value", "detail"})
    first = exc.value.violations[0]
    assert str(exc.value).endswith(
        f"worst at x={first['x']} ({first['kind']}: {first['value']})"
    )


def _power_law_rejection():
    """The records and total of configs/power_law_reject.yaml's rejection."""
    ex = power_law(r=0.0, s=-1.0, m1=1.0, m2=1.0, p0_bar=0.5)
    grid = GridSpec(np.array([-2.0]), np.array([2.0]), 0.01)
    with pytest.raises(PositiveDefinitenessViolation) as exc:
        verify_mrf_band(ex.system, ex.target, ex.mrf, 0.05, 1.0, grid)
    return exc.value.violations, exc.value.total


def _band_arrays(samples):
    return (samples.rows, samples.U, samples.H, samples.piece, samples.n_active)


# 7-row blocks on spiral_ring's 168,921 points take seconds, so the
# smallest blocks run on the 1-d grids only.
@pytest.mark.parametrize(
    "bundle, block_rows",
    [("mt", 7), ("mt", 97), ("mt", 1000), ("ring", 97), ("ring", 1000)],
)
def test_band_certificate_does_not_depend_on_the_block_size(
    request, monkeypatch, bundle, block_rows
):
    ns = request.getfixturevalue(bundle)  # certified with the default BLOCK_ROWS
    monkeypatch.setattr(certificates, "BLOCK_ROWS", block_rows)
    cert = verify_mrf_band(ns.ex.system, ns.ex.target, ns.ex.mrf, ns.delta, ns.sigma, ns.grid,
                           envelope_levels=ns.cert.envelope_tables["levels"])
    assert json.dumps(cert.to_dict()) == json.dumps(ns.cert.to_dict())
    assert json.dumps(as_plain(cert.envelope_tables)) == json.dumps(as_plain(ns.cert.envelope_tables))
    for got, want in zip(_band_arrays(cert.samples), _band_arrays(ns.cert.samples), strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "shift, lower",
    [
        (-0.005, -2.0005),  # U < 0 at x = -0.0005 and 0.0095, off the target
        (0.01, -2.0),  # U = 0.01 > 0 on the target, at x = 0
    ],
    ids=["negative_u_off_target", "positive_u_on_target"],
)
def test_envelope_tables_key_out_the_rows_that_do_not_count(mt, monkeypatch, shift, lower):
    """Verify's keyed tables equal level maxima over the filtered whole grid, in 7-row blocks."""
    mrf = replace(
        mt.ex.mrf,
        batch_value=lambda X: np.abs(X[:, 0]) + shift,
        smooth_pieces=_two_sided_pieces(lambda rho: rho + shift, np.ones_like),
    )
    grid = GridSpec(np.array([lower]), np.array([2.0]), 0.01)
    levels = mt.cert.envelope_tables["levels"]
    X = grid.points()
    U, D = mrf.u_batch(X), mt.ex.target.d_many(X)
    usable = U >= 0.0
    off = usable & (D > certificates.D_FLOOR)
    # the rows that each case keys out exist
    assert np.any(~usable & (D > certificates.D_FLOOR)) if shift < 0 else np.any(usable & ~off)
    monkeypatch.setattr(certificates, "BLOCK_ROWS", 7)
    got = verify_mrf_band(mt.ex.system, mt.ex.target, mrf, mt.delta, mt.sigma, grid,
                          envelope_levels=levels).envelope_tables
    want = {
        "d_min_above": -level_max(levels, U[off], -D[off], above=True),
        "d_max_below": level_max(levels, U[usable], D[usable], above=False),
    }
    for key, table in want.items():
        assert np.array_equal(got[key], table, equal_nan=True), key
    assert (got["n_usable"], got["n_off_target"]) == (usable.sum(), off.sum())


@pytest.mark.parametrize("block_rows", [7, 97, 1000])
def test_rejection_records_do_not_depend_on_the_block_size(monkeypatch, block_rows):
    # U ties exactly at x = +-0.02 and +-0.04: the record order among ties
    # must come out as the one-block sort gives it
    want = _power_law_rejection()
    monkeypatch.setattr(certificates, "BLOCK_ROWS", block_rows)
    assert _power_law_rejection() == want


def _abs_except(early, late):
    """|x|, but `early` at x <= -1.9 (the first blocks) and `late` at x >= 1.9 (the last)."""

    def f(X):
        out = np.abs(X[:, 0])
        if early is not None:
            out[X[:, 0] <= -1.9] = early
        if late is not None:
            out[X[:, 0] >= 1.9] = late
        return out

    return f


@pytest.mark.parametrize(
    "u_early, u_late, d_late, error",
    [
        # U < 0 late; only the right piece is kept, so no piece is
        # active on the band's rows at x < 0, which come first
        (None, -1.0, None, PositiveDefinitenessViolation),
        (np.nan, None, -1.0, ConfigError),  # d < 0 late, U non-finite early
        (-1.0, np.nan, None, SingularDynamics),  # U non-finite late, U < 0 early
    ],
    ids=["posdef_before_band", "distance_before_nonfinite_u", "nonfinite_u_before_posdef"],
)
@pytest.mark.parametrize("block_rows", [certificates.BLOCK_ROWS, 7])
def test_errors_keep_their_precedence_across_blocks(
    mt, monkeypatch, u_early, u_late, d_late, error, block_rows
):
    """A d error, then a non-finite U, then positive definiteness, then the band."""
    monkeypatch.setattr(certificates, "BLOCK_ROWS", block_rows)
    mrf = replace(
        mt.ex.mrf,
        batch_value=_abs_except(u_early, u_late),
        smooth_pieces=mt.ex.mrf.smooth_pieces[:1],
    )
    target = replace(mt.ex.target, batch_distance=_abs_except(None, d_late))
    with pytest.raises(Exception) as exc:
        verify_mrf_band(mt.ex.system, target, mrf, mt.delta, mt.sigma, mt.grid)
    assert exc.type is error


def _spiral_bundle():
    """configs/spiral.yaml's verify stage: 674,041 points, a band over 7 blocks."""
    grid = GridSpec(np.array([-4.1, -4.1]), np.array([4.1, 4.1]), 0.01)
    return SimpleNamespace(ex=spiral(epsilon=0.5), grid=grid, delta=0.05, sigma=4.0 / 3.0)


@pytest.mark.parametrize("bundle", ["ring", "spiral"])
def test_verify_memory_follows_the_band_not_the_grid(request, bundle):
    """Traced peak of the verify stage: the kept band plus one block's work.

    One window holds verify_mrf_band, build_decrease_modulus and
    check_supersolution, as ``exitcert verify`` runs them.  A block's
    work is allowed sixteen float64 values per row (8 MiB at the default
    BLOCK_ROWS).  spiral_ring's grid has 168,921 points, about 2.6
    blocks; evaluating the whole grid at once peaked at 11.5 MiB.
    spiral's band has 446,390 rows over 7 blocks, 11.1 MiB kept: the
    stage peaks at 16.4 MiB, and at 28.1 MiB when the supersolution
    check gathers the single-piece samples into copies.
    """
    ns = request.getfixturevalue("ring") if bundle == "ring" else _spiral_bundle()
    ex = ns.ex
    tracemalloc.start()
    try:
        cert = verify_mrf_band(ex.system, ex.target, ex.mrf, ns.delta, ns.sigma, ns.grid)
        modulus = build_decrease_modulus(cert.m_hat_samples)
        rep = check_supersolution(ex.mrf, modulus, cert.samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["n_checked"] > 0
    kept = sum(a.nbytes for a in _band_arrays(cert.samples))
    assert peak < kept + 16 * 8 * certificates.BLOCK_ROWS


def _short_grid_mt():
    """minimum_time on [-1, 1]: U <= 1, so the top three levels of [0.05, 1.5] hold no sample."""
    ex = minimum_time_1d(p0_bar=0.9)
    grid = GridSpec(np.array([-1.0]), np.array([1.0]), 0.01)
    return verify_mrf_band(ex.system, ex.target, ex.mrf, 0.05, 1.5, grid).to_dict()


@pytest.mark.parametrize("block_rows", [97, 7])
def test_skipped_levels_do_not_depend_on_the_block_size(monkeypatch, block_rows):
    # most 7-row blocks hold no sample at the upper levels: their NaN
    # must merge as "no sample", not as a margin
    want = _short_grid_mt()
    assert len(want["m_hat_samples"]) == 6
    skipped = [n for n in want["notes"] if n.startswith("no band samples at or above level")]
    assert len(skipped) == 3
    assert all(n.endswith("; level skipped") for n in skipped)
    monkeypatch.setattr(certificates, "BLOCK_ROWS", block_rows)
    assert _short_grid_mt() == want


def test_power_law_exponent_fact():
    assert power_law(r=0.0, s=-1.0).facts["exponent"] == 0.0
    assert power_law(r=0.0, s=1.0).facts["exponent"] == 2.0


def test_band_rejects_bad_interval(mt):
    with pytest.raises(ConfigError):
        verify_mrf_band(mt.ex.system, mt.ex.target, mt.ex.mrf, 1.5, 0.05, mt.grid)


def test_negative_cost_names_its_control(mt):
    # the cost is negative only for control index 1 (a = +1)
    neg = replace(
        mt.ex.system,
        batch_lagrangian=lambda X, a: np.full(len(X), -1.0 if a[0] > 0 else 1.0),
    )
    with pytest.raises(NegativeLagrangian) as exc:
        verify_mrf_band(neg, mt.ex.target, mt.ex.mrf, 0.05, 1.5, mt.grid)
    assert exc.value.a_index == 1
    assert exc.value.value == -1.0


def test_uncertified_band_when_margin_too_demanding(mt):
    cert = verify_mrf_band(
        mt.ex.system, mt.ex.target, mt.ex.mrf, 0.05, 1.5, mt.grid, margin=0.5
    )
    assert not cert.certified
    assert any(v["kind"] == "hamiltonian" for v in cert.violations)
    # the band of test_cli's `margin: 0.5` config: the records carry p, no detail
    for rec in cert.violations:
        _assert_record(rec, {"kind", "x", "value", "p"})
    assert cert.to_dict()["violations"] == cert.violations


def _half_line_piece(name, sign, slope):
    # value |x| on the side sign*x > 0, with gradient sign*slope
    return SmoothPiece(
        name=name,
        batch_value=lambda X: np.abs(X[:, 0]),
        batch_gradient=lambda X: np.full((len(X), 1), sign * slope),
        batch_region=lambda X: sign * X[:, 0] > 0,
    )


def _kinked(mt, shallow_first=False, shallow_gradient=None):
    """|x| with two pieces active at x > 0: gradients 1 and 0.5, or shallow_gradient."""
    steep = _half_line_piece("steep", 1.0, 1.0)
    shallow = _half_line_piece("shallow", 1.0, 0.5)
    if shallow_gradient is not None:
        shallow = replace(shallow, batch_gradient=shallow_gradient)
    right = (shallow, steep) if shallow_first else (steep, shallow)
    return replace(mt.ex.mrf, smooth_pieces=right + (_half_line_piece("left", -1.0, 1.0),))


@pytest.mark.parametrize("shallow_first", [True, False])
def test_hamiltonian_record_carries_the_violating_piece_gradient(mt, shallow_first):
    # at x > 0 two pieces are active; with p0 = 0.9 the gradient 1 gives
    # H = -0.1 and the gradient 0.5 gives H = 0.4, so only the latter violates
    kinked = _kinked(mt, shallow_first)
    cert = verify_mrf_band(mt.ex.system, mt.ex.target, kinked, 0.05, 1.5, mt.grid)
    assert not cert.certified
    records = [v for v in cert.violations if v["kind"] == "hamiltonian"]
    assert len(records) == 32
    for v in records:
        assert v["x"][0] > 0
        assert v["p"] == [0.5]
        assert v["value"] == pytest.approx(0.4)


@pytest.mark.parametrize("block_rows", [certificates.BLOCK_ROWS, 97])
def test_each_band_sample_and_active_piece_is_evaluated_once(mt, monkeypatch, block_rows):
    monkeypatch.setattr(certificates, "BLOCK_ROWS", block_rows)
    kinked = _kinked(mt)
    h_rows, mask_calls = [], []
    hamiltonian = certificates.hamiltonian
    active_masks = CandidateMrf.active_masks

    def counting_hamiltonian(system, X, p0, P):
        h_rows.append(len(X))
        return hamiltonian(system, X, p0, P)

    def counting_masks(self, X, U):
        mask_calls.append(len(X))
        return active_masks(self, X, U)

    monkeypatch.setattr(certificates, "hamiltonian", counting_hamiltonian)
    monkeypatch.setattr(CandidateMrf, "active_masks", counting_masks)
    cert = verify_mrf_band(mt.ex.system, mt.ex.target, kinked, 0.05, 1.5, mt.grid)
    samples = cert.samples
    assert len([v for v in cert.violations if v["kind"] == "hamiltonian"]) == 32
    assert sum(h_rows) == int(np.sum(samples.n_active)) > len(samples)
    # one call per grid block, on that block's band rows
    assert len(mask_calls) == -(-mt.grid.n_points // block_rows)
    assert sum(mask_calls) == len(samples)


@pytest.mark.parametrize("two_active", [False, True], ids=["one_active", "two_active"])
def test_non_finite_gradient_of_an_active_piece_is_singular(mt, two_active):
    def nan_above_one(X):
        return np.where(X > 1.0, np.nan, 0.5)

    if two_active:
        # at 0 < x <= 1 steep and shallow are both active and finite
        mrf = _kinked(mt, shallow_gradient=nan_above_one)
        name = "shallow"
    else:
        right = mt.ex.mrf.smooth_pieces[0]
        nan_right = replace(
            right, batch_gradient=lambda X: np.where(X > 1.0, np.nan, right.batch_gradient(X))
        )
        mrf = replace(mt.ex.mrf, smooth_pieces=(nan_right,) + mt.ex.mrf.smooth_pieces[1:])
        name = "right"
    with pytest.raises(SingularDynamics, match=f"gradient of piece {name} non-finite") as exc:
        verify_mrf_band(mt.ex.system, mt.ex.target, mrf, mt.delta, mt.sigma, mt.grid)
    assert exc.value.x.tolist() == pytest.approx([1.01])  # the first such grid point


@pytest.mark.parametrize("order", [1, -1], ids=["grid_order", "reversed"])
def test_sample_band_names_the_first_non_finite_gradient_row(mt, order):
    # the right piece's gradient is inf at x = 0.5 and NaN at x = 1.2; the
    # error names whichever of the two comes first in the rows given
    right = mt.ex.mrf.smooth_pieces[0]

    def gradient(X):
        G = np.array(right.batch_gradient(X), dtype=float)
        G[np.isclose(X[:, 0], 0.5)] = np.inf
        G[np.isclose(X[:, 0], 1.2)] = np.nan
        return G

    mrf = replace(mt.ex.mrf, smooth_pieces=(replace(right, batch_gradient=gradient),)
                  + mt.ex.mrf.smooth_pieces[1:])
    rows = np.arange(mt.grid.n_points)
    U = mrf.u_batch(mt.grid.rows(rows))
    keep = (U >= mt.delta) & (U <= mt.sigma)
    rows, U = rows[keep][::order], U[keep][::order]
    with pytest.raises(SingularDynamics, match="gradient of piece right non-finite") as exc:
        sample_band(mt.ex.system, mrf, mt.grid, rows, U)
    assert exc.value.x.tolist() == pytest.approx([0.5] if order == 1 else [1.2])


def _max_gradient_norm(ex, grid, band):
    """The largest np.linalg.norm(P, axis=1) over every band sample and active piece."""
    rows = np.arange(grid.n_points)
    X = grid.rows(rows)
    U = ex.mrf.u_batch(X)
    lo, hi = band
    keep = (U >= lo) & (U <= hi) & (ex.target.d_many(X) > certificates.D_FLOOR)
    X, U = X[keep], U[keep]
    norms = [
        np.linalg.norm(np.asarray(piece.batch_gradient(X[act]), dtype=float), axis=1)
        for piece, act in zip(ex.mrf.smooth_pieces, ex.mrf.active_masks(X, U))
    ]
    return float(np.max(np.concatenate(norms)))


@pytest.mark.parametrize("bundle", ["mt", "ring", "coarse_spiral", "ring_constant_gradient"])
def test_gradient_bound_is_the_largest_row_norm_bit_for_bit(request, bundle):
    # constants.L is reported in verify_report.json, so the squared-norm
    # reduction that gives it must round like np.linalg.norm(P, axis=1).
    # The bundled bands cannot tell the reductions apart; the constant
    # gradient (1.1, 0.6) can: with numpy 2.4 on x86-64, np.linalg.norm
    # (axis=1) and einsum give 1.252996408614167, np.sqrt(np.vecdot) one
    # ulp less.
    if bundle == "coarse_spiral":
        ns = _spiral_bundle()
        ns.grid = GridSpec(ns.grid.lower, ns.grid.upper, 0.05)
    elif bundle == "ring_constant_gradient":
        ring = request.getfixturevalue("ring")
        pieces = tuple(
            replace(pc, batch_gradient=lambda X: np.tile([1.1, 0.6], (len(X), 1)))
            for pc in ring.ex.mrf.smooth_pieces
        )
        ex = SimpleNamespace(system=ring.ex.system, target=ring.ex.target,
                             mrf=replace(ring.ex.mrf, smooth_pieces=pieces))
        ns = SimpleNamespace(ex=ex, grid=ring.grid, delta=ring.delta, sigma=ring.sigma)
    else:
        ns = request.getfixturevalue(bundle)
    if not hasattr(ns, "cert"):
        ns.cert = verify_mrf_band(ns.ex.system, ns.ex.target, ns.ex.mrf, ns.delta, ns.sigma,
                                  ns.grid)
    want = _max_gradient_norm(ns.ex, ns.grid, (ns.delta, ns.sigma))
    assert ns.cert.constants["L"] == 1.5 * want


# ----------------------------------------------------------------------
# supersolution spot check


def _band(ex, grid, band):
    """The band samples of a whole grid, as verification evaluates them."""
    rows = np.arange(grid.n_points)
    pts = grid.rows(rows)
    U = ex.mrf.u_batch(pts)
    lo, hi = band
    keep = (U >= lo) & (U <= hi) & (ex.target.d_many(pts) > certificates.D_FLOOR)
    samples, _ = sample_band(ex.system, ex.mrf, grid, rows[keep], U[keep])
    return samples


def test_supersolution_holds_with_certified_modulus(mt):
    rep = check_supersolution(mt.ex.mrf, mt.modulus, _band(mt.ex, mt.grid, (mt.delta, mt.sigma)))
    assert rep["passed"]
    assert rep["n_checked"] > 0
    assert rep["worst_margin"] < 0
    assert set(rep) == {"passed", "n_points", "n_checked", "n_skipped", "worst_margin",
                        "failures"}
    _assert_plain_report(rep)
    # U <= 2 on the grid, so this band holds no point: nothing is certified
    empty = check_supersolution(mt.ex.mrf, mt.modulus, _band(mt.ex, mt.grid, (2.5, 3.0)))
    assert empty["n_checked"] == 0
    assert not empty["passed"]
    assert np.isnan(empty["worst_margin"])
    _assert_plain_report(empty)


def test_supersolution_fails_with_inflated_modulus(mt):
    inflated = build_decrease_modulus([(lev, 50.0) for lev, _ in mt.cert.m_hat_samples])
    rep = check_supersolution(mt.ex.mrf, inflated, _band(mt.ex, mt.grid, (mt.delta, mt.sigma)))
    assert not rep["passed"]
    assert rep["failures"]
    assert rep["failures"][0]["kind"] == "supersolution"
    for rec in rep["failures"]:
        _assert_record(rec, {"kind", "x", "value", "p"})
    _assert_plain_report(rep)


@pytest.mark.parametrize("excess", [1e-6, -1e-6], ids=["over", "under"])
def test_supersolution_fails_just_past_zero(mt, excess):
    # H = -0.1 on the whole band, and m(1.5) = 0.1 + excess at the band top
    modulus = DecreaseModulus(MonotonePL([0.0, 1.5], [0.0, 0.1 + excess]))
    rep = check_supersolution(mt.ex.mrf, modulus, _band(mt.ex, mt.grid, (mt.delta, mt.sigma)))
    assert rep["worst_margin"] == pytest.approx(excess, rel=1e-3)
    if excess < 0:
        assert rep["passed"]
        assert not rep["failures"]
        return
    assert not rep["passed"]
    assert [v["kind"] for v in rep["failures"]] == ["supersolution"] * 2
    assert rep["failures"][0]["x"] == [1.5]
    assert rep["failures"][0]["value"] == pytest.approx(excess, rel=1e-3)


def test_supersolution_skips_samples_with_several_active_pieces(mt):
    # at x > 0 the steep and shallow pieces are both active, and the
    # shallow gradient gives H = 0.4, so H + m(U) is largest there
    kinked = _kinked(mt)
    samples = _band(replace(mt.ex, mrf=kinked), mt.grid, (mt.delta, mt.sigma))
    rep = check_supersolution(kinked, mt.modulus, samples)
    assert rep["passed"]
    assert rep["n_checked"] == 146  # the band samples at x < 0
    assert rep["n_skipped"] == 145
    assert rep["worst_margin"] == pytest.approx(-0.01)
    assert not rep["failures"]


def test_supersolution_caps_failures_in_total():
    # every band point of all three spiral pieces fails against this modulus
    ex = spiral(epsilon=0.5)
    inflated = build_decrease_modulus([(0.5, 50.0), (1.0, 50.0), (1.4, 50.0)])
    grid = GridSpec(np.array([-4.2, -4.2]), np.array([4.2, 4.2]), 0.1)
    rep = check_supersolution(ex.mrf, inflated, _band(ex, grid, (0.05, 1.3)))
    assert not rep["passed"]
    assert rep["n_checked"] > 3 * 32
    assert len(rep["failures"]) == 32


# ----------------------------------------------------------------------
# weak inward-pointing condition


def _petrov_points():
    return np.linspace(-1.5, 1.5, 301)[:, None]


def _at_speed(system, speed):
    """The line's minimum-time system moving at ``speed`` instead of 1."""
    return replace(
        system,
        dynamics=lambda x, a: np.array([speed * a[0]]),
        batch_dynamics=lambda X, a: np.full((len(X), 1), speed * a[0]),
    )


def test_petrov_sqrt_profile_builds_the_root_gauge():
    ex = minimum_time_1d()
    rep = check_weak_petrov(ex.system, ex.target, _petrov_points())
    assert rep["ok"]
    assert rep["n_checked"] > 0
    assert rep["worst_eq_slack"] <= 1e-9
    # the gauge integrates 1/sqrt to 2*sqrt
    phi = MonotonePL(*rep["phi_knots"])
    for r in (0.01, 0.1, 0.5, 1.0):
        assert phi(r) == pytest.approx(2.0 * np.sqrt(r), rel=1e-3)
    # no sample strictly between the target and delta: nothing is checked
    empty = check_weak_petrov(ex.system, ex.target, np.array([[0.0], [1.2]]))
    assert empty["n_checked"] == 0
    assert not empty["ok"]
    assert np.isnan(empty["worst_eq_slack"]) and np.isnan(empty["worst_h_margin"])
    keys = {"ok", "n_checked", "worst_eq_slack", "worst_h_margin", "phi_knots", "failures"}
    for r in (rep, empty):
        assert set(r) == keys
        _assert_plain_report(r)


@pytest.mark.parametrize("delta", [1.0, 0.5])
def test_petrov_gauge_quadrature_matches_closed_form(delta, monkeypatch):
    # below r = 1 the rate is sqrt(r), so the gauge is 2*sqrt(r) at every knot
    monkeypatch.setattr(certificates, "PETROV_DELTA", delta)
    ex = minimum_time_1d()
    rep = check_weak_petrov(ex.system, ex.target, _petrov_points())
    assert rep["ok"]
    xs, ys = rep["phi_knots"]
    decades = [delta * 10.0 ** (-k) for k in range(12, 0, -1)]
    assert xs == [0.0] + decades + np.linspace(delta / 10.0, delta, 10)[1:].tolist()
    assert ys == [2.0 * np.sqrt(x) for x in xs]


def test_petrov_checks_unit_cost_on_every_sample():
    ex = minimum_time_1d()

    def cost(X):
        # 1 everywhere but on 0.4 < |x| < 0.6, which holds no end or middle sample
        return np.where((np.abs(X[:, 0]) > 0.4) & (np.abs(X[:, 0]) < 0.6), 2.0, 1.0)

    bumpy = replace(
        ex.system,
        lagrangian=lambda x, a: float(cost(x[None])[0]),
        batch_lagrangian=lambda X, a: cost(X),
    )
    with pytest.raises(ConfigError, match="identically 1"):
        check_weak_petrov(bumpy, ex.target, _petrov_points())


@pytest.mark.parametrize("max_records", [32, 5])
def test_petrov_records_pair_by_pair_up_to_the_cap(max_records, monkeypatch):
    monkeypatch.setattr(certificates, "MAX_RECORDS", max_records)
    ex = minimum_time_1d()
    # at speed 1/4 both checks fail wherever sqrt(d) > 1/4
    pts = _petrov_points()
    rep = check_weak_petrov(_at_speed(ex.system, 0.25), ex.target, pts)
    assert not rep["ok"]
    assert len(rep["failures"]) == max_records
    kinds = ["petrov_decrease", "petrov_hamiltonian"] * max_records
    assert [v["kind"] for v in rep["failures"]] == kinds[:max_records]
    for rec in rep["failures"]:
        _assert_record(rec, {"kind", "x", "value", "p"})
    _assert_plain_report(rep)
    d = np.abs(pts[:, 0])
    failing = pts[(d > 0.0625 + 1e-9) & (d < 1.0)]
    for k, v in enumerate(rep["failures"]):
        x = failing[k // 2]
        assert v["x"] == [x[0]]
        rate = np.sqrt(abs(x[0]))
        if v["kind"] == "petrov_decrease":
            assert v["p"] == [np.sign(x[0])]
            assert v["value"] == pytest.approx(rate - 0.25)
        else:
            assert v["p"] == pytest.approx([np.sign(x[0]) / rate])
            assert v["value"] == pytest.approx(1.0 - 0.25 / rate)


@pytest.mark.parametrize("excess", [1e-6, -1e-6], ids=["slower", "faster"])
def test_petrov_fails_just_past_its_tolerance(excess):
    # at speed sqrt(0.99) - excess both margins peak at d = 0.99, the
    # largest sample distance below PETROV_DELTA, where they are about excess
    ex = minimum_time_1d()
    system = _at_speed(ex.system, np.sqrt(0.99) - excess)
    rep = check_weak_petrov(system, ex.target, _petrov_points())
    assert rep["worst_eq_slack"] == pytest.approx(excess, rel=1e-2)
    assert rep["worst_h_margin"] == pytest.approx(excess, rel=1e-2)
    if excess < 0:
        assert rep["ok"]
        assert not rep["failures"]
        return
    assert not rep["ok"]
    assert [v["kind"] for v in rep["failures"]] == ["petrov_decrease", "petrov_hamiltonian"] * 2
    assert [v["x"][0] for v in rep["failures"]] == pytest.approx([-0.99] * 2 + [0.99] * 2)


def test_petrov_induced_candidate_certifies():
    ex = minimum_time_1d()
    rep = check_weak_petrov(ex.system, ex.target, _petrov_points())
    # the induced candidate has H margin -(1 - p0_bar) by construction
    assert rep["worst_h_margin"] <= 1e-9
    # 0.25 falls between gauge knots, so allow the interpolation sag
    assert MonotonePL(*rep["phi_knots"])(0.25) == pytest.approx(2.0 * np.sqrt(0.25), rel=1e-2)
