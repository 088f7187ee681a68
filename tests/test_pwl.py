"""Piecewise-linear monotone tables: interpolation, inversion, min, roots."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exitcert.pwl import (
    MonotonePL,
    bisect_root,
    level_max,
    lift_strict,
    lower_strict,
    pwl_min,
    sorted_unique,
)


def test_interpolates_knots_exactly():
    pl = MonotonePL(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 2.5]))
    assert pl(0.0) == 0.0
    assert pl(1.0) == 2.0
    assert pl(3.0) == 2.5
    assert pl(0.5) == pytest.approx(1.0)
    assert pl(2.0) == pytest.approx(2.25)


def test_scalar_in_scalar_out():
    pl = MonotonePL(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert isinstance(pl(0.3), float)
    out = pl(np.array([0.1, 0.2]))
    assert out.shape == (2,)
    assert pl([0.1, 0.2]).shape == (2,)
    assert pl([0.3]).shape == (1,)
    assert isinstance(pl(1), float)


def test_linear_extrapolation_uses_end_slopes():
    pl = MonotonePL(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0]))
    assert pl(-1.0) == pytest.approx(-1.0)   # left slope 1
    assert pl(3.0) == pytest.approx(5.0)     # right slope 2


def test_rejects_bad_knots():
    with pytest.raises(ValueError):
        MonotonePL(np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        MonotonePL(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        MonotonePL(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        MonotonePL(np.array([0.0, 1.0]), np.array([0.0, np.inf]))
    # finite knots whose slope overflows: np.interp would return inf
    with pytest.raises(ValueError, match="slope overflows"):
        MonotonePL(np.array([0.0, 2.225073858507203e-309]), np.array([0.25, 1.25]))


def test_inverse_requires_strict_increase():
    flat = MonotonePL(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
    assert not flat.is_strictly_increasing
    with pytest.raises(ValueError, match="flat segment"):
        flat.inverse()


# knot abscissae; the pinned example has a subnormal gap, whose slope overflows
KNOTS = st.lists(st.floats(-50, 50), min_size=2, max_size=8, unique=True)
SUBNORMAL_GAP = [0.0, 2.225073858507203e-309]
# the smallest normal gap: a finite first slope of about 4.5e307, which
# overflows when multiplied by an in-range offset
STEEP_GAP = [0.0, 4.0, 2.2250738585072014e-308]


@settings(max_examples=60, deadline=None)
@given(KNOTS)
@example(SUBNORMAL_GAP)
@example(STEEP_GAP)
def test_inverse_roundtrip(xs):
    xs = np.sort(np.asarray(xs))
    # unit y-increments keep the values strictly increasing even when two
    # abscissae are only a rounding error apart
    ys = 0.25 + np.arange(len(xs), dtype=float)
    if min(b - a for a, b in zip(xs[:-1], xs[1:])) < 1.0 / sys.float_info.max:
        # a unit rise over this gap has no finite slope
        with pytest.raises(ValueError, match="slope overflows"):
            MonotonePL(xs, ys)
        return
    pl = MonotonePL(xs, ys)
    inv = pl.inverse()
    probe = np.linspace(xs[0], xs[-1], 17)
    np.testing.assert_allclose(inv(pl(probe)), probe, atol=1e-9)


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=100, deadline=None)
@given(
    KNOTS,
    st.lists(st.floats(0, 10), min_size=8, max_size=8),
    st.lists(st.floats(-100, 100), max_size=4),
)
@example(SUBNORMAL_GAP, [0.5] * 8, [])
@example([-1e308, 1e308], [0.0] * 8, [9e307])  # span wider than the largest float
@example([-1.0, 0.0, 2.0], [0.0, 1.0, 0.0, 0.0, 0, 0, 0, 0], [1.0, 0.5])
def test_scalar_branch_matches_array_path_bitwise(xs, rises, extra):
    """A scalar query returns the array path's value to the bit, as a float."""
    xs = np.sort(np.asarray(xs))
    ys = -3.0 + np.cumsum(np.asarray(rises[: len(xs)]))  # flat segments included
    try:
        with np.errstate(over="ignore"):  # knot spans wider than the largest float
            pl = MonotonePL(xs, ys)
    except ValueError as exc:
        assert "slope overflows" in str(exc)
        return
    queries = list(xs) + list(0.5 * (xs[:-1] + xs[1:])) + extra
    queries += [np.nextafter(x, d) for x in xs for d in (-np.inf, np.inf)]
    queries += [xs[0] - 1.0, xs[-1] + 1.0, -1e300, 1e300, -np.inf, np.inf, np.nan]
    for r in queries:
        with np.errstate(invalid="ignore", over="ignore"):  # queries of +-1e300 and inf
            want = float(pl(np.array([r]))[0])
        for form in (float(r), np.float64(r), np.array(r)):
            got = pl(form)
            assert type(got) is float, type(form)
            assert _same_float(got, want), (r, got, want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-0.0, 0.0, 0.5, -1e-300, 5e-324, 1.0, 1e300, -np.inf, np.inf])
                | st.floats(allow_nan=False), max_size=24))
def test_sorted_unique_matches_np_unique_bitwise(values):
    a = np.array(values, dtype=float)
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_pwl_min_matches_dense_sampling():
    f = MonotonePL(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.5, 1.6]))
    g = MonotonePL(np.array([0.0, 0.5, 2.0]), np.array([0.2, 0.4, 3.0]))
    m = pwl_min(f, g)
    t = np.linspace(0.0, 2.0, 801)
    np.testing.assert_allclose(m(t), np.minimum(f(t), g(t)), atol=1e-12)


def test_pwl_min_inserts_crossings():
    # f and g cross strictly inside a segment; the min must keep the kink
    f = MonotonePL(np.array([0.0, 2.0]), np.array([0.0, 2.0]))
    g = MonotonePL(np.array([0.0, 2.0]), np.array([1.0, 1.5]))
    m = pwl_min(f, g)
    cross = 1.0 / (1.0 - 0.25)  # solves t = 1 + t/4
    assert np.any(np.isclose(m.xs, cross, atol=1e-9))
    assert m(cross) == pytest.approx(cross, abs=1e-9)


def test_lift_strict_preserves_floor_and_monotonicity():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([0.0, 1.0, 1.0, 0.5])
    out = lift_strict(xs, ys, 0.01)
    assert np.all(np.diff(out) > 0)
    assert np.all(out >= ys - 1e-15)  # only raises, never lowers
    with pytest.raises(ValueError):
        lift_strict(xs, ys, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-3, 3), max_size=16),  # keys: duplicates and exact levels are common
    st.lists(st.floats(-10, 10), min_size=16, max_size=16),
    st.sets(st.integers(-8, 8), min_size=1, max_size=6),  # levels, halved: -4 to 4
)
@example([0, 0, 1, 2, 2], [3.0, -1.0, 0.5, 2.0, -2.0] + [0.0] * 11, {-8, 0, 2, 4, 8})
@example([], [0.0] * 16, {0})
def test_level_max_matches_brute_force(keys, values, levels):
    keys = np.asarray(keys, dtype=float)
    values = np.asarray(values[: len(keys)])
    levels = np.array(sorted(levels), dtype=float) / 2.0
    for above in (True, False):
        got = level_max(levels, keys, values, above=above)
        assert got.shape == levels.shape
        for r, g in zip(levels, got):
            side = keys >= r if above else keys <= r
            if side.any():
                assert g == values[side].max(), (r, above)
            else:
                assert math.isnan(g), (r, above)


def test_lower_strict_preserves_cap():
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([0.0, 1.0, 1.0])
    out = lower_strict(xs, ys, 0.5)
    assert np.all(np.diff(out) > 0)
    assert np.all(out <= ys + 1e-15)  # only lowers, never raises
    assert out[-1] == ys[-1]


def test_lower_strict_rejects_zero_at_positive_abscissa():
    with pytest.raises(ValueError, match="cannot strictify"):
        lower_strict(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]), 0.1)


def test_bisect_root_finds_cosine_zero():
    root = bisect_root(math.cos, 0.0, 3.0)
    assert root == pytest.approx(math.pi / 2, abs=1e-10)


def test_bisect_root_ftol_returns_matching_endpoint():
    fn = lambda t: t - 0.75
    assert bisect_root(fn, 0.7, 1.0, ftol=0.1) == 0.7


def test_bisect_root_requires_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        bisect_root(lambda t: 1.0 + t * t, 0.0, 1.0)


def test_identity():
    xs = np.array([0.0, 1.0, 2.0])
    ident = MonotonePL.identity(xs)
    np.testing.assert_allclose(ident(xs), xs)
