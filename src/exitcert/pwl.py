"""Monotone piecewise-linear functions on knot tables.

These are the workhorses behind the decrease modulus, the distance
envelopes and the composed decay certificate: everything downstream is
either a knot table or a composition of knot tables.  Inverting a
strictly increasing piecewise-linear function is exact (swap the knot
columns), so the decay certificate never needs iterative root finding.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MonotonePL",
    "sorted_unique",
    "level_max",
    "pwl_min",
    "lift_strict",
    "lower_strict",
    "bisect_root",
]


@dataclass(frozen=True)
class MonotonePL:
    """Non-decreasing piecewise-linear function given by knots (xs, ys).

    xs must be strictly increasing.  Between knots the value is linear;
    outside the knot range it continues with the first/last segment slope.

    A float, numpy scalar or 0-d array is evaluated in plain Python on
    knot lists cached at construction; the result is bit for bit what
    the array path returns for that point.
    """

    xs: np.ndarray
    ys: np.ndarray
    _xl: list = field(init=False, repr=False, compare=False)
    _yl: list = field(init=False, repr=False, compare=False)
    _lo_slope: float = field(init=False, repr=False, compare=False)
    _hi_slope: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("knot arrays must be one-dimensional and equal length")
        if xs.size < 2:
            raise ValueError("need at least two knots")
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise ValueError("knot values must be non-decreasing")
        with np.errstate(over="ignore"):
            slopes = np.diff(ys) / np.diff(xs)
        if not np.all(np.isfinite(slopes)):
            # np.interp and the end-slope extrapolation would return inf
            raise ValueError("a segment slope overflows: knot abscissae too close")
        object.__setattr__(self, "_xl", xs.tolist())
        object.__setattr__(self, "_yl", ys.tolist())
        object.__setattr__(self, "_lo_slope", float(slopes[0]))
        object.__setattr__(self, "_hi_slope", float(slopes[-1]))

    # ------------------------------------------------------------------
    # evaluation

    def __call__(self, r):
        if isinstance(r, float) or np.ndim(r) == 0:
            return self._at(float(r))
        r_arr = np.asarray(r, dtype=float)
        xs, ys = self.xs, self.ys
        out = np.interp(r_arr, xs, ys)
        # extrapolate only outside the knots: a steep end segment times an
        # in-range offset can overflow
        lo, hi = r_arr < xs[0], r_arr > xs[-1]
        out[lo] = ys[0] + self._lo_slope * (r_arr[lo] - xs[0])
        out[hi] = ys[-1] + self._hi_slope * (r_arr[hi] - xs[-1])
        return out

    def _at(self, r: float) -> float:
        """One point, with np.interp's arithmetic and the array path's end rule."""
        xs, ys = self._xl, self._yl
        if r < xs[0]:
            return ys[0] + self._lo_slope * (r - xs[0])
        if r > xs[-1]:
            return ys[-1] + self._hi_slope * (r - xs[-1])
        if r != r:
            return r  # NaN in, NaN out
        j = bisect_right(xs, r) - 1
        if r == xs[j]:
            # an exact knot, the top one included
            return ys[j]
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        out = slope * (r - xs[j]) + ys[j]
        if out != out:
            # 0 * inf on a flat segment wider than the largest float:
            # np.interp retries from the right end, which is then finite
            out = slope * (r - xs[j + 1]) + ys[j + 1]
        return out

    # ------------------------------------------------------------------
    # structure

    @property
    def is_strictly_increasing(self) -> bool:
        return bool(np.all(np.diff(self.ys) > 0))

    def inverse(self) -> "MonotonePL":
        """Exact inverse, obtained by swapping the knot columns.

        Requires strictly increasing values; otherwise the function is
        not injective and there is nothing to invert.
        """
        if not self.is_strictly_increasing:
            raise ValueError("cannot invert: function has a flat segment")
        return MonotonePL(self.ys.copy(), self.xs.copy())

    @classmethod
    def identity(cls, xs: Sequence[float]) -> "MonotonePL":
        arr = np.asarray(xs, dtype=float)
        return cls(arr, arr.copy())


# ----------------------------------------------------------------------
# pointwise minimum of two monotone PL functions


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a, as ``np.unique`` returns them.

    This is the mask ``np.unique`` applies on its sorted path, so the
    result is identical for input without NaN.  ``np.unique`` itself
    imports ``numpy.ma`` on its first call, about 15-25 ms per process.
    """
    a = np.sort(np.ravel(a))
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def pwl_min(f: MonotonePL, g: MonotonePL) -> MonotonePL:
    """Exact pointwise minimum of two non-decreasing PL functions.

    The result is represented on the union of both knot sets plus every
    crossing point, so min(f, g) is itself piecewise linear and exact on
    the merged knot range.  Outside that range it extrapolates its own
    end segments, which may differ from the true minimum if the inputs
    cross again out there; callers keep their arguments in range.
    """
    xs = sorted_unique(np.concatenate([f.xs, g.xs]))
    fv = np.asarray(f(xs), dtype=float)
    gv = np.asarray(g(xs), dtype=float)
    diff = fv - gv

    knots_x = [xs[0]]
    knots_y = [min(fv[0], gv[0])]
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        da, db = diff[i], diff[i + 1]
        if (da > 0 and db < 0) or (da < 0 and db > 0):
            # both functions are linear on [a, b], so the crossing is exact
            xc = a + (b - a) * da / (da - db)
            if a < xc < b:
                knots_x.append(xc)
                knots_y.append(float(f(xc)))
        knots_x.append(b)
        knots_y.append(min(fv[i + 1], gv[i + 1]))

    kx = np.asarray(knots_x)
    ky = np.asarray(knots_y)
    # drop duplicate abscissae that can appear when a crossing lands on a knot
    keep = np.concatenate(([True], np.diff(kx) > 0))
    return MonotonePL(kx[keep], ky[keep])


# ----------------------------------------------------------------------
# level tables


def level_max(levels: np.ndarray, keys: np.ndarray, values: np.ndarray, *, above: bool):
    """The max of values over each level's super- or sub-level set of keys.

    For strictly increasing levels r: max{values : keys >= r} (above) or
    max{values : keys <= r} (not above), NaN where no sample qualifies.
    Bins the samples between levels and takes one running max across the
    bins, with no sort.  Min is the exact negation: min{d : U >= r} is
    -level_max(levels, U, -d, above=True).
    """
    n = len(levels)
    bins = np.searchsorted(levels, keys, side="right" if above else "left")
    best = np.full(n + 1, -np.inf)
    np.maximum.at(best, bins, values)
    hit = np.bincount(bins, minlength=n + 1) > 0
    # level i takes bins i+1..n above, bins 0..i below
    tail = slice(None, 0, -1) if above else slice(None, n)
    out = np.maximum.accumulate(best[tail])
    out[~np.logical_or.accumulate(hit[tail])] = np.nan
    return out[::-1] if above else out


# ----------------------------------------------------------------------
# strictification passes


def lift_strict(xs: np.ndarray, ys: np.ndarray, min_slope: float) -> np.ndarray:
    """Raise values left to right until every segment slope is >= min_slope.

    Only ever increases entries, so an upper envelope stays an upper
    envelope.
    """
    if min_slope <= 0:
        raise ValueError("min_slope must be positive")
    out = np.asarray(ys, dtype=float).copy()
    xs = np.asarray(xs, dtype=float)
    for i in range(1, len(out)):
        floor = out[i - 1] + min_slope * (xs[i] - xs[i - 1])
        if out[i] < floor:
            out[i] = floor
    return out


def lower_strict(xs: np.ndarray, ys: np.ndarray, min_slope: float) -> np.ndarray:
    """Lower values right to left until every segment slope is >= min_slope.

    Only ever decreases entries, so a lower envelope stays a lower
    envelope.  The requested slope is shrunk automatically when honouring
    it would push a positive value to zero or below: the effective slope
    is capped at half the smallest chord y_i / x_i over knots with
    x_i > 0, which keeps every lowered value positive.
    """
    out = np.asarray(ys, dtype=float).copy()
    xs = np.asarray(xs, dtype=float)
    pos = xs > 0
    if not np.any(pos):
        raise ValueError("need at least one knot with positive abscissa")
    chords = out[pos] / xs[pos]
    if np.any(chords <= 0):
        raise ValueError("cannot strictify: zero value at positive abscissa")
    eff = min(min_slope, 0.5 * float(np.min(chords)))
    if eff <= 0:
        raise ValueError("min_slope must be positive")
    for i in range(len(out) - 2, -1, -1):
        cap = out[i + 1] - eff * (xs[i + 1] - xs[i])
        if out[i] > cap:
            out[i] = cap
    return out


# ----------------------------------------------------------------------
# scalar bisection


def bisect_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    ftol: float = 0.0,
) -> float:
    """Find a root of fn on [lo, hi] by bisection.

    fn(lo) and fn(hi) must bracket zero (opposite signs, or one of them
    already a root).  Stops once |fn| <= ftol or the bracket is 1e-12
    wide, or after 200 halvings; returns the midpoint of the final
    bracket.
    """
    flo = fn(lo)
    if flo == 0.0 or abs(flo) <= ftol:
        return lo
    fhi = fn(hi)
    if fhi == 0.0 or abs(fhi) <= ftol:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if abs(fmid) <= ftol or (hi - lo) <= 1e-12:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
