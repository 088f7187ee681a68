"""Candidate restraint functions and their sampled certificates.

A candidate is a scalar function U together with its smooth pieces; the
limiting gradient set at a point is the set of gradients of the pieces
active there.  Verification samples a band {delta <= U <= sigma} on a
grid and checks the strict Hamiltonian decrease H(x, p0_bar, p) < 0 for
every limiting gradient, then turns the sampled margins into a decrease
modulus m with a safety factor.  All checks are sampled: the certificate
records the resolution it was computed at and makes no claim beyond it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .pwl import MonotonePL, level_max
from .systems import ConfigError, ControlSystem, SingularDynamics, TargetSet, hamiltonian

log = logging.getLogger(__name__)

__all__ = [
    "GridSpec",
    "SmoothPiece",
    "CandidateMrf",
    "DecreaseModulus",
    "violation",
    "PositiveDefinitenessViolation",
    "BandSamples",
    "sample_band",
    "BandCertificate",
    "verify_mrf_band",
    "build_decrease_modulus",
    "check_supersolution",
    "check_weak_petrov",
    "sqrt_rate",
]

# A sample counts as off the target only where d(x) > D_FLOOR: a grid
# point within rounding error of the target boundary is a target point
# as far as floats can tell, and the sign of H there is noise.
D_FLOOR = 1e-12

# Each check keeps at most this many failure records; the counts stay exact.
MAX_RECORDS = 32

# A smooth piece is active where its value is within ACT_TOL of U.
ACT_TOL = 1e-9

# verify_mrf_band walks its grid in blocks of this many rows: its work
# arrays span one block, and only a block's band and failing rows outlive it.
BLOCK_ROWS = 1 << 16

# verify_mrf_band's positive-definiteness check: U > 0 wherever d(x) > POSDEF_D_TOL,
# and U comes within ZERO_LEVEL_TOL of 0 on the collar around the target.
POSDEF_D_TOL = 1e-3
ZERO_LEVEL_TOL = 0.05

# verify_mrf_band's margin table has this many levels from delta to sigma.
N_LEVELS = 9

# build_decrease_modulus keeps the modulus below (1 - ETA) times the margins; 0 < ETA < 1.
ETA = 0.1


# ----------------------------------------------------------------------
# sampling grids


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over an axis-aligned box with common spacing."""

    lower: np.ndarray
    upper: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigError("grid bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConfigError(f"grid bounds {lo.tolist()} and {hi.tolist()} must be finite")
        if not np.all(lo < hi):
            raise ConfigError(
                f"grid upper bounds {hi.tolist()} must exceed lower bounds {lo.tolist()}"
            )
        if not (self.spacing > 0):
            raise ConfigError("grid spacing must be positive")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self) -> list[np.ndarray]:
        out = []
        for lo, hi in zip(self.lower, self.upper):
            n = int(np.floor((hi - lo) / self.spacing + 1e-9)) + 1
            out.append(lo + self.spacing * np.arange(n))
        return out

    def points(self) -> np.ndarray:
        axes = self.axes()
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The rows of ``points()`` at the flat indices idx, bit for bit."""
        axes = self.axes()
        sub = np.unravel_index(idx, [len(ax) for ax in axes])
        return np.stack([ax[i] for ax, i in zip(axes, sub)], axis=-1)

    @property
    def n_points(self) -> int:
        return int(np.prod([len(ax) for ax in self.axes()]))


# ----------------------------------------------------------------------
# candidate functions


@dataclass(frozen=True)
class SmoothPiece:
    """One smooth branch of a candidate: value, gradient, active region.

    All three callables take an (N, dim) block and return (N,), (N, dim)
    and a boolean (N,) mask.  The region predicate should be generous on
    closures (adjacent pieces both active on their shared boundary);
    activity is then confirmed by agreement of the piece value with the
    candidate value.
    """

    name: str
    batch_value: Callable[[np.ndarray], np.ndarray]
    batch_gradient: Callable[[np.ndarray], np.ndarray]
    batch_region: Callable[[np.ndarray], np.ndarray]


@dataclass
class CandidateMrf:
    """Scalar candidate U with limiting gradients from its smooth pieces.

    ``batch_value`` evaluates U on an (N, dim) block; ``value`` evaluates
    it at one point, for the synthesis integrator.  p0_bar is the cost
    multiplier the candidate claims to work with.
    """

    name: str
    value: Callable[[np.ndarray], float]
    batch_value: Callable[[np.ndarray], np.ndarray]
    p0_bar: float
    smooth_pieces: tuple

    def __post_init__(self) -> None:
        if not 0.0 <= self.p0_bar <= 1.0:
            raise ConfigError(f"p0_bar must lie in [0, 1], got {self.p0_bar}")
        if not self.smooth_pieces:
            raise ConfigError("candidate needs at least one smooth piece")

    def u(self, x) -> float:
        """U at one state, an array row or a tuple of floats, passed to ``value`` as given."""
        return float(self.value(x))

    def u_batch(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.batch_value(X), dtype=float)

    def active_masks(self, X: np.ndarray, U: np.ndarray) -> list:
        """One boolean mask over the rows of X per smooth piece.

        A piece is active at x iff x lies in its region and its value is
        within ACT_TOL of U(x); a NaN piece value counts as inactive.
        Piece values are only evaluated on rows inside the region.
        """
        masks = []
        for piece in self.smooth_pieces:
            act = np.array(piece.batch_region(X), dtype=bool)
            sel = np.flatnonzero(act)
            if sel.size:
                pv = np.asarray(piece.batch_value(X.take(sel, axis=0)), dtype=float)
                act[sel] = np.abs(pv - U[sel]) <= ACT_TOL
            masks.append(act)
        return masks

    def active_pieces(self, x: np.ndarray) -> list:
        x = np.asarray(x, dtype=float)
        masks = self.active_masks(x[None], np.array([self.u(x)]))
        return [piece for piece, act in zip(self.smooth_pieces, masks) if act[0]]

    def limiting_gradients(self, x: np.ndarray) -> list:
        """Gradients of all pieces active at x (singleton on smooth points)."""
        x = np.asarray(x, dtype=float)
        grads = [
            np.asarray(p.batch_gradient(x[None]), dtype=float)[0] for p in self.active_pieces(x)
        ]
        if not grads:
            raise ConfigError(
                f"no smooth piece active at x={x.tolist()} (U={self.u(x)}); "
                "check piece regions and ACT_TOL"
            )
        return grads


# ----------------------------------------------------------------------
# decrease modulus


@dataclass(frozen=True)
class DecreaseModulus:
    """Continuous strictly increasing m with m(0) = 0 and m <= sampled margins.

    Wraps a piecewise-linear table; evaluation clamps at zero so that a
    slightly negative query (numerical noise near the target) cannot
    make the reparameterization denominator lose its positivity.
    """

    pl: MonotonePL

    def __call__(self, u):
        val = self.pl(u)
        if isinstance(val, float):
            return max(val, 0.0)
        return np.maximum(val, 0.0, out=val)


def build_decrease_modulus(m_hat_samples: Sequence) -> DecreaseModulus:
    """Turn sampled band margins into a strictly increasing modulus.

    m_hat_samples is a sequence of (level, margin) pairs with positive,
    non-decreasing margins.  The construction lags the margins by one
    sample and scales them by a strictly increasing factor that reaches
    1 at the top sample:

        w_i = (1 - ETA) * m_hat_{i-1} * (1 + (i+1)/n) / 2      (0-based)

    with w_0 built from m_hat_0.  Lagging keeps m below (1 - ETA) times
    the step-constant margin everywhere between samples, not just at
    them, and the scale keeps the knot values strictly increasing even
    where the sampled margins are flat.
    """
    pairs = sorted((float(a), float(b)) for a, b in m_hat_samples)
    if not pairs:
        raise ValueError("need at least one margin sample")
    levels = np.array([p[0] for p in pairs])
    margins = np.array([p[1] for p in pairs])
    if np.any(levels <= 0):
        raise ValueError("margin sample levels must be positive")
    if np.any(np.diff(levels) <= 0):
        raise ValueError("margin sample levels must be distinct")
    if np.any(margins <= 0):
        raise ValueError("cannot build a modulus from non-positive margins")
    if np.any(np.diff(margins) < -1e-12 * np.maximum(margins[:-1], 1.0)):
        raise ValueError("margin samples must be non-decreasing in the level")

    n = len(pairs)
    lagged = np.concatenate(([margins[0]], margins[:-1]))
    scale = (1.0 + np.arange(1, n + 1) / n) / 2.0
    w = (1.0 - ETA) * lagged * scale

    xs = np.concatenate(([0.0], levels))
    ys = np.concatenate(([0.0], w))
    pl = MonotonePL(xs, ys)
    if not pl.is_strictly_increasing:
        raise ValueError("modulus construction produced a flat segment")
    return DecreaseModulus(pl=pl)


# ----------------------------------------------------------------------
# verification records


def violation(kind: str, x, value, p=None, detail: str = "") -> dict:
    """One failure record: ``x`` and ``p`` as lists of floats, ``p`` and ``detail`` when given."""
    out = {"kind": kind, "x": np.atleast_1d(x).astype(float).tolist(), "value": float(value)}
    if p is not None:
        out["p"] = np.atleast_1d(p).astype(float).tolist()
    if detail:
        out["detail"] = detail
    return out


class PositiveDefinitenessViolation(ValueError):
    """The candidate fails positivity off the target or does not vanish on it."""

    def __init__(self, violations: list, total: int):
        self.violations = violations
        self.total = total
        first = violations[0]
        super().__init__(
            f"{total} positive-definiteness violations, worst at x={first['x']} "
            f"({first['kind']}: {first['value']})"
        )


@dataclass(frozen=True)
class BandSamples:
    """Band rows of a grid, in the order given, as verification evaluated them.

    ``rows`` holds each sample's flat index into ``grid`` and ``U`` its
    candidate value.  ``H`` is the worst minimised Hamiltonian over the
    limiting gradients there, ``piece`` the index of the smooth piece
    whose gradient gave it (the earlier piece on ties), and ``n_active``
    the number of active pieces.
    """

    grid: GridSpec
    rows: np.ndarray
    U: np.ndarray
    H: np.ndarray
    piece: np.ndarray
    n_active: np.ndarray

    def __len__(self) -> int:
        return len(self.U)

    def points(self, k) -> np.ndarray:
        """The points of the samples at positions k."""
        return self.grid.rows(self.rows[k])


@dataclass
class BandCertificate:
    """Outcome of a sampled band verification.

    ``samples`` keeps the evaluated band for the supersolution check, and
    ``envelope_tables`` the distance-envelope tables when they were asked
    for; neither is part of ``to_dict``.
    """

    certified: bool
    delta: float
    sigma: float
    margin: float
    worst_h: float
    m_hat_samples: list
    violations: list
    n_band: int
    n_grid: int
    grid: dict
    control_set: list
    constants: dict
    posdef: dict
    notes: list
    samples: BandSamples = field(repr=False, compare=False)
    envelope_tables: Optional[dict] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "delta": self.delta,
            "sigma": self.sigma,
            "margin": self.margin,
            "worst_h": self.worst_h,
            "m_hat_samples": [[a, b] for a, b in self.m_hat_samples],
            "violations": self.violations,
            "n_band": self.n_band,
            "n_grid": self.n_grid,
            "grid": self.grid,
            "control_set": self.control_set,
            "constants": self.constants,
            "posdef": self.posdef,
            "notes": list(self.notes),
        }


# ----------------------------------------------------------------------
# batch helpers


def _in_band(U: np.ndarray, D: np.ndarray, delta: float, sigma: float) -> np.ndarray:
    return (U >= delta) & (U <= sigma) & (D > D_FLOOR)


def sample_band(
    system: ControlSystem,
    mrf: CandidateMrf,
    grid: GridSpec,
    rows: np.ndarray,
    U: np.ndarray,
) -> tuple[BandSamples, float]:
    """Evaluate H at every limiting gradient of the grid rows given.

    U is the candidate at those rows.  Each (row, active piece) pair is
    evaluated once.  Raises SingularDynamics where an active piece's
    gradient or H is not finite.  Returns the samples and the largest
    sampled gradient norm.
    """
    X = grid.rows(rows)
    worst = np.full(len(X), -np.inf)
    piece = np.zeros(len(X), dtype=np.int8)
    n_active = np.zeros(len(X), dtype=np.uint8)
    max_p = 0.0
    for k, (pc, act) in enumerate(zip(mrf.smooth_pieces, mrf.active_masks(X, U))):
        idx = np.flatnonzero(act)
        if idx.size == 0:
            continue
        Xa = X.take(idx, axis=0)
        P = np.asarray(pc.batch_gradient(Xa), dtype=float)
        Hp = hamiltonian(system, Xa, mrf.p0_bar, P)
        # whole-array checks first: the row mask is built only to name a bad row
        if not (np.isfinite(Hp).all() and np.isfinite(P).all()):
            finite = np.isfinite(Hp) & np.isfinite(P).all(axis=1)
            bad = Xa[np.argmin(finite)]
            raise SingularDynamics(bad, f"gradient of piece {pc.name} non-finite")
        # einsum rounds each row's squared norm as np.linalg.norm(P, axis=1) does
        max_p = max(max_p, float(np.sqrt(np.max(np.einsum("ij,ij->i", P, P)))))
        n_active[idx] += 1
        win = Hp > worst[idx]
        worst[idx[win]] = Hp[win]
        piece[idx[win]] = k
    if not n_active.all():
        bad = X[np.argmin(n_active)]
        raise ConfigError(
            f"no active smooth piece at band point x={bad.tolist()}; "
            "check piece regions and ACT_TOL"
        )
    return BandSamples(grid, rows, U, worst, piece, n_active), max_p


def _winning_gradients(
    mrf: CandidateMrf, samples: BandSamples, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The points of the samples at positions k and the gradients of their winning pieces."""
    X = samples.points(k)
    P = np.zeros_like(X)
    for i, piece in enumerate(mrf.smooth_pieces):
        sel = samples.piece[k] == i
        if np.any(sel):
            P[sel] = piece.batch_gradient(X[sel])
    return X, P


def _estimate_semiconcavity(mrf: CandidateMrf, samples: BandSamples) -> float:
    """Sampled upper-quadratic constant: positive part of second differences.

    About 256 evenly strided probes where exactly one piece is active
    compare U one half spacing along each axis with its first-order
    expansion.
    """
    k = np.arange(0, len(samples), max(1, len(samples) // 256))
    k = k[samples.n_active[k] == 1]
    X, P = _winning_gradients(mrf, samples, k)
    U0 = samples.U[k]
    h = 0.5 * samples.grid.spacing
    worst = 0.0
    for ax in range(X.shape[1]):
        shifted = X.copy()
        shifted[:, ax] += h
        q = (mrf.u_batch(shifted) - U0 - P[:, ax] * h) / h**2
        q = q[np.isfinite(q)]
        if q.size:
            worst = max(worst, float(np.max(q)))
    return worst


# ----------------------------------------------------------------------
# band verification


def verify_mrf_band(
    system: ControlSystem,
    target: TargetSet,
    mrf: CandidateMrf,
    delta: float,
    sigma: float,
    grid: GridSpec,
    *,
    margin: float = 0.0,
    envelope_levels: Optional[np.ndarray] = None,
) -> BandCertificate:
    """Sample the band {delta <= U <= sigma} and certify strict H-decrease.

    Checks, in order: positive definiteness of U off the target and
    smallness of U on a collar around it (raises
    PositiveDefinitenessViolation on failure, since nothing downstream
    is meaningful then); an escape-to-boundary proxy for properness;
    H(x, p0_bar, p) < -margin for every limiting gradient at every band
    sample.  The sampled margins are aggregated into the level table
    m_hat(level) = -max{H : U >= level}, non-decreasing by construction.

    Band membership requires d(x) > D_FLOOR.  The grid is walked in
    blocks of BLOCK_ROWS rows, so memory grows with the band, not the
    grid; the result does not depend on the block size.

    Given envelope_levels (strictly increasing and positive), the same
    walk records the raw tables of the distance envelopes over the usable
    samples (U >= 0): ``d_min_above`` = min{d : U >= r} over those off
    the target and ``d_max_below`` = max{d : U <= r} over all of them,
    NaN where no sample qualifies, with the counts ``n_usable`` and
    ``n_off_target``.  ``synthesis.build_sigma_envelopes`` reads them.
    """
    if not 0 < delta < sigma:
        raise ConfigError(f"need 0 < delta < sigma, got delta={delta}, sigma={sigma}")
    if grid.dim != system.state_dim:
        raise ConfigError("grid dimension does not match the system")

    notes: list[str] = []
    n_grid = grid.n_points
    half = 0.5 * grid.spacing
    collar_d = POSDEF_D_TOL + 2.0 * grid.spacing

    # --- one pass over U and d, block by block -----------------------------
    # Each block leaves only reductions and its failing and band rows.  An
    # error raised by U or d propagates at once; a non-finite U is raised
    # after the pass, so that an error of d in a later block comes first.
    # Then come the positive-definiteness checks, and only after them is
    # the band evaluated.
    nonfinite = None
    min_off = touch = None
    touch_i = n_collar = 0
    posdef_rows, proper_rows, band_rows = [], [], []
    if envelope_levels is not None:
        neg_d_min = np.full(len(envelope_levels), np.nan)
        d_max = np.full(len(envelope_levels), np.nan)
        n_usable = n_off_target = 0
    for start in range(0, n_grid, BLOCK_ROWS):
        idx = np.arange(start, min(start + BLOCK_ROWS, n_grid))
        X = grid.rows(idx)
        U = mrf.u_batch(X)
        D = target.d_many(X)
        if nonfinite is None and not np.all(np.isfinite(U)):
            nonfinite = X[np.argmin(np.isfinite(U))]
        if nonfinite is not None:
            continue

        off = D > POSDEF_D_TOL
        bad = off & (U <= 0.0)
        posdef_rows.append((idx[bad], U[bad], D[bad]))
        if np.any(off):
            m = float(np.min(U[off]))
            min_off = m if min_off is None else min(min_off, m)

        collar = np.flatnonzero(D <= collar_d)
        if collar.size:
            gap = np.maximum(U[collar], 0.0)
            j = int(np.argmin(gap))
            if touch is None or gap[j] < touch:  # the first minimum in grid order
                touch, touch_i = float(gap[j]), int(idx[collar[j]])
            n_collar += collar.size

        face = np.zeros(len(X), dtype=bool)
        for ax in range(grid.dim):
            face |= X[:, ax] <= grid.lower[ax] + half
            face |= X[:, ax] >= grid.upper[ax] - half
        escaped = face & off & (U > 0.0) & (U <= sigma)
        proper_rows.append((idx[escaped], U[escaped]))

        band = _in_band(U, D, delta, sigma)
        band_rows.append((idx[band], U[band]))

        if envelope_levels is not None:
            # Rows are keyed rather than filtered.  Above: rows on the target
            # get the key -inf and land in bin 0, which no level takes, as do
            # rows with U < 0, since every level is positive.  Below: rows
            # with U < 0 get +inf, past every level.  Block tables merge with
            # fmax, so NaN stays "no sample".  The block's points are freed
            # first, so that the tables' work fits in the memory they held.
            del X, idx
            usable = U >= 0.0
            off = D > D_FLOOR
            n_usable += int(np.count_nonzero(usable))
            n_off_target += int(np.count_nonzero(usable & off))
            above = level_max(envelope_levels, np.where(off, U, -np.inf), -D, above=True)
            below = level_max(envelope_levels, np.where(usable, U, np.inf), D, above=False)
            neg_d_min = np.fmax(neg_d_min, above)
            d_max = np.fmax(d_max, below)
    if nonfinite is not None:
        raise SingularDynamics(nonfinite, "candidate value non-finite")

    # --- positive definiteness -------------------------------------------
    # Records are ordered by one argsort over the failing rows in grid
    # order, the same input, and so the same order among ties, as a
    # whole-grid pass would sort.
    bad_idx, bad_u, bad_d = (np.concatenate(part) for part in zip(*posdef_rows))
    if bad_idx.size:
        k = np.argsort(bad_u)[:MAX_RECORDS]
        records = [
            violation("positive_definiteness", x, u, detail=f"d={d}")
            for x, u, d in zip(grid.rows(bad_idx[k]), bad_u[k], bad_d[k])
        ]
        raise PositiveDefinitenessViolation(records, int(bad_idx.size))

    posdef: dict = {"d_tol": POSDEF_D_TOL, "u_tol": ZERO_LEVEL_TOL, "min_u_off_target": min_off}
    if n_collar:
        posdef["collar_touch"] = touch
        posdef["n_collar"] = n_collar
        if touch > ZERO_LEVEL_TOL:
            rec = violation(
                "zero_level_gap",
                grid.rows(np.array([touch_i]))[0],
                touch,
                detail=f"U does not come within {ZERO_LEVEL_TOL} of 0 near the target",
            )
            raise PositiveDefinitenessViolation([rec], 1)
    else:
        posdef["collar_touch"] = None
        notes.append("no grid samples in the target collar; zero-level check skipped")

    # --- properness proxy -------------------------------------------------
    esc_idx, esc_u = (np.concatenate(part) for part in zip(*proper_rows))
    k = np.argsort(esc_u)[:MAX_RECORDS]
    violations = [
        violation("properness", x, u, detail="sub-level set reaches the sampling box boundary")
        for x, u in zip(grid.rows(esc_idx[k]), esc_u[k])
    ]

    # --- Hamiltonian decrease on the band ----------------------------------
    # The band rows of each grid block are evaluated as one block.  The
    # margin table m_hat(level) = -max{H : U >= level} merges the blocks'
    # level maxima with fmax, so NaN stays "no sample".
    n_band = sum(len(idx) for idx, _ in band_rows)
    if n_band == 0:
        raise ConfigError(
            f"no grid samples in the band [{delta}, {sigma}]; refine the grid or widen the band"
        )
    levels = np.linspace(delta, sigma, N_LEVELS)
    top_h = np.full(N_LEVELS, np.nan)
    columns: list = [[], [], [], [], []]  # rows, U, H, piece, n_active
    max_p = 0.0
    for idx, u in band_rows:
        block, p = sample_band(system, mrf, grid, idx, u)
        max_p = max(max_p, p)
        top_h = np.fmax(top_h, level_max(levels, block.U, block.H, above=True))
        for col, part in zip(columns, (block.rows, block.U, block.H, block.piece, block.n_active)):
            col.append(part)
    del band_rows, block
    # column by column: a column's blocks are freed as soon as it is joined
    samples = BandSamples(grid, *[np.concatenate(columns.pop(0)) for _ in range(5)])
    H = samples.H

    worst_h = float(np.max(H))
    hot = H >= -margin
    if np.any(hot):
        idx = np.where(hot)[0]
        rows = idx[np.argsort(-H[idx])][:MAX_RECORDS]
        # only the recorded rows: the record carries the winning piece's gradient
        X, P = _winning_gradients(mrf, samples, rows)
        violations += [violation("hamiltonian", x, h, p=p) for x, h, p in zip(X, H[rows], P)]
        if len(idx) > MAX_RECORDS:
            notes.append(f"{int(hot.sum())} hamiltonian violations, first {MAX_RECORDS} recorded")

    # --- margin table -------------------------------------------------------
    m_hat_samples: list[tuple[float, float]] = []
    for lev, m in zip(levels, -top_h):
        if np.isnan(m):
            notes.append(f"no band samples at or above level {lev}; level skipped")
            continue
        m_hat_samples.append((float(lev), float(m)))

    # --- constants ------------------------------------------------------------
    rho_hat = _estimate_semiconcavity(mrf, samples)
    constants = {
        "L": 1.5 * max_p if max_p > 0 else 1.0,
        "rho": 1.5 * rho_hat if rho_hat > 0 else 0.0,
    }

    certified = (
        not violations
        and bool(m_hat_samples)
        and all(m > margin for _, m in m_hat_samples)
    )
    cert = BandCertificate(
        certified=certified,
        delta=delta,
        sigma=sigma,
        margin=margin,
        worst_h=worst_h,
        m_hat_samples=m_hat_samples,
        violations=violations,
        n_band=n_band,
        n_grid=n_grid,
        grid={
            "lower": grid.lower.tolist(),
            "upper": grid.upper.tolist(),
            "spacing": grid.spacing,
            "n_points": n_grid,
        },
        control_set=[list(map(float, a)) for a in system.control_set],
        constants=constants,
        posdef=posdef,
        notes=notes,
        samples=samples,
        envelope_tables=None if envelope_levels is None else {
            "levels": envelope_levels,
            "d_min_above": -neg_d_min,
            "d_max_below": d_max,
            "n_usable": n_usable,
            "n_off_target": n_off_target,
        },
    )
    log.info(
        "band verification of %s on [%g, %g]: %s (worst H %.3g over %d samples)",
        mrf.name,
        delta,
        sigma,
        "certified" if certified else "NOT certified",
        worst_h,
        n_band,
    )
    return cert


# ----------------------------------------------------------------------
# supersolution check


def check_supersolution(
    mrf: CandidateMrf,
    modulus: DecreaseModulus,
    samples: BandSamples,
) -> dict:
    """Check H(x, p0_bar, grad U(x)) <= -m(U(x)) at differentiability points.

    Works from the band as ``sample_band`` evaluated it: where exactly
    one piece is active, the sample's worst H is that piece's H, so the
    margin is H + m(U).  Samples where several pieces are active are
    skipped and counted; the inequality there is the band certificate's
    job.  The samples' columns are read in place, not copied.  Failures
    are recorded piece by piece, then in sample order, and gradients are
    evaluated only at the recorded ones.  A check that reaches no sample
    fails: it certifies nothing.  Returns the report: ``passed``,
    ``n_points``, ``n_checked``, ``n_skipped``, ``worst_margin`` (NaN
    when nothing was checked) and the ``failures`` records.
    """
    single = samples.n_active == 1
    n_checked = int(np.count_nonzero(single))
    margins = modulus(samples.U)
    margins += samples.H
    bad = np.flatnonzero((margins > 0.0) & single)
    k = bad[np.argsort(samples.piece[bad], kind="stable")][:MAX_RECORDS]
    X, P = _winning_gradients(mrf, samples, k)
    failures = [violation("supersolution", x, m, p=p) for x, m, p in zip(X, margins[k], P)]
    worst = np.max(margins, where=single, initial=-np.inf)

    return {
        "passed": not failures and n_checked > 0,
        "n_points": len(samples),
        "n_checked": n_checked,
        "n_skipped": len(samples) - n_checked,
        "worst_margin": float(worst) if n_checked else float("nan"),
        "failures": failures,
    }


# ----------------------------------------------------------------------
# weak Petrov condition


# A Petrov margin above PETROV_TOL fails.  verify's weak-decrease check runs
# with the rate sqrt_rate on 0 < d < PETROV_DELTA, and the composed
# candidate's p0_bar.  PETROV_DELTA stays <= 1, where the gauge is 2 sqrt(r).
PETROV_TOL = 1e-9
PETROV_DELTA = 1.0
PETROV_P0_BAR = 0.5


def sqrt_rate(r: np.ndarray) -> np.ndarray:
    """The decrease rate min(sqrt(r), 1); its gauge is 2 sqrt(r) below r = 1."""
    return np.minimum(np.sqrt(np.maximum(r, 0.0)), 1.0)


def check_weak_petrov(system: ControlSystem, target: TargetSet, points: np.ndarray) -> dict:
    """Check the directional decrease of d and the candidate it induces.

    For minimum-time problems (l identically 1) with the rate
    mu = sqrt_rate: checks min_a <p, f(x,a)> <= -mu(d(x)) for the limiting
    gradients p of the distance at sample points with
    0 < d < PETROV_DELTA, and the Hamiltonian margin -(1 - PETROV_P0_BAR)
    of the composed candidate phi(d(.)) at the same points.  The gauge
    phi(r), the integral of 1/mu from 0 to r, is 2 sqrt(r) in closed form,
    since mu(r) = sqrt(r) for r <= PETROV_DELTA <= 1; the margin uses its
    gradient q/mu(d).  A pair fails when either margin exceeds PETROV_TOL.
    A check that reaches no sample point fails.  Returns the report:
    ``ok``, ``n_checked``, ``worst_eq_slack`` and ``worst_h_margin`` (NaN
    when nothing was checked), the gauge as ``phi_knots`` [xs, ys] at
    decade levels below PETROV_DELTA and in ten steps across the top
    decade, and the ``failures`` records.
    """
    if target.distance_gradients is None:
        raise ConfigError("target must provide distance gradients")

    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]

    # the construction is for minimum-time problems: l must be identically 1
    for a in system.control_set:
        L = np.asarray(system.batch_lagrangian(X, a), dtype=float)
        off = ~(np.abs(L - 1.0) <= 1e-9)
        if np.any(off):
            i = int(np.argmax(off))
            raise ConfigError(f"running cost must be identically 1, got {L[i]} at x={X[i].tolist()}")

    # Python's float power, not numpy's array power, which rounds 1e-5 down
    knots_x = [0.0] + [PETROV_DELTA * 10.0 ** (-k) for k in range(12, 0, -1)]
    knots_x += np.linspace(PETROV_DELTA / 10.0, PETROV_DELTA, 10)[1:].tolist()
    knots_y = (2.0 * np.sqrt(knots_x)).tolist()

    # directional decrease of the distance at every (point, gradient) pair
    D = target.d_many(X)
    sel = np.flatnonzero((D > D_FLOOR) & (D < PETROV_DELTA))
    rows, grads, rates = [], [], []
    for i in sel:
        mu_r = float(sqrt_rate(D[i]))
        for q in target.distance_gradients(X[i]):
            rows.append(i)
            grads.append(q)
            rates.append(mu_r)
    n_checked = len(sel)
    worst_slack = worst_h = float("nan")
    failures: list[dict] = []
    if rows:
        Xq = X[rows]
        Q = np.asarray(grads, dtype=float).reshape(Xq.shape)
        mu_q = np.asarray(rates)
        Qmu = Q / mu_q[:, None]
        # with p0 = 0 the Hamiltonian is min_a <q, f(x, a)>
        slack = hamiltonian(system, Xq, 0.0, Q) + mu_q
        h_marg = hamiltonian(system, Xq, PETROV_P0_BAR, Qmu) + (1.0 - PETROV_P0_BAR)
        worst_slack = float(np.max(slack))
        worst_h = float(np.max(h_marg))
        for j in np.flatnonzero((slack > PETROV_TOL) | (h_marg > PETROV_TOL)):
            if slack[j] > PETROV_TOL and len(failures) < MAX_RECORDS:
                failures.append(violation("petrov_decrease", Xq[j], slack[j], p=Q[j]))
            if h_marg[j] > PETROV_TOL and len(failures) < MAX_RECORDS:
                failures.append(violation("petrov_hamiltonian", Xq[j], h_marg[j], p=Qmu[j]))
            if len(failures) >= MAX_RECORDS:
                break

    return {
        "ok": not failures and n_checked > 0,
        "n_checked": n_checked,
        "worst_eq_slack": worst_slack if np.isfinite(worst_slack) else float("nan"),
        "worst_h_margin": worst_h if np.isfinite(worst_h) else float("nan"),
        "phi_knots": [knots_x, knots_y],
        "failures": failures,
    }
