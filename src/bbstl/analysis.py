"""Frequency-domain consumers: output spectra, response grids, cut-off
frequency detection and monitoring-safe compression reports.

The output spectrum of order n is the hyperplane sum over
w_1 + ... + w_n = w of H_n X(w_1)...X(w_n).  Because every stored GFRF term
factors per frequency slot, the sum reorganizes into an (n-1)-fold discrete
convolution of per-slot spectra, which is what this module computes (the
result equals the literal Riemann sum over the FFT grid).  The
convolutions run on the GFRF's slot trie as products in the FFT domain:
each trie node is lifted into it and lowered back at most once, however
many terms share it, and each order is summed there before one last
inverse transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadRange, GridTooLarge, OrderTooHigh
from .logic import Formula, KernelTable
from .monitor import RobustnessSignal, robustness
from .signals import (Signal, Spectrum, _smooth_size, complex_columns,
                      lowpass, write_csv)
from .volterra import Gfrf

MAX_SPECTRUM_ORDER = 4
MAX_GRID_ORDER = 3


@dataclass(frozen=True)
class GfrfGrid:
    """Dense evaluation of one response order on a uniform frequency grid."""

    order: int
    axis: np.ndarray
    values: np.ndarray

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


def output_spectrum(g: Gfrf, spec: Spectrum,
                    max_order: int = 2) -> Spectrum:
    """Predicted spectrum of the operator output for input spectrum X.

    Order 1 is the pointwise product H_1 X; order n >= 2 contributes the
    hyperplane sum evaluated as a chain of grid convolutions of slot
    spectra exp(-i d w) factor(w) X(w), each weighted by domega / (2*pi).
    The convolutions run as products in the FFT domain on the slot trie
    (``SlotTrie.contract``): each trie node is lifted into the FFT domain
    once, however many children extend it, each extended row is lowered
    back once, and the last slot is folded into one lifted row per
    vocabulary entry, so each order ends in a single inverse transform.

    A convolution keeps bins [zero, zero + P) of the full 2P - 1, with
    zero = P // 2.  A circular one of size S wraps bin k + S onto bin k,
    so S >= 2P - 1 - zero leaves the kept bins alias-free and S >= zero +
    P keeps them in range; as 2 * zero >= P - 1, the second implies the
    first, and S is the smallest 5-smooth size meeting it.
    """
    if not 1 <= max_order <= MAX_SPECTRUM_ORDER:
        raise OrderTooHigh(
            f"output spectrum supports orders 1..{MAX_SPECTRUM_ORDER}, "
            f"got {max_order}")
    n_bins = len(spec)
    zero_idx = n_bins // 2
    if abs(spec.omega0 + zero_idx * spec.domega) > 1e-9 * spec.domega + 1e-12:
        raise BadRange("spectrum grid must contain omega = 0")
    weight = spec.domega / (2 * math.pi)
    size = _smooth_size(zero_idx + n_bins)

    def lift(rows: np.ndarray) -> np.ndarray:
        return np.fft.fft(rows, size, axis=1)

    def lower(rows: np.ndarray) -> np.ndarray:
        full = np.fft.ifft(rows, axis=1)
        return full[:, zero_idx: zero_idx + n_bins] * weight

    slots = g.slot_table(spec.omegas) * spec.bins
    # slot 1 enters the chain as it is, slots 2..n lifted
    slots_fft = lift(slots)
    out = np.zeros(n_bins, dtype=complex)
    for order in sorted(g.coeffs):
        if order <= max_order:
            out += g.slot_trie(order).contract(
                [slots] + [slots_fft] * (order - 1), np.multiply, lift, lower)
    return Spectrum(spec.omega0, spec.domega, out, t0=spec.t0)


def gfrf_grid(g: Gfrf, order: int, omega_max: float, num_points: int,
              budget: int = 10 ** 7) -> GfrfGrid:
    """Complex H_order on the dense grid [0, omega_max]^order, contracted on
    the tensor grid (``Gfrf.grid``); ``budget`` caps num_points ** order."""
    if order < 1 or order > MAX_GRID_ORDER:
        raise OrderTooHigh(
            f"dense grids support orders 1..{MAX_GRID_ORDER}, got {order}")
    _check_points(num_points, order, budget)
    axis = np.linspace(0.0, omega_max, num_points)
    return GfrfGrid(order, axis, g.grid(order, axis))


def _check_points(num_points: int, order: int, budget: int) -> None:
    if num_points < 2:
        raise BadRange("grid needs at least two points")
    if num_points ** order > budget:
        raise GridTooLarge(
            f"{num_points}^{order} exceeds the evaluation budget {budget}")


@dataclass(frozen=True)
class CutoffScan:
    omega_star: float
    found: bool
    threshold: float
    axis: np.ndarray
    envelope: np.ndarray          # m(w): worst response magnitude at w

    def to_json(self) -> dict:
        return {
            "omega_star": self.omega_star,
            "omega_star_hz": self.omega_star / (2 * math.pi),
            "found": self.found,
            "threshold": self.threshold,
        }


def cutoff_scan(g: Gfrf, threshold: float, omega_max: float,
                num_points: int = 65, max_order: int = 2,
                budget: int = 10 ** 7) -> CutoffScan:
    """Smallest grid frequency above which every response stays under
    ``threshold``.

    The profile m(w) maximizes |H_n| over orders n <= max_order, the slot
    holding w, and grid choices of the other n-1 frequencies in
    [0, omega_max]; each order's grid is contracted on the tensor grid
    (``Gfrf.grid``).  When no grid point qualifies, the scan reports
    omega_max with ``found=False``.  ``budget`` caps num_points ** n for
    every order n <= max_order the response has, and all of them, like
    ``num_points >= 2``, are checked before any grid is evaluated.
    """
    if threshold <= 0:
        raise BadRange("threshold must be positive")
    if max_order < 1 or max_order > MAX_GRID_ORDER:
        raise OrderTooHigh(
            f"cutoff scan supports orders 1..{MAX_GRID_ORDER}")
    orders = [n for n in range(1, max_order + 1) if n in g.coeffs]
    # num_points ** n grows with n, so the highest order checks them all
    _check_points(num_points, max(orders, default=0), budget)
    axis = np.linspace(0.0, omega_max, num_points)
    envelope = np.zeros(num_points)
    for order in orders:
        mag = np.abs(g.grid(order, axis))
        for slot in range(order):
            other = tuple(ax for ax in range(order) if ax != slot)
            profile = mag.max(axis=other) if other else mag
            envelope = np.maximum(envelope, profile)
    # smallest index i with envelope[i:] all below threshold (NaN is not)
    not_below = np.flatnonzero(~(envelope < threshold))
    idx = int(not_below[-1]) + 1 if not_below.size else 0
    if idx == num_points:
        return CutoffScan(omega_max, False, threshold, axis, envelope)
    return CutoffScan(float(axis[idx]), True, threshold, axis, envelope)


# ---------------------------------------------------------------------------
# Monitoring-safe compression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerances:
    tol_rho: float = 0.05
    eps_tie: float = 1e-12


@dataclass(frozen=True)
class SafetyReport:
    cutoff: float
    signal_rel_diff: float
    rho_rel_diff: float
    rho_max_abs_diff: float
    truth_flip_count: int
    verdict: str                     # "safe" | "unsafe"
    tolerances: Tolerances = field(default=Tolerances())

    def to_json(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "cutoff_hz": self.cutoff / (2 * math.pi),
            "signal_rel_diff": self.signal_rel_diff,
            "rho_rel_diff": self.rho_rel_diff,
            "rho_max_abs_diff": self.rho_max_abs_diff,
            "truth_flip_count": self.truth_flip_count,
            "verdict": self.verdict,
            "tol_rho": self.tolerances.tol_rho,
            "eps_tie": self.tolerances.eps_tie,
        }


def _rel_rms(delta: np.ndarray, reference: np.ndarray) -> float:
    ref = float(np.sqrt(np.mean(reference ** 2)))
    if ref == 0.0:
        return 0.0 if not delta.any() else math.inf
    return float(np.sqrt(np.mean(delta ** 2))) / ref


def compression_safety_report(phi: Formula, x: Signal, cutoff: float,
                              kt: KernelTable,
                              tolerances: Tolerances | None = None,
                              ) -> tuple[SafetyReport, Signal, RobustnessSignal,
                                         RobustnessSignal]:
    """Monitor x and its low-passed version and compare the verdicts.

    The compressed signal is ``lowpass(x, cutoff)``: it keeps the DFT bins
    k of x with 2*pi*k / (N*dt) <= cutoff, symmetric in +-k, through one
    circular convolution with the band's Dirichlet kernel; cutoff 0 keeps
    the DC bin alone, so x is compared with its mean.  Returns the report
    plus the compressed signal and both robustness signals so callers can
    export them.  The compression is safe when the relative robustness
    change stays within tolerance and no truth value flips (ties below
    ``eps_tie`` are ignored).
    """
    tol = tolerances or Tolerances()
    xc = lowpass(x, cutoff)
    rho = robustness(phi, x, kt)
    rho_c = robustness(phi, xc, kt)
    r, rc = rho.samples, rho_c.samples
    flips = int(np.count_nonzero(
        (np.sign(r) != np.sign(rc))
        & (np.abs(r) > tol.eps_tie) & (np.abs(rc) > tol.eps_tie)))
    rho_rel = _rel_rms(r - rc, r)
    report = SafetyReport(
        cutoff=cutoff,
        signal_rel_diff=_rel_rms(x.samples - xc.samples, x.samples),
        rho_rel_diff=rho_rel,
        rho_max_abs_diff=float(np.max(np.abs(r - rc))),
        truth_flip_count=flips,
        verdict="safe" if (rho_rel <= tol.tol_rho and flips == 0) else "unsafe",
        tolerances=tol,
    )
    return report, xc, rho, rho_c


def save_grid_csv(grid: GfrfGrid, path) -> None:
    """CSV export: omega1[,omega2[,omega3]],re,im,abs."""
    mesh = np.meshgrid(*([grid.axis] * grid.order), indexing="ij")
    write_csv(path, [f"omega{i + 1}" for i in range(grid.order)]
              + ["re", "im", "abs"],
              [w.ravel() for w in mesh] + complex_columns(grid.values.ravel()))
