"""Output checks that stay independent of the code they check.

- ``brute_robustness`` evaluates robust semantics by direct window scans:
  atoms as dot products with the kernel samples, ``once``/``hist`` as the
  max/min of every window, and ``since`` by walking the lag outward with a
  running minimum.  It shares no code with ``bbstl.monitor``.
- ``brute_lowpass`` zeroes the real-FFT bins above the cut-off.
- ``hyperplane_sum`` computes one bin of the order-2 output spectrum as the
  literal sum over w1 + w2 = w, with no convolution and no per-slot
  factoring.
- ``Reference`` compares a built GFRF, its grids and its cut-off against the
  values recorded in ``reference.json``.

Every check raises ``Mismatch`` with a one-line reason.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Mismatch(Exception):
    """An operation's output disagrees with its check."""


def window_offsets(lo: float, hi: float, dt: float) -> tuple[int, int]:
    """Grid offsets (oa, ob) of the window [t-hi, t-lo], kept inside it."""
    return math.ceil(lo / dt - 1e-9), math.floor(hi / dt + 1e-9)


def brute_robustness(phi, x, kt, bbstl) -> tuple[int, np.ndarray]:
    """Robustness of ``phi`` as (index of its first sample in x, values)."""
    logic = bbstl.logic
    dt = x.dt
    if isinstance(phi, logic.Atom):
        f = kt[phi.name].grid.samples
        j0 = round(kt[phi.name].grid.t0 / dt)
        return -j0, dt * (sliding_window_view(x.samples, len(f)) @ f)
    if isinstance(phi, logic.Not):
        start, v = brute_robustness(phi.child, x, kt, bbstl)
        return start, -v
    if isinstance(phi, (logic.And, logic.Or, logic.Since)):
        (s1, v1), (s2, v2) = (brute_robustness(phi.left, x, kt, bbstl),
                              brute_robustness(phi.right, x, kt, bbstl))
        start = max(s1, s2)
        n = min(s1 + len(v1), s2 + len(v2)) - start
        v1, v2 = v1[start - s1: start - s1 + n], v2[start - s2: start - s2 + n]
        if isinstance(phi, logic.And):
            return start, np.minimum(v1, v2)
        if isinstance(phi, logic.Or):
            return start, np.maximum(v1, v2)
        oa, ob = window_offsets(phi.interval.lo, phi.interval.hi, dt)
        # out[k] = max over lags L in [oa, ob] of
        #          min(rho2[k-L], min of rho1 over (k-L, k])
        k = np.arange(ob, n)
        inner = np.full(len(k), np.inf)
        out = np.full(len(k), -np.inf)
        for lag in range(0, ob + 1):
            if lag > 0:
                inner = np.minimum(inner, v1[k - lag + 1])
            if lag >= oa:
                out = np.maximum(out, np.minimum(v2[k - lag], inner))
        return start + ob, out
    if isinstance(phi, (logic.Once, logic.Hist)):
        start, v = brute_robustness(phi.child, x, kt, bbstl)
        oa, ob = window_offsets(phi.interval.lo, phi.interval.hi, dt)
        windows = sliding_window_view(v, ob - oa + 1)[: len(v) - ob]
        ext = windows.max(axis=1) if isinstance(phi, logic.Once) \
            else windows.min(axis=1)
        return start + ob, ext
    raise Mismatch(f"oracle has no rule for {phi!r}")


def check_robustness(rho, x, expected: tuple[int, np.ndarray],
                     truth=None) -> None:
    """Compare a robustness signal with the brute-force values, and its
    sign with a boolean satisfaction signal away from ties."""
    start, values = expected
    t0 = x.t0 + start * x.dt
    got = np.asarray(rho.samples)
    if len(got) != len(values) or abs(rho.t0 - t0) > 1e-6 * x.dt:
        raise Mismatch(f"domain t0={rho.t0} n={len(got)}, "
                       f"expected t0={t0} n={len(values)}")
    err = float(np.max(np.abs(got - values)))
    if err > 1e-9:
        raise Mismatch(f"robustness differs from window scan by {err:.3g}")
    if truth is not None:
        sat = np.asarray(truth.samples) >= 0.5
        if len(sat) != len(got):
            raise Mismatch("boolean signal covers another domain")
        clear = np.abs(got) > 1e-9
        flips = int(np.count_nonzero((got[clear] >= 0) != sat[clear]))
        if flips:
            raise Mismatch(f"sign disagrees with boolean_signal at {flips} "
                           f"samples")


def brute_lowpass(x, cutoff: float) -> np.ndarray:
    bins = np.fft.rfft(x.samples)
    omegas = 2 * math.pi * np.fft.rfftfreq(len(x), d=x.dt)
    bins[omegas > cutoff] = 0.0
    return np.fft.irfft(bins, n=len(x))


def rel_rms(delta: np.ndarray, reference: np.ndarray) -> float:
    return float(np.sqrt(np.mean(delta ** 2) / np.mean(reference ** 2)))


def hyperplane_sum(g, spec, out_bin: int) -> complex:
    """Order-2 output spectrum at one bin, summed over w1 + w2 = w."""
    n = len(spec)
    zero = n // 2
    i = np.arange(max(0, out_bin + zero - n + 1), min(n, out_bin + zero + 1))
    j = out_bin + zero - i
    om = spec.omegas
    h2 = np.asarray(g.evaluate(2, (om[i], om[j])))
    total = np.sum(h2 * spec.bins[i] * spec.bins[j])
    return complex(total * spec.domega / (2 * math.pi))


def check_spectrum(y, spec, g, bins: np.ndarray, max_order: int) -> None:
    """Order-1 plus order-2 spectrum at ``bins`` against H1 X plus the
    literal hyperplane sum (for max_order 2), or finiteness (higher)."""
    got = np.asarray(y.bins)
    if len(got) != len(spec) or not np.isfinite(got).all():
        raise Mismatch(f"order-{max_order} spectrum has the wrong length or "
                       f"non-finite bins")
    if max_order != 2:
        return
    om = spec.omegas
    scale = float(np.max(np.abs(got))) or 1.0
    for b in bins:
        want = complex(g.evaluate(1, om[b])) * spec.bins[b] \
            + hyperplane_sum(g, spec, int(b))
        if abs(got[b] - want) > 1e-8 * scale:
            raise Mismatch(f"order-2 spectrum bin {b}: {got[b]} != {want}")


def _close(got, want, scale: float, what: str) -> None:
    if abs(complex(got) - complex(*want)) > 1e-9 * scale:
        raise Mismatch(f"{what}: {complex(got)} != {complex(*want)}")


class Reference:
    """Recorded values for one formula at one ``max_order``."""

    def __init__(self, entry: dict):
        self.entry = entry

    def check_build(self, g, max_order: int) -> None:
        want = {int(n): c for n, c in self.entry["term_counts"].items()
                if int(n) <= max_order}
        got = dict(g.term_counts())
        if got != want:
            raise Mismatch(f"term counts {got} != {want}")
        for n, tuples in self.entry["h"].items():
            n = int(n)
            scale = self.entry["coeff_l1"][str(n)]
            for point in tuples:
                value = g.evaluate(n, tuple(point["omega"])) if n > 1 \
                    else g.evaluate(1, point["omega"][0])
                want_value = point["value"] if n <= max_order else (0.0, 0.0)
                _close(value, want_value, scale,
                       f"H{n}{tuple(point['omega'])}")

    def check_grid(self, grid, num_points: int, max_order: int) -> None:
        key = f"{grid.order}x{num_points}"
        values = np.asarray(grid.values)
        if values.shape != (num_points,) * grid.order:
            raise Mismatch(f"grid {key} has shape {values.shape}")
        scale = self.entry["coeff_l1"].get(str(grid.order), 1.0)
        for point in self.entry["grids"][key]:
            want = point["value"] if grid.order <= max_order else (0.0, 0.0)
            _close(values[tuple(point["index"])], want, scale,
                   f"grid {key} at {point['index']}")

    def check_cutoff(self, scan) -> None:
        want = self.entry["omega_star"]
        if abs(scan.omega_star - want) > 1e-12 * max(1.0, abs(want)):
            raise Mismatch(f"omega_star {scan.omega_star} != {want}")
