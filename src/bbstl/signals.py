"""Sampled signals, measurement kernels and spectral primitives.

Continuous-time objects are represented by uniform sampling: a signal is a
start time ``t0``, a step ``dt`` and a vector of samples, and every integral
becomes a ``dt``-weighted sum.  The Fourier transform follows the
continuous-time convention (forward scaled by ``dt``, inverse by
``domega / 2*pi``) so that numeric spectra approximate
``X(w) = integral x(t) exp(-i w t) dt``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadRange,
    CutoffAboveNyquist,
    DomainMismatch,
    NonPositiveStd,
    NonUniformGrid,
    SignalShorterThanKernel,
    TruncationTooNarrow,
    WindowOutOfDomain,
)

# Relative slack used when snapping times to grid indices.  Grid arithmetic
# accumulates O(1 ulp) error per operation; 1e-9 of a step is far above that
# and far below half a step.
_GRID_EPS = 1e-9


def _snap_index(value: float) -> int:
    """Round an index-valued float that should be (near) integer."""
    return int(math.floor(value + 0.5))


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled real-valued function on a bounded interval.

    ``samples[k]`` is the value at ``t0 + k*dt``.  Instances are immutable;
    the sample buffer is marked read-only so views can be shared freely.
    """

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if self.dt <= 0:
            raise BadRange(f"dt must be positive, got {self.dt}")
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise BadRange("a signal needs at least 2 samples")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __eq__(self, other):
        if not isinstance(other, Signal):
            return NotImplemented
        return (self.t0 == other.t0 and self.dt == other.dt
                and np.array_equal(self.samples, other.samples))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def t_end(self) -> float:
        return self.t0 + (len(self) - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))

    @property
    def nyquist(self) -> float:
        """Angular Nyquist frequency pi/dt in rad/s."""
        return math.pi / self.dt

    def index_of(self, t: float) -> int:
        """Grid index of time ``t``, which must sit on the grid."""
        pos = (t - self.t0) / self.dt
        k = _snap_index(pos)
        if abs(pos - k) > _GRID_EPS * max(1.0, abs(pos)) + _GRID_EPS:
            raise DomainMismatch(f"time {t} is not on the sampling grid")
        if k < 0 or k >= len(self):
            raise WindowOutOfDomain(f"time {t} outside [{self.t0}, {self.t_end}]")
        return k

    def with_samples(self, samples: np.ndarray) -> "Signal":
        return Signal(self.t0, self.dt, samples)

    def same_grid(self, other: "Signal") -> bool:
        if abs(self.dt - other.dt) > _GRID_EPS * self.dt:
            return False
        rel = (other.t0 - self.t0) / self.dt
        return abs(rel - round(rel)) < _GRID_EPS * max(1.0, abs(rel)) + _GRID_EPS


def align_signals(a: Signal, b: Signal) -> tuple[Signal, Signal]:
    """Restrict two signals sharing a grid to their common time span."""
    if not a.same_grid(b):
        raise DomainMismatch("signals are not on a common sampling grid")
    t0 = max(a.t0, b.t0)
    t1 = min(a.t_end, b.t_end)
    if t1 - t0 < a.dt:
        raise DomainMismatch("signals have no usable common time span")
    ka = _snap_index((t0 - a.t0) / a.dt)
    kb = _snap_index((t0 - b.t0) / b.dt)
    n = _snap_index((t1 - t0) / a.dt) + 1
    return (
        Signal(a.t0 + ka * a.dt, a.dt, a.samples[ka: ka + n]),
        Signal(b.t0 + kb * b.dt, b.dt, b.samples[kb: kb + n]),
    )


# ---------------------------------------------------------------------------
# Measurement kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """Measurement filter ``f`` with discrete L1 norm at most 1.

    The sampled form lives on its own grid (same ``dt`` as the signals it
    will measure, grid-aligned start).  Gaussian kernels additionally carry
    an analytic transfer function ``F{G(mu,s)}(w) = exp(-i mu w - s^2 w^2/2)``
    for the unit-area idealization; table kernels fall back to the discrete
    transform of their samples.
    """

    kind: str                      # "gaussian" | "table"
    grid: Signal                   # sampled values of f on its support
    l1_norm: float
    mean: float = 0.0
    std: float = 0.0
    truncation_radius: float = 0.0

    def __post_init__(self):
        if self.l1_norm > 1.0 + 1e-9:
            raise BadRange(f"kernel L1 norm {self.l1_norm} exceeds 1")

    @property
    def support(self) -> tuple[float, float]:
        return (self.grid.t0, self.grid.t_end)

    @property
    def radius(self) -> float:
        """Half-width bound of the support around zero."""
        lo, hi = self.support
        return max(abs(lo), abs(hi))

    def transfer(self, omega) -> np.ndarray:
        """Fourier transform F{f}(omega), continuous convention."""
        w = np.asarray(omega, dtype=float)
        if self.kind == "gaussian":
            out = np.exp(-1j * self.mean * w - 0.5 * (self.std * w) ** 2)
        else:
            t = self.grid.times
            out = self.grid.dt * (
                self.grid.samples[None, :]
                * np.exp(-1j * np.outer(w.ravel(), t))
            ).sum(axis=1)
            out = out.reshape(w.shape)
        return out

    def measurement_transfer(self, omega) -> np.ndarray:
        """Transfer of the measurement process x -> <f(.-t), x>.

        The measurement is the convolution x * f(-.), whose transfer is
        F{f}(-omega) (the conjugate of F{f}(omega) for real f).
        """
        return self.transfer(-np.asarray(omega, dtype=float))

    def negated(self) -> "Kernel":
        return Kernel("table", self.grid.with_samples(-self.grid.samples),
                      self.l1_norm)


def table_kernel(grid: Signal) -> Kernel:
    """Wrap a sampled filter as a kernel, rejecting L1 norms above 1."""
    l1 = float(grid.dt * np.abs(grid.samples).sum())
    return Kernel("table", grid, l1)


def make_gaussian_kernel(mean: float, std: float, truncation_radius: float,
                         dt: float) -> Kernel:
    """Sampled Gaussian measurement kernel with exact discrete L1 norm 1.

    The support is truncated to ``[mean - r, mean + r]`` (``r`` at least
    ``4*std`` so the lost tail mass is negligible) and the samples are
    rescaled so ``dt * sum |f| == 1`` exactly.
    """
    if std <= 0:
        raise NonPositiveStd(f"std must be positive, got {std}")
    if dt <= 0:
        raise BadRange(f"dt must be positive, got {dt}")
    if truncation_radius < 4 * std:
        raise TruncationTooNarrow(
            f"truncation radius {truncation_radius} < 4*std = {4 * std}")
    j0 = _snap_index((mean - truncation_radius) / dt)
    j1 = _snap_index((mean + truncation_radius) / dt)
    if j1 - j0 < 2:
        raise TruncationTooNarrow("kernel support shorter than 3 samples")
    t = dt * np.arange(j0, j1 + 1)
    values = np.exp(-0.5 * ((t - mean) / std) ** 2)
    values /= dt * np.abs(values).sum()
    return Kernel("gaussian", Signal(j0 * dt, dt, values), 1.0,
                  mean=mean, std=std, truncation_radius=truncation_radius)


def _kernel_index_span(f: Kernel) -> tuple[int, int]:
    """Grid index offsets (j0, j1) of the kernel support relative to t=0."""
    j0 = _snap_index(f.grid.t0 / f.grid.dt)
    return j0, j0 + len(f.grid) - 1


def measure(f: Kernel, x: Signal, t: float) -> float:
    """Single measurement ``dt * sum_k f(tau_k - t) x(tau_k)``.

    ``t`` must lie on the grid of ``x`` and the shifted kernel support must
    fit inside the signal domain.
    """
    if abs(f.grid.dt - x.dt) > _GRID_EPS * x.dt:
        raise DomainMismatch("kernel and signal use different sampling steps")
    k = x.index_of(t)
    j0, j1 = _kernel_index_span(f)
    if k + j0 < 0 or k + j1 >= len(x):
        raise WindowOutOfDomain(
            f"kernel window around t={t} leaves the signal domain")
    window = x.samples[k + j0: k + j1 + 1]
    return float(x.dt * np.dot(f.grid.samples, window))


def correlate(f: Kernel, x: Signal) -> Signal:
    """Measurement signal ``y(t) = <f(.-t), x>`` on its valid sub-domain."""
    if abs(f.grid.dt - x.dt) > _GRID_EPS * x.dt:
        raise DomainMismatch("kernel and signal use different sampling steps")
    m = len(f.grid)
    if m + 1 > len(x):
        raise SignalShorterThanKernel(
            f"signal has {len(x)} samples, kernel needs {m + 1}")
    j0, _ = _kernel_index_span(f)
    values = x.dt * np.correlate(x.samples, f.grid.samples, mode="valid")
    return Signal(x.t0 - j0 * x.dt, x.dt, values)


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """Complex spectrum on a uniform angular-frequency grid.

    ``bins[k]`` approximates X(omega0 + k*domega).  ``t0`` records the time
    origin of the originating signal so the transform is invertible.
    """

    omega0: float
    domega: float
    bins: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=complex).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "bins", arr)

    def __len__(self) -> int:
        return self.bins.size

    @property
    def omegas(self) -> np.ndarray:
        return self.omega0 + self.domega * np.arange(len(self))


def fft(x: Signal) -> Spectrum:
    """Forward transform with bins ordered from -Nyquist to +Nyquist."""
    n = len(x)
    raw = np.fft.fftshift(np.fft.fft(x.samples))
    omegas = 2 * math.pi * np.fft.fftshift(np.fft.fftfreq(n, d=x.dt))
    bins = x.dt * np.exp(-1j * omegas * x.t0) * raw
    return Spectrum(float(omegas[0]), float(omegas[1] - omegas[0]), bins,
                    t0=x.t0)


def ifft(spec: Spectrum) -> Signal:
    """Inverse of :func:`fft`; returns a real signal."""
    n = len(spec)
    omegas = spec.omegas
    raw = np.fft.ifftshift(spec.bins * np.exp(1j * omegas * spec.t0))
    dt = 2 * math.pi / (n * spec.domega)
    values = np.fft.ifft(raw) / dt
    return Signal(spec.t0, dt, values.real)


def lowpass(x: Signal, cutoff: float) -> Signal:
    """Keep the DFT bins of x with |omega| <= cutoff, zero the rest.

    Bin k of an N-sample signal sits at 2*pi*k / (N*dt) rad/s
    (``np.fft.rfftfreq``), and the band keeps bins -K..K, where K is the
    last bin at or below ``cutoff``, symmetric in +-k; the Nyquist bin of
    an even N counts once, as in ``np.fft.rfft``.  Cutoff 0 keeps the DC
    bin alone and gives the mean.  Zeroing bins is circular convolution
    with the band's Dirichlet kernel

        d[j] = sin(pi*(2K+1)*j/N) / (N*sin(pi*j/N)),   d[0] = (2K+1)/N,

    computed as a linear convolution through real FFTs of a 5-smooth size
    >= 2N - 1 whose tail is folded back, so no transform has length N and
    the cost is O(N log N) for any N.  The result does not depend on t0.
    """
    if not cutoff >= 0:
        raise BadRange(f"cutoff must be a nonnegative frequency, got {cutoff}")
    if cutoff >= x.nyquist:
        raise CutoffAboveNyquist(
            f"cutoff {cutoff} outside [0, {x.nyquist}) rad/s")
    n = len(x)
    kept = np.count_nonzero(2 * math.pi * np.fft.rfftfreq(n, x.dt) <= cutoff)
    # kept = K + 1; bins -K..K are 2K + 1, or all n when the band of an
    # even n reaches its Nyquist bin
    width = min(2 * kept - 1, n)
    # d is even, d[n - h] = d[h]: evaluate h = 1..n//2 and mirror the rest
    h = np.arange(1, n // 2 + 1)
    # the numerator's angle pi*s/n, folded in integers into [-pi/2, pi/2]
    # so that it stays exact; sin(pi*h/n) needs no folding
    s = n - width * h % (2 * n)                # sin(pi - a) = sin(a)
    a = np.abs(s)
    half = (np.copysign(np.sin(math.pi / n * np.minimum(a, n - a)), s)
            / (n * np.sin(math.pi / n * h)))
    kernel = np.concatenate(([width / n], half, half[:(n - 1) // 2][::-1]))
    size = _smooth_size(2 * n - 1)
    full = np.fft.irfft(np.fft.rfft(x.samples, size)
                        * np.fft.rfft(kernel, size), size)
    y = full[:n]
    y[:n - 1] += full[n: 2 * n - 1]
    return x.with_samples(y)


def _smooth_size(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length the FFT handles fast."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


# ---------------------------------------------------------------------------
# Test-signal generation and the measurement metric
# ---------------------------------------------------------------------------

def sum_of_sinusoids(seed: int, num_terms: int, freq_range: tuple[float, float],
                     amp_bound: float, domain: tuple[float, float],
                     dt: float) -> Signal:
    """Deterministic random combination of sinusoids.

    Draws ``num_terms`` angular frequencies in ``freq_range`` and phases in
    ``[0, 2*pi)``; amplitudes are scaled so ``sum |a_j| == amp_bound``, which
    also bounds the sup norm of the generated signal.
    """
    k = np.arange(grid_length(domain, dt))
    return Signal(domain[0], dt, sinusoid_samples(
        seed, num_terms, freq_range, amp_bound, domain[0], dt, k))


def grid_length(domain: tuple[float, float], dt: float) -> int:
    """Number of samples at step ``dt`` on ``domain``, both ends included."""
    if domain[1] <= domain[0]:
        raise BadRange("empty time domain")
    return int(round((domain[1] - domain[0]) / dt)) + 1


def sinusoid_samples(seed: int, num_terms: int,
                     freq_range: tuple[float, float], amp_bound: float,
                     t0: float, dt: float, k: np.ndarray) -> np.ndarray:
    """The ``sum_of_sinusoids`` draw of ``seed`` at the times t0 + dt*k.

    On a domain starting at ``t0`` it gives the samples with indices ``k``
    of ``sum_of_sinusoids``, bit for bit, without computing the others.
    """
    lo, hi = freq_range
    nyq = math.pi / dt
    if not (0 < lo <= hi < nyq):
        raise BadRange(
            f"freq_range {freq_range} must lie within (0, {nyq}) rad/s")
    if amp_bound <= 0:
        raise BadRange("amp_bound must be positive")
    t = t0 + dt * np.asarray(k)
    values = np.zeros(t.shape)
    if num_terms > 0:
        rng = np.random.default_rng(seed)
        freqs = rng.uniform(lo, hi, size=num_terms)
        phases = rng.uniform(0.0, 2 * math.pi, size=num_terms)
        amps = rng.uniform(0.1, 1.0, size=num_terms)
        amps *= amp_bound / amps.sum()
        for a, w, p in zip(amps, freqs, phases):
            values += a * np.sin(w * t + p)
    return values


def default_metric_dictionary(dt: float,
                              stds=(0.02, 0.04, 0.08, 0.16)) -> list[Kernel]:
    """Gaussian dictionary (closed under negation) for the signal metric."""
    kernels = []
    for s in stds:
        g = make_gaussian_kernel(0.0, s, 5.0 * s, dt)
        kernels.append(g)
        kernels.append(g.negated())
    return kernels


def metric_d(x: Signal, y: Signal, dictionary: list[Kernel] | None = None,
             shifts: np.ndarray | None = None) -> float:
    """Largest dictionary measurement of the difference ``x - y``.

    A finite-dictionary lower bound on the supremum over all unit-L1
    filters.  With a negation-closed dictionary the value is nonnegative,
    symmetric, and satisfies the triangle inequality.
    """
    if not x.same_grid(y) or len(x) != len(y):
        raise DomainMismatch("metric requires signals on the same grid")
    if dictionary is None:
        dictionary = default_metric_dictionary(x.dt)
    if not dictionary:
        raise BadRange("metric dictionary is empty")
    diff = x.with_samples(x.samples - y.samples)
    best = -math.inf
    usable = False
    for f in dictionary:
        try:
            meas = correlate(f, diff)
        except SignalShorterThanKernel:
            continue
        if shifts is None:
            values = meas.samples
        else:
            idx = []
            for t in np.atleast_1d(shifts):
                pos = (t - meas.t0) / meas.dt
                k = _snap_index(pos)
                if 0 <= k < len(meas) and abs(pos - k) < 0.5:
                    idx.append(k)
            if not idx:
                continue
            values = meas.samples[idx]
        usable = True
        best = max(best, float(values.max()))
    if not usable:
        raise DomainMismatch("no dictionary kernel fits the signal domain")
    return best


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_signal_csv(path) -> Signal:
    """Read a ``t,value`` CSV, verifying the grid is uniform (rel. 1e-6).

    Blank lines are skipped and fields after the second ignored; a row
    that is not two numbers raises BadRange naming the file and its line.
    """
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    header = next(csv.reader(lines[:1]), [])
    if [c.strip().lower() for c in header[:2]] != ["t", "value"]:
        raise NonUniformGrid(f"{path}: expected header 't,value'")
    rows = lines[1:]
    try:
        # np.loadtxt warns on input with no data lines
        pairs = _read_pairs(rows) if any(rows) else np.empty((0, 2))
    except ValueError:
        k = next(k for k, line in enumerate(rows, 2)
                 if line and not _is_pair(line))
        raise BadRange(f"{path}: line {k} is not a 't,value' row of two "
                       f"numbers: {lines[k - 1]!r}") from None
    if len(pairs) < 2:
        raise NonUniformGrid(f"{path}: need at least two samples")
    t, values = pairs.T
    steps = np.diff(t)
    dt = float(np.median(steps))
    if dt <= 0 or np.any(np.abs(steps - dt) > 1e-6 * dt):
        raise NonUniformGrid(f"{path}: sampling grid is not uniform")
    return Signal(float(t[0]), dt, values)


def _read_pairs(lines: list[str]) -> np.ndarray:
    """The first two comma-separated numbers of every non-blank line,
    shape (n, 2)."""
    return np.loadtxt(lines, delimiter=",", usecols=(0, 1), ndmin=2,
                      comments=None)


def _is_pair(line: str) -> bool:
    try:
        _read_pairs([line])
    except ValueError:
        return False
    return True


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns as CSV, one row per index.

    Values are written as ``repr`` of their Python form (the shortest
    round-tripping text of a float), in the ``csv`` module's default
    dialect: comma separated, nothing needing quotes, ``\\r\\n`` line ends.
    """
    cols = [map(repr, np.asarray(c).tolist()) for c in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cols)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def complex_columns(z: np.ndarray) -> list[np.ndarray]:
    """re, im and abs columns of complex values; abs is ``np.hypot``, which
    gives the same bits as ``abs`` of a numpy complex scalar."""
    return [z.real, z.imag, np.hypot(z.real, z.imag)]


def save_signal_csv(x: Signal, path) -> None:
    write_csv(path, ["t", "value"], [x.times, x.samples])


def save_spectrum_csv(spec: Spectrum, path) -> None:
    write_csv(path, ["omega", "re", "im", "abs"],
              [spec.omegas, *complex_columns(spec.bins)])


def kernel_from_spec(spec: dict, dt: float, base_dir=".") -> Kernel:
    """Build a kernel from its JSON description.

    Gaussian kernels are sampled at ``dt``; table kernels are loaded from
    the referenced ``t,value`` CSV file.
    """
    kind = spec.get("type")
    if kind == "gaussian":
        return make_gaussian_kernel(float(spec["mean"]), float(spec["std"]),
                                    float(spec["truncation_radius"]), dt)
    if kind == "table":
        grid = load_signal_csv(Path(base_dir) / spec["file"])
        return table_kernel(grid)
    raise BadRange(f"unknown kernel type {kind!r}")


def load_kernel_table(path, dt: float) -> dict[str, Kernel]:
    """Load a named kernel table from a JSON list of kernel specs."""
    path = Path(path)
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("kernels", [])
    table = {}
    for spec in data:
        name = spec.get("name")
        if not name or name in table:
            raise BadRange(f"kernel table entries need unique names: {name!r}")
        table[name] = kernel_from_spec(spec, dt, base_dir=path.parent)
    return table
