"""Robust semantics as a signal-to-signal operator.

The robustness of a formula is computed bottom-up over the AST: atoms are
kernel correlations, boolean connectives are pointwise min/max, and the
temporal operators are sliding-window extrema over ``[t-b, t-a]``
(``scipy.ndimage`` min/max filters, O(N) in C).  ``since`` follows the
bounded recursion max over t' of min(rho2(t'), min over (t', t] of rho1),
evaluated in O(N) by a block decomposition (Donze, Ferrere and Maler,
"Efficient Robust Monitoring for STL", CAV 2013).  Every kernel only
selects sample values with min and max, so its output equals a brute-force
scan of the same windows bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .errors import (
    GridMismatch,
    SignalTooShortForFormula,
    UnknownAtom,
    WindowLargerThanSignal,
)
from .logic import (
    And,
    Atom,
    Formula,
    Hist,
    Interval,
    KernelTable,
    Not,
    Once,
    Since,
    TrueFormula,
    Or,
    _check_window,
    _window_offsets,
)
from .signals import Signal, align_signals, correlate


@dataclass(frozen=True)
class RobustnessSignal:
    """Robustness values on the sub-domain where every window fits."""

    signal: Signal

    @property
    def t0(self) -> float:
        return self.signal.t0

    @property
    def dt(self) -> float:
        return self.signal.dt

    @property
    def samples(self) -> np.ndarray:
        return self.signal.samples

    @property
    def times(self) -> np.ndarray:
        return self.signal.times

    def at(self, t: float) -> float:
        return float(self.signal.samples[self.signal.index_of(t)])


def temporal_depth(phi: Formula) -> float:
    """Sum of upper interval bounds along the deepest temporal path."""
    if isinstance(phi, (TrueFormula, Atom)):
        return 0.0
    if isinstance(phi, Not):
        return temporal_depth(phi.child)
    if isinstance(phi, (And, Or)):
        return max(temporal_depth(phi.left), temporal_depth(phi.right))
    if isinstance(phi, (Once, Hist)):
        return phi.interval.hi + temporal_depth(phi.child)
    if isinstance(phi, Since):
        return phi.interval.hi + max(temporal_depth(phi.left),
                                     temporal_depth(phi.right))
    raise TypeError(f"not a formula: {phi!r}")


def max_truncation(phi: Formula, kt: KernelTable) -> float:
    """Largest kernel support half-width among the formula's atoms."""
    radii = [0.0]

    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            if node.name not in kt:
                raise UnknownAtom(f"atom {node.name!r} not in kernel table")
            radii.append(kt[node.name].radius)
        elif isinstance(node, Not):
            walk(node.child)
        elif isinstance(node, (And, Or, Since)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (Once, Hist)):
            walk(node.child)

    walk(phi)
    return max(radii)


def valid_domain(phi: Formula, input_domain: tuple[float, float],
                 kt: KernelTable) -> tuple[float, float]:
    """Time span on which the robustness of ``phi`` is computable."""
    trunc = max_truncation(phi, kt)
    lo = input_domain[0] + temporal_depth(phi) + trunc
    hi = input_domain[1] - trunc
    if hi <= lo:
        raise SignalTooShortForFormula(
            f"signal of duration {input_domain[1] - input_domain[0]} too "
            f"short for temporal depth {temporal_depth(phi)} plus kernel "
            f"radius {trunc}")
    return (lo, hi)


# ---------------------------------------------------------------------------
# Sliding-window extrema
# ---------------------------------------------------------------------------

def _window_extremum(x: np.ndarray, oa: int, ob: int,
                     mode: str) -> np.ndarray:
    """out[k-ob] = extremum of ``x[k-ob : k-oa+1]`` for k in [ob, len(x)).

    The filter centres a window of ``ob-oa+1`` samples on index
    ``k-ob + size//2``; only outputs whose window lies wholly inside ``x``
    are kept, so the filter's boundary mode never reaches the result.
    """
    size = ob - oa + 1
    filt = maximum_filter1d if mode == "max" else minimum_filter1d
    return filt(x, size)[size // 2: size // 2 + len(x) - ob]


def sliding_extremum(u: Signal, interval: Interval | tuple[float, float],
                     mode: str) -> Signal:
    """y(t) = extremum of ``u`` over ``[t-b, t-a]``.

    Uses the ``scipy.ndimage`` min/max filters, O(N) in C whatever the
    window length.  Produces exactly the same values as a brute-force scan
    of the window: the filters only select sample values, never combine
    them.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    if not isinstance(interval, Interval):
        interval = Interval(*interval)
    oa, ob = _window_offsets(interval, u.dt)
    _check_window(oa, ob, interval, u)
    if len(u) - ob < 2:
        raise WindowLargerThanSignal(
            f"window {interval} leaves fewer than two output samples")
    out = _window_extremum(u.samples, oa, ob, mode)
    return Signal(u.t0 + ob * u.dt, u.dt, out)


def _since_window(r1: np.ndarray, r2: np.ndarray, w: int) -> np.ndarray:
    """z[m-w] = max over j in [m-w, m] of min(r2[j], min r1 over (j, m]),
    for m in [w, len(r1)).

    The samples are cut into blocks of ``w+1``, aligned so that the first
    output starts a block; a window then covers a suffix of the previous
    block and a prefix of its own.  Per block, ``z = max(R, min(P, S))``:
    R is the unbounded since restarted at the block start (a recursion run
    across all blocks at once, ``min(w+1, outputs)`` numpy steps), P the
    prefix minimum of ``r1`` and S the suffix max-min of the previous
    block.  The padding before index 0 and after the last sample lies
    outside every window an output reads.
    """
    b = w + 1
    m = len(r1) - w
    nb = -(-m // b)
    # Row 0 is the block before the first output and starts at index -1.
    pad = (1, (nb + 1) * b - len(r1) - 1)
    a1 = np.pad(r1, pad, constant_values=np.inf).reshape(nb + 1, b)
    a2 = np.pad(r2, pad, constant_values=-np.inf).reshape(nb + 1, b)
    # S: in each earlier block, best min(r2[j], min r1 over (j, block end])
    # over j at or after a position; shifted so column p reads from p+1.
    tail = np.full((nb, b), np.inf)
    tail[:, :-1] = np.minimum.accumulate(a1[:-1, :0:-1], axis=1)[:, ::-1]
    s = np.maximum.accumulate(np.minimum(a2[:-1], tail)[:, ::-1],
                              axis=1)[:, ::-1]
    shifted = np.full((nb, b), -np.inf)
    shifted[:, :-1] = s[:, 1:]
    prefix = np.minimum.accumulate(a1[1:], axis=1)
    r = a2[1:].copy()
    tmp = np.empty(nb)
    for p in range(1, min(b, m)):
        np.minimum(r[:, p - 1], a1[1:, p], out=tmp)
        np.maximum(r[:, p], tmp, out=r[:, p])
    return np.maximum(r, np.minimum(prefix, shifted)).ravel()[:m]


def since_robustness(rho1: Signal, rho2: Signal,
                     interval: Interval | tuple[float, float]) -> Signal:
    """Bounded-since recursion over two robustness signals.

    For each t: max over grid t' in [t-b, t-a] of
    min(rho2(t'), min over grid t'' in (t', t] of rho1(t'')).  An empty
    inner window (t' == t) contributes +inf so rho2 governs the value.

    The inner minimum is split at ``t-a``: y(t) = min(A(t), z(t-a)), where
    A is the sliding minimum of rho1 over (t-a, t] (+inf when a = 0) and z
    is ``since`` over ``[0, b-a]``, computed blockwise in O(N) work (see
    ``_since_window``).  Only min and max of sample values are taken, so
    the result is exact.
    """
    if not isinstance(interval, Interval):
        interval = Interval(*interval)
    if not rho1.same_grid(rho2):
        raise GridMismatch("since operands are not on a common grid")
    u, v = align_signals(rho1, rho2)
    oa, ob = _window_offsets(interval, u.dt)
    _check_window(oa, ob, interval, u)
    n = len(u)
    if n - ob < 2:
        raise WindowLargerThanSignal(
            f"window {interval} leaves fewer than two output samples")
    out = _since_window(u.samples[:n - oa], v.samples[:n - oa], ob - oa)
    if oa > 0:
        np.minimum(out, _window_extremum(u.samples, 0, oa - 1, "min")
                   [ob - oa + 1:], out=out)
    return Signal(u.t0 + ob * u.dt, u.dt, out)


# ---------------------------------------------------------------------------
# Robustness of a formula
# ---------------------------------------------------------------------------

def _robustness_signal(phi: Formula, x: Signal, kt: KernelTable) -> Signal:
    if isinstance(phi, TrueFormula):
        return x.with_samples(np.full(len(x), np.inf))
    if isinstance(phi, Atom):
        if phi.name not in kt:
            raise UnknownAtom(f"atom {phi.name!r} not in kernel table")
        return correlate(kt[phi.name], x)
    if isinstance(phi, Not):
        u = _robustness_signal(phi.child, x, kt)
        return u.with_samples(-u.samples)
    if isinstance(phi, (And, Or)):
        u, v = align_signals(_robustness_signal(phi.left, x, kt),
                             _robustness_signal(phi.right, x, kt))
        op = np.minimum if isinstance(phi, And) else np.maximum
        return u.with_samples(op(u.samples, v.samples))
    if isinstance(phi, Once):
        return sliding_extremum(_robustness_signal(phi.child, x, kt),
                                phi.interval, "max")
    if isinstance(phi, Hist):
        return sliding_extremum(_robustness_signal(phi.child, x, kt),
                                phi.interval, "min")
    if isinstance(phi, Since):
        return since_robustness(_robustness_signal(phi.left, x, kt),
                                _robustness_signal(phi.right, x, kt),
                                phi.interval)
    raise TypeError(f"not a formula: {phi!r}")


def robustness(phi: Formula, x: Signal, kt: KernelTable) -> RobustnessSignal:
    """Robustness signal of ``phi`` over ``x`` on its valid domain."""
    valid_domain(phi, (x.t0, x.t_end), kt)   # raises if too short
    try:
        sig = _robustness_signal(phi, x, kt)
    except (WindowLargerThanSignal,) as exc:
        raise SignalTooShortForFormula(str(exc)) from exc
    return RobustnessSignal(sig)


def save_robustness_csv(rho: RobustnessSignal, path) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "rho"])
        for t, v in zip(rho.times, rho.samples):
            writer.writerow([repr(float(t)), repr(float(v))])


def save_verdict_csv(rho: RobustnessSignal, path) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sat"])
        for t, v in zip(rho.times, rho.samples):
            writer.writerow([repr(float(t)), 1 if v >= 0 else 0])
