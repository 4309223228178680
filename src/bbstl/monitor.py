"""Robust semantics as a signal-to-signal operator.

The robustness of a formula is computed bottom-up over the AST: atoms are
kernel correlations, boolean connectives are pointwise min/max, and the
temporal operators are windows over ``[t-b, t-a]``.  ``once``/``hist`` take
a sliding extremum; ``since`` follows the bounded recursion max over t' of
min(rho2(t'), min over (t', t] of rho1), an associative (max, min) scan
(Donze, Ferrere and Maler, "Efficient Robust Monitoring for STL", CAV
2013).  All three run on one sparse-table doubling pass, O(N log W) numpy
work for a window of W samples.  Every kernel only selects sample values
with min and max, so its output equals a brute-force scan of the same
windows bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from .signals import Signal, align_signals, correlate, write_csv


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

    Sparse-table doubling: after passes with spans 1, 2, 4, ..., ``y[i]``
    is the extremum of ``x[i : i+s]`` for the largest power of two ``s``
    not above the window length ``w``; a window of ``w`` samples is then
    the extremum of two overlapping spans, ``y[i]`` and ``y[i+w-s]``.
    That is floor(log2 w) + 1 vectorised passes.
    """
    f = np.maximum if mode == "max" else np.minimum
    w = ob - oa + 1
    m = len(x) - ob
    y, s = x[:len(x) - oa], 1
    while 2 * s <= w:
        y = f(y[:-s], y[s:])
        s *= 2
    return f(y[:m], y[w - s: w - s + m])


def _output_offsets(interval: Interval | tuple[float, float],
                    u: Signal) -> tuple[int, int]:
    """Window offsets (oa, ob) of ``interval`` on ``u``'s grid.

    Raises when the discrete window is empty or leaves fewer than two
    output samples.
    """
    if not isinstance(interval, Interval):
        interval = Interval(*interval)
    oa, ob = _window_offsets(interval, u.dt)
    _check_window(oa, ob, interval, u)
    if len(u) - ob < 2:
        raise WindowLargerThanSignal(
            f"window {interval} leaves fewer than two output samples")
    return oa, ob


def sliding_extremum(u: Signal, interval: Interval | tuple[float, float],
                     mode: str) -> Signal:
    """y(t) = extremum of ``u`` over ``[t-b, t-a]``.

    Runs in O(N log W) vectorised numpy work for a window of W samples
    (see ``_window_extremum``).  Produces exactly the same values as a
    brute-force scan of the window: min and max only select sample
    values, never combine them.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    oa, ob = _output_offsets(interval, u)
    out = _window_extremum(u.samples, oa, ob, mode)
    return Signal(u.t0 + ob * u.dt, u.dt, out)


def _since_window(r1: np.ndarray, r2: np.ndarray, w: int) -> np.ndarray:
    """out[m-w] = max over j in [m-w, m] of min(r2[j], min r1 over (j, m]),
    for m in [w, len(r1)).

    Sparse-table doubling on a pair: after passes with spans 1, 2, 4, ...,
    ``mn[i]`` is the minimum of ``r1`` over ``[i, i+s)`` and ``z[i]`` the
    since value at that span's end.  Two adjacent spans join as
    ``z = max(z_right, min(z_left, mn_right))``.  A window of ``w+1``
    samples is covered by a trailing span and a leading span of length
    ``s`` (overlapping is harmless, max is idempotent); the leading one is
    carried to the window end through the minimum of ``r1`` over the
    samples after it.
    """
    m = len(r1) - w
    z, mn, s = r2, r1, 1
    while 2 * s <= w + 1:
        z = np.maximum(z[s:], np.minimum(z[:-s], mn[s:]))
        mn = np.minimum(mn[:-s], mn[s:])
        s *= 2
    out = z[w + 1 - s: w + 1 - s + m]
    if s == w + 1:
        return out
    lead = np.minimum(z[:m], _window_extremum(r1[s:], 0, w - s, "min"))
    return np.maximum(out, lead)


def since_robustness(rho1: Signal, rho2: Signal,
                     interval: Interval | tuple[float, float]) -> Signal:
    """Bounded-since recursion over two robustness signals.

    For each t: max over grid t' in [t-b, t-a] of
    min(rho2(t'), min over grid t'' in (t', t] of rho1(t'')).  An empty
    inner window (t' == t) contributes +inf so rho2 governs the value.

    The inner minimum is split at ``t-a``: y(t) = min(A(t), z(t-a)), where
    A is the sliding minimum of rho1 over (t-a, t] (+inf when a = 0) and z
    is ``since`` over ``[0, b-a]``.  Both are sparse-table doubling passes,
    O(N log W) for a window of W samples (see ``_since_window``).  Only min
    and max of sample values are taken, so the result is exact.
    """
    if not rho1.same_grid(rho2):
        raise GridMismatch("since operands are not on a common grid")
    u, v = align_signals(rho1, rho2)
    oa, ob = _output_offsets(interval, u)
    n = len(u)
    out = _since_window(u.samples[:n - oa], v.samples[:n - oa], ob - oa)
    if oa > 0:
        out = np.minimum(out, _window_extremum(u.samples, 0, oa - 1, "min")
                         [ob - oa + 1:])
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
    except WindowLargerThanSignal as exc:
        raise SignalTooShortForFormula(str(exc)) from exc
    return RobustnessSignal(sig)


def save_robustness_csv(rho: RobustnessSignal, path) -> None:
    write_csv(path, ["t", "rho"], [rho.times, rho.samples])


def save_verdict_csv(rho: RobustnessSignal, path) -> None:
    write_csv(path, ["t", "sat"], [rho.times, (rho.samples >= 0).astype(int)])
