"""Formula AST, text parser and boolean semantics.

Formulas are built from kernel-named atoms and past-time temporal operators
with compact intervals.  An atom ``p`` holds at time t when the measurement
``<f_p(.-t), x>`` is nonnegative; the temporal operators quantify over grid
points of the window ``[t-b, t-a]``.

Grammar::

    formula  := or_expr
    or_expr  := and_expr { "or" and_expr }
    and_expr := unary { "and" unary }
    unary    := "not" unary | "once" interval unary | "hist" interval unary
              | since_expr
    since_expr := primary [ "since" interval primary ]
    primary  := "true" | IDENT | "(" formula ")"
    interval := "[" NUMBER "," NUMBER "]"
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDiscreteWindow,
    EmptyInterval,
    FormulaSyntaxError,
    NegativeBound,
    TimeOutOfValidDomain,
    UnknownAtom,
    WindowLargerThanSignal,
)
from .signals import Kernel, Signal, align_signals, correlate

# A kernel table maps atom names to measurement kernels.
KernelTable = dict[str, Kernel]


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo < 0 or self.hi < 0 or not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise NegativeBound(f"interval bounds must be finite and >= 0, got [{self.lo},{self.hi}]")
        if self.lo > self.hi:
            raise EmptyInterval(f"empty interval [{self.lo},{self.hi}]")

    def __str__(self):
        return f"[{_fmt(self.lo)},{_fmt(self.hi)}]"


@dataclass(frozen=True)
class TrueFormula:
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Once:
    interval: Interval
    child: "Formula"


@dataclass(frozen=True)
class Hist:
    interval: Interval
    child: "Formula"


@dataclass(frozen=True)
class Since:
    interval: Interval
    left: "Formula"
    right: "Formula"


Formula = (TrueFormula | Atom | Not | And | Or | Once | Hist | Since)


def _fmt(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def format_formula(phi: Formula) -> str:
    """Render a formula so that ``parse_formula(format_formula(phi)) == phi``."""
    if isinstance(phi, TrueFormula):
        return "true"
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Not):
        return f"not {_fmt_operand(phi.child)}"
    if isinstance(phi, Once):
        return f"once{phi.interval} {_fmt_operand(phi.child)}"
    if isinstance(phi, Hist):
        return f"hist{phi.interval} {_fmt_operand(phi.child)}"
    if isinstance(phi, And):
        return f"{_fmt_operand(phi.left)} and {_fmt_operand(phi.right)}"
    if isinstance(phi, Or):
        return f"{_fmt_operand(phi.left)} or {_fmt_operand(phi.right)}"
    if isinstance(phi, Since):
        return (f"{_fmt_operand(phi.left, primary=True)} since{phi.interval} "
                f"{_fmt_operand(phi.right, primary=True)}")
    raise TypeError(f"not a formula: {phi!r}")


def _fmt_operand(phi: Formula, primary: bool = False) -> str:
    simple = isinstance(phi, (TrueFormula, Atom))
    if simple or (not primary and isinstance(phi, (Not, Once, Hist))):
        return format_formula(phi)
    return f"({format_formula(phi)})"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[\[\](),]))"
)

_KEYWORDS = {"true", "not", "and", "or", "once", "hist", "since"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise FormulaSyntaxError(
                    f"unexpected character {text[at]!r} at position {at}",
                    position=at)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise FormulaSyntaxError(
                f"expected {value!r} at position {pos}, found {text or 'end of input'!r}",
                position=pos, expected=value)

    def fail(self, expected: str):
        kind, text, pos = self.peek()
        raise FormulaSyntaxError(
            f"expected {expected} at position {pos}, found {text or 'end of input'!r}",
            position=pos, expected=expected)

    # grammar ------------------------------------------------------------

    def formula(self) -> Formula:
        node = self.and_expr()
        while self.peek()[1] == "or":
            self.next()
            node = Or(node, self.and_expr())
        return node

    def and_expr(self) -> Formula:
        node = self.unary()
        while self.peek()[1] == "and":
            self.next()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        kind, text, pos = self.peek()
        if text == "not":
            self.next()
            return Not(self.unary())
        if text == "once":
            self.next()
            return Once(self.interval(), self.unary())
        if text == "hist":
            self.next()
            return Hist(self.interval(), self.unary())
        return self.since_expr()

    def since_expr(self) -> Formula:
        node = self.primary()
        if self.peek()[1] == "since":
            self.next()
            iv = self.interval()
            node = Since(iv, node, self.primary())
        return node

    def primary(self) -> Formula:
        kind, text, pos = self.next()
        if text == "true":
            return TrueFormula()
        if text == "(":
            node = self.formula()
            self.expect(")")
            return node
        if kind == "ident" and text not in _KEYWORDS:
            return Atom(text)
        self.i -= 1
        self.fail("an atom, 'true' or '('")

    def interval(self) -> Interval:
        self.expect("[")
        lo = self.number()
        self.expect(",")
        hi = self.number()
        self.expect("]")
        return Interval(lo, hi)

    def number(self) -> float:
        kind, text, pos = self.next()
        if kind != "num":
            self.i -= 1
            self.fail("a number")
        return float(text)


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST; raises FormulaSyntaxError on bad input."""
    parser = _Parser(text)
    node = parser.formula()
    kind, tok, pos = parser.peek()
    if kind != "eof":
        raise FormulaSyntaxError(
            f"unexpected trailing input {tok!r} at position {pos}", position=pos)
    return node


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    severity: str = "error"   # "error" | "warning"


def validate(phi: Formula, kt: KernelTable) -> list[Diagnostic]:
    """Check atoms against the kernel table and flag non-approximable nodes.

    Unknown atoms are errors.  ``Since`` nodes and explicit ``true`` nodes
    get warnings: both are monitorable, but the frequency-response pipeline
    rejects them.
    """
    out: list[Diagnostic] = []

    def walk(node: Formula) -> None:
        if isinstance(node, TrueFormula):
            out.append(Diagnostic(
                "TrueNotApproximable",
                "explicit 'true' has unbounded robustness and no "
                "finite-series frequency response", "warning"))
        elif isinstance(node, Atom):
            if node.name not in kt:
                out.append(Diagnostic(
                    "UnknownAtom", f"atom {node.name!r} not in kernel table"))
        elif isinstance(node, Not):
            walk(node.child)
        elif isinstance(node, (And, Or)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (Once, Hist)):
            walk(node.child)
        elif isinstance(node, Since):
            out.append(Diagnostic(
                "SinceNotGfrfSupported",
                "'since' is excluded from the frequency-response pipeline; "
                "enable operator-space sampling to approximate it", "warning"))
            walk(node.left)
            walk(node.right)
        else:
            raise TypeError(f"not a formula: {node!r}")

    walk(phi)
    return out


# ---------------------------------------------------------------------------
# Boolean semantics
# ---------------------------------------------------------------------------

def _window_offsets(interval: Interval, dt: float) -> tuple[int, int]:
    """Index offsets (oa, ob) so the window at index k is [k-ob, k-oa].

    The discrete window is kept inside the continuous one: the lower time
    bound rounds up, the upper rounds down.
    """
    oa = math.ceil(interval.lo / dt - 1e-9)
    ob = math.floor(interval.hi / dt + 1e-9)
    return oa, ob


def _atom_bool(kernel: Kernel, x: Signal) -> Signal:
    y = correlate(kernel, x)
    return y.with_samples((y.samples >= 0.0).astype(float))


def boolean_signal(phi: Formula, x: Signal, kt: KernelTable) -> Signal:
    """Satisfaction (1.0/0.0) of ``phi`` at every sample of its valid domain.

    Direct recursive evaluation of the boolean semantics; window
    quantifiers are brute-force scans, which keeps this routine independent
    of the optimized robustness monitor so it can serve as its oracle.
    """
    if isinstance(phi, TrueFormula):
        return x.with_samples(np.ones(len(x)))
    if isinstance(phi, Atom):
        if phi.name not in kt:
            raise UnknownAtom(f"atom {phi.name!r} not in kernel table")
        return _atom_bool(kt[phi.name], x)
    if isinstance(phi, Not):
        u = boolean_signal(phi.child, x, kt)
        return u.with_samples(1.0 - u.samples)
    if isinstance(phi, (And, Or)):
        u, v = align_signals(boolean_signal(phi.left, x, kt),
                             boolean_signal(phi.right, x, kt))
        op = np.minimum if isinstance(phi, And) else np.maximum
        return u.with_samples(op(u.samples, v.samples))
    if isinstance(phi, (Once, Hist)):
        u = boolean_signal(phi.child, x, kt)
        oa, ob = _window_offsets(phi.interval, u.dt)
        _check_window(oa, ob, phi.interval, u)
        truth = u.samples >= 0.5
        n = len(u)
        out = np.empty(n - ob)
        for k in range(ob, n):
            win = truth[k - ob: k - oa + 1]
            out[k - ob] = win.any() if isinstance(phi, Once) else win.all()
        return Signal(u.t0 + ob * u.dt, u.dt, out.astype(float))
    if isinstance(phi, Since):
        u, v = align_signals(boolean_signal(phi.left, x, kt),
                             boolean_signal(phi.right, x, kt))
        oa, ob = _window_offsets(phi.interval, u.dt)
        _check_window(oa, ob, phi.interval, u)
        pu = u.samples >= 0.5
        pv = v.samples >= 0.5
        n = len(u)
        out = np.empty(n - ob)
        for k in range(ob, n):
            sat = False
            # phi1 must hold on every grid point in (j, k]; maintained
            # incrementally while j walks from k-oa down to k-ob.
            ok = bool(pu[k - oa + 1: k + 1].all())
            for j in range(k - oa, k - ob - 1, -1):
                if pv[j] and ok:
                    sat = True
                    break
                ok = ok and bool(pu[j])
            out[k - ob] = sat
        return Signal(u.t0 + ob * u.dt, u.dt, out.astype(float))
    raise TypeError(f"not a formula: {phi!r}")


def _check_window(oa: int, ob: int, interval: Interval, u: Signal) -> None:
    if oa > ob:
        raise EmptyDiscreteWindow(
            f"interval {interval} contains no grid point at dt={u.dt}")
    if ob >= len(u):
        raise WindowLargerThanSignal(
            f"window {interval} longer than the available signal")


def boolean_sat(phi: Formula, x: Signal, t: float, kt: KernelTable) -> bool:
    """Boolean satisfaction of ``phi`` by ``x`` at time ``t``."""
    sig = boolean_signal(phi, x, kt)
    pos = (t - sig.t0) / sig.dt
    k = int(math.floor(pos + 0.5))
    if abs(pos - k) > 1e-6 or k < 0 or k >= len(sig):
        raise TimeOutOfValidDomain(
            f"t={t} outside the valid domain [{sig.t0}, {sig.t_end}]")
    return bool(sig.samples[k] >= 0.5)
