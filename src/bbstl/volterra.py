"""Polynomial-delay approximations of the monitor operators and their GFRFs.

Each temporal operator (window max/min) is approximated by a read-out
polynomial over a fixed set of delayed samples; the coefficients come from
a least-squares fit against the exact operator on generated signals.  The
pointwise binary min/max is approximated separably as ``R(u) + Q(v)`` with
memoryless polynomials.  Both structures have exact Volterra
representations whose kernels are trains of delta impulses, so the n-th
order frequency response is a finite sum of terms

    coeff * exp(-i * sum_j delay_j * w_j) * prod_j factor_j(w_j)

where each factor is unity or a measurement-kernel transfer function.  This
factored exponential-sum form is the toolkit's canonical GFRF
representation; it is closed under operator composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadRange, RankDeficient, UnderdeterminedSystem
from .logic import Interval
from .monitor import sliding_extremum
from .signals import Kernel, Signal, align_signals, correlate, sum_of_sinusoids

UNITY = "unity"


# ---------------------------------------------------------------------------
# Fit configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitConfig:
    """Settings for operator fitting and the formula->GFRF pipeline.

    The defaults document this toolkit's reproduction settings: 30 signals,
    40 sample times each, degree-4 polynomials over 6 delays, and
    single-sinusoid draws from a 0.05..2.5 Hz band at unit amplitude.
    ``ridge`` is a Tikhonov weight applied to the unit-scaled columns; it
    keeps the fitted trig-polynomial coefficients bounded so the frequency
    responses stay meaningful outside the training band.
    """

    num_delays: int = 6
    delays: tuple[float, ...] | None = None
    degree: int = 4
    num_signals: int = 30
    times_per_signal: int = 40
    seed: int = 0
    amp_bound: float = 1.0
    freq_range: tuple[float, float] = (2 * math.pi * 0.05, 2 * math.pi * 2.5)
    num_terms: int = 1
    dt: float = 0.002
    duration: float = 12.0
    ridge: float = 1e-4
    max_order: int = 4

    def to_json(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["freq_range"] = list(self.freq_range)
        if self.delays is not None:
            out["delays"] = list(self.delays)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "FitConfig":
        kwargs = dict(data)
        if "freq_range" in kwargs:
            kwargs["freq_range"] = tuple(kwargs["freq_range"])
        if kwargs.get("delays") is not None:
            kwargs["delays"] = tuple(kwargs["delays"])
        return cls(**kwargs)

    def training_signal(self, index: int, seed_offset: int = 0) -> Signal:
        return sum_of_sinusoids(self.seed * 7919 + seed_offset + index,
                                self.num_terms, self.freq_range,
                                self.amp_bound, (0.0, self.duration), self.dt)


# ---------------------------------------------------------------------------
# Exponent bookkeeping
# ---------------------------------------------------------------------------

def exponent_vectors(num_delays: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors with total degree in 1..degree, (order, lex) sorted.

    The all-zero vector is excluded: the fitted operators map the zero
    signal to zero, so the constant coefficient is pinned at 0.
    """
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], budget: int) -> None:
        if len(prefix) == num_delays:
            if any(prefix):
                out.append(tuple(prefix))
            return
        for r in range(budget + 1):
            rec(prefix + [r], budget - r)

    rec([], degree)
    out.sort(key=lambda r: (sum(r), r))
    return out


# ---------------------------------------------------------------------------
# Fitted operator representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitDiagnostics:
    rows: int
    unknowns: int
    rank: int
    condition: float
    rms_residual: float
    rel_residual: float


@dataclass(frozen=True)
class PolyDelayOperator:
    """Polynomial over delayed samples approximating a window extremum."""

    mode: str                          # "once" | "hist"
    interval: Interval
    delays: tuple[float, ...]
    degree: int
    terms: tuple[tuple[tuple[int, ...], float], ...]   # (exponents, alpha)
    diagnostics: FitDiagnostics | None = None

    @property
    def coefficients(self) -> dict[tuple[int, ...], float]:
        return dict(self.terms)

    def delayed_matrix(self, u: Signal) -> tuple[np.ndarray, Signal]:
        """Samples of u at t - delay_j for every t in the output domain.

        Delays are rounded to grid indices here (time-domain application);
        the returned matrix has shape (num_outputs, num_delays).
        """
        dt = u.dt
        offsets = [int(math.floor(d / dt + 0.5)) for d in self.delays]
        # rounding can push an off-grid endpoint delay one step past the
        # window trim; widen the trim so every column fits
        ob = max(math.floor(self.interval.hi / dt + 1e-9), max(offsets))
        n = len(u)
        cols = [u.samples[ob - o: n - o] for o in offsets]
        out_template = Signal(u.t0 + ob * dt, dt, np.zeros(n - ob))
        return np.column_stack(cols), out_template

    def apply(self, u: Signal) -> Signal:
        sampled, template = self.delayed_matrix(u)
        feats = polynomial_features(sampled, self.exponents())
        values = feats @ np.array([a for _, a in self.terms])
        return template.with_samples(values)

    def exponents(self) -> list[tuple[int, ...]]:
        return [r for r, _ in self.terms]


@dataclass(frozen=True)
class MemorylessPoly:
    """Polynomial acting on the instantaneous signal value; coeffs[k] is
    the weight of value**k (the constant term stays 0 in fitted uses)."""

    coeffs: tuple[float, ...]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(np.asarray(values, dtype=float))
        for k in range(len(self.coeffs) - 1, 0, -1):
            acc = (acc + self.coeffs[k]) * values
        return acc + self.coeffs[0]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class SeparableFit:
    """Separable approximation min/max(u, v) ~ R(u) + Q(v)."""

    mode: str
    r: MemorylessPoly
    q: MemorylessPoly
    rms_residual: float


# ---------------------------------------------------------------------------
# GFRF representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GfrfTerm:
    coeff: float
    delays: tuple[float, ...]
    factors: tuple[str, ...]

    def __post_init__(self):
        if len(self.delays) != len(self.factors):
            raise BadRange("GFRF term needs one factor per delay slot")

    @property
    def order(self) -> int:
        return len(self.delays)


@dataclass
class Gfrf:
    """Multi-order frequency response as sums of factored exponential terms.

    ``orders[n]`` lists the order-n terms; ``atoms`` resolves named factor
    transfer functions.  ``H_n(w_1..w_n)`` evaluates as
    sum of coeff * exp(-i sum d_j w_j) * prod factor_j(w_j).
    """

    h0: float = 0.0
    orders: dict[int, list[GfrfTerm]] = field(default_factory=dict)
    atoms: dict[str, Kernel] = field(default_factory=dict)

    @property
    def max_order(self) -> int:
        live = [n for n, terms in self.orders.items() if terms]
        return max(live) if live else 0

    def term_counts(self) -> dict[int, int]:
        return {n: len(t) for n, t in sorted(self.orders.items()) if t}

    def factor_values(self, name: str, omega: np.ndarray) -> np.ndarray:
        if name == UNITY:
            return np.ones_like(np.asarray(omega, dtype=float),
                                dtype=complex)
        return self.atoms[name].measurement_transfer(omega)

    def evaluate(self, order: int, omegas) -> np.ndarray | complex:
        """Evaluate H_order at frequency tuples (broadcast over arrays)."""
        if order < 1:
            raise BadRange("evaluate handles orders >= 1 (H_0 is .h0)")
        if np.isscalar(omegas) or (isinstance(omegas, np.ndarray)
                                   and order == 1):
            omegas = (omegas,)
        ws = [np.asarray(w, dtype=float) for w in np.broadcast_arrays(
            *[np.asarray(w, dtype=float) for w in omegas])]
        if len(ws) != order:
            raise BadRange(f"order {order} needs {order} frequency axes")
        scalar = ws[0].ndim == 0
        shape = ws[0].shape
        acc = np.zeros(shape, dtype=complex)
        for term in self.orders.get(order, []):
            val = np.full(shape, term.coeff, dtype=complex)
            for d, fac, w in zip(term.delays, term.factors, ws):
                val = val * np.exp(-1j * d * w)
                if fac != UNITY:
                    val = val * self.factor_values(fac, w)
            acc += val
        return complex(acc) if scalar else acc

    def to_json(self) -> dict:
        orders = {}
        for n, terms in sorted(self.orders.items()):
            if not terms:
                continue
            orders[str(n)] = [
                {"coeff": t.coeff, "delays": list(t.delays),
                 "factors": [f if f == UNITY else f"atom:{f}"
                             for f in t.factors]}
                for t in terms
            ]
        return {"h0": self.h0, "orders": orders}

    @classmethod
    def from_json(cls, data: dict, atoms: dict[str, Kernel] | None = None) -> "Gfrf":
        orders: dict[int, list[GfrfTerm]] = {}
        for key, terms in data.get("orders", {}).items():
            n = int(key)
            parsed = []
            for t in terms:
                factors = tuple(
                    UNITY if f == UNITY else f.removeprefix("atom:")
                    for f in t["factors"])
                parsed.append(GfrfTerm(float(t["coeff"]),
                                       tuple(float(d) for d in t["delays"]),
                                       factors))
            orders[n] = parsed
        return cls(float(data.get("h0", 0.0)), orders, dict(atoms or {}))


def evaluate_gfrf(g: Gfrf, order: int, omegas) -> np.ndarray | complex:
    return g.evaluate(order, omegas)


def zero_gfrf() -> Gfrf:
    return Gfrf()


# ---------------------------------------------------------------------------
# Exact GFRFs of the linear operators
# ---------------------------------------------------------------------------

def atom_volterra(f: Kernel, name: str = "atom") -> tuple[Gfrf, "OperatorPipeline"]:
    """Measurement atom: first-order kernel f(-t), all higher orders zero."""
    g = Gfrf(0.0, {1: [GfrfTerm(1.0, (0.0,), (name,))]}, {name: f})
    return g, CorrelateNode(kernel=f, name=name)


def negation_volterra() -> Gfrf:
    """Pointwise negation: H_1 = -1 everywhere."""
    return Gfrf(0.0, {1: [GfrfTerm(-1.0, (0.0,), (UNITY,))]})


def memoryless_poly_gfrf(p: MemorylessPoly) -> Gfrf:
    """Exact GFRF of a memoryless polynomial: H_n is the constant alpha_n."""
    orders = {}
    for n in range(1, len(p.coeffs)):
        if p.coeffs[n] != 0.0:
            orders[n] = [GfrfTerm(p.coeffs[n], (0.0,) * n, (UNITY,) * n)]
    return Gfrf(p.coeffs[0], orders)


def poly_delay_to_gfrf(p: PolyDelayOperator) -> Gfrf:
    """Delta-train expansion of a polynomial-delay operator.

    The exponent vector (r_1..r_D) of order n contributes a single order-n
    term whose delay multiset repeats delay t_j exactly r_j times, in index
    order.
    """
    orders: dict[int, list[GfrfTerm]] = {}
    for exps, alpha in p.terms:
        n = sum(exps)
        delays = []
        for t_j, r_j in zip(p.delays, exps):
            delays.extend([t_j] * r_j)
        orders.setdefault(n, []).append(
            GfrfTerm(alpha, tuple(delays), (UNITY,) * n))
    return Gfrf(0.0, orders)


# ---------------------------------------------------------------------------
# Least-squares fitting
# ---------------------------------------------------------------------------

def polynomial_features(sampled: np.ndarray,
                        exponents: list[tuple[int, ...]]) -> np.ndarray:
    """Monomial features of delayed samples, one column per exponent vector."""
    rows, num_delays = sampled.shape
    degree = max(sum(r) for r in exponents)
    powers = np.ones((degree + 1, rows, num_delays))
    for k in range(1, degree + 1):
        powers[k] = powers[k - 1] * sampled
    feats = np.empty((rows, len(exponents)))
    for ci, r in enumerate(exponents):
        col = np.ones(rows)
        for j, r_j in enumerate(r):
            if r_j:
                col = col * powers[r_j, :, j]
        feats[:, ci] = col
    return feats


def _scaled_lstsq(design: np.ndarray, target: np.ndarray,
                  ridge: float) -> tuple[np.ndarray, int, float]:
    """Column-scaled least squares, optionally ridge-augmented."""
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0] = 1.0
    scaled = design / scale
    if ridge > 0:
        n = scaled.shape[1]
        scaled = np.vstack([scaled, math.sqrt(ridge) * np.eye(n)])
        target = np.concatenate([target, np.zeros(n)])
    coef, _, rank, sv = np.linalg.lstsq(scaled, target, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    return coef / scale, int(rank), cond


def _uniform_delays(interval: Interval, cfg: FitConfig) -> tuple[float, ...]:
    if cfg.delays is not None:
        delays = tuple(float(d) for d in cfg.delays)
        for d in delays:
            if not interval.lo - 1e-12 <= d <= interval.hi + 1e-12:
                raise BadRange(f"delay {d} outside interval {interval}")
        return delays
    if cfg.num_delays < 1:
        raise BadRange("need at least one delay")
    if interval.lo == interval.hi or cfg.num_delays == 1:
        return (interval.lo,)
    return tuple(np.linspace(interval.lo, interval.hi, cfg.num_delays))


def _training_times(valid: tuple[float, float], dt: float,
                    count: int) -> np.ndarray:
    lo, hi = valid
    ts = np.linspace(lo, hi, count)
    return np.round((ts - lo) / dt).astype(int)


def fit_poly_delay(op: str, interval: Interval | tuple[float, float],
                   cfg: FitConfig | None = None) -> PolyDelayOperator:
    """Fit a polynomial-delay model of the window max (``once``) or min
    (``hist``) over ``interval`` by least squares on generated signals.

    The design matrix stacks, for every training signal and sample time,
    the monomials of the delayed samples; targets are the exact sliding
    extremum.  The constant coefficient is excluded (zero response to zero
    input).  Requires more rows than unknowns.
    """
    if op not in ("once", "hist"):
        raise BadRange(f"op must be 'once' or 'hist', got {op!r}")
    if cfg is None:
        cfg = FitConfig()
    if not isinstance(interval, Interval):
        interval = Interval(*interval)
    delays = _uniform_delays(interval, cfg)
    exps = exponent_vectors(len(delays), cfg.degree)
    rows = cfg.num_signals * cfg.times_per_signal
    if rows <= len(exps):
        raise UnderdeterminedSystem(
            f"{rows} rows for {len(exps)} unknowns; add signals or times")
    mode = "max" if op == "once" else "min"
    proto = PolyDelayOperator(op, interval, delays, cfg.degree,
                              tuple((r, 0.0) for r in exps))
    blocks = []
    targets = []
    for ell in range(cfg.num_signals):
        u = cfg.training_signal(ell)
        exact = sliding_extremum(u, interval, mode)
        sampled, template = proto.delayed_matrix(u)
        ks = _training_times((template.t0, template.t_end), u.dt,
                             cfg.times_per_signal)
        blocks.append(sampled[ks])
        targets.append(exact.samples[ks])
    # Features are computed row by row, so one call over the stacked rows
    # gives the same design matrix as one call per signal.
    design = polynomial_features(np.vstack(blocks), exps)
    target = np.concatenate(targets)
    if not np.isfinite(design).all() or np.linalg.norm(design) == 0:
        raise RankDeficient("regression matrix is degenerate")
    coef, rank, cond = _scaled_lstsq(design, target, cfg.ridge)
    if rank == 0:
        raise RankDeficient("regression matrix has rank 0")
    resid = design @ coef - target
    rms = float(np.sqrt(np.mean(resid ** 2)))
    rel = rms / float(np.sqrt(np.mean(target ** 2))) if target.any() else 0.0
    diag = FitDiagnostics(rows=design.shape[0], unknowns=len(exps),
                          rank=rank, condition=cond, rms_residual=rms,
                          rel_residual=rel)
    return PolyDelayOperator(op, interval, delays, cfg.degree,
                             tuple(zip(exps, coef.tolist())), diag)


def fit_separable_minmax(mode: str, degree: int | None = None,
                         cfg: FitConfig | None = None,
                         pairs: list[tuple[Signal, Signal]] | None = None,
                         ) -> SeparableFit:
    """Fit min/max(u, v) ~ R(u(t)) + Q(v(t)) with zero constant terms.

    Training pairs default to independent generator draws; ``pairs``
    overrides them with explicit signals.  The training set is closed
    under swapping (u, v), which makes the fitted R and Q identical for
    these symmetric operators.
    """
    if mode not in ("min", "max"):
        raise BadRange(f"mode must be 'min' or 'max', got {mode!r}")
    if cfg is None:
        cfg = FitConfig()
    degree = cfg.degree if degree is None else degree
    if degree < 1:
        raise BadRange("separable fit needs degree >= 1")
    if pairs is None:
        pairs = [(cfg.training_signal(ell, seed_offset=104729),
                  cfg.training_signal(ell, seed_offset=1299709))
                 for ell in range(cfg.num_signals)]
    us, vs = [], []
    for u_sig, v_sig in pairs:
        ks = np.round(np.linspace(0, len(u_sig) - 1,
                                  cfg.times_per_signal)).astype(int)
        us.append(u_sig.samples[ks])
        vs.append(v_sig.samples[np.minimum(ks, len(v_sig) - 1)])
    u = np.concatenate(us)
    v = np.concatenate(vs)
    uu = np.concatenate([u, v])
    vv = np.concatenate([v, u])
    if uu.size <= 2 * degree:
        raise UnderdeterminedSystem(
            f"{uu.size} rows for {2 * degree} unknowns")
    design = np.column_stack([uu ** k for k in range(1, degree + 1)]
                             + [vv ** k for k in range(1, degree + 1)])
    target = np.maximum(uu, vv) if mode == "max" else np.minimum(uu, vv)
    coef, rank, _ = _scaled_lstsq(design, target, cfg.ridge)
    if rank == 0:
        raise RankDeficient("separable regression matrix has rank 0")
    # the swap-closed training set makes the exact LS solution symmetric;
    # average the halves to remove solver round-off
    sym = 0.5 * (coef[:degree] + coef[degree:])
    coef = np.concatenate([sym, sym])
    rms = float(np.sqrt(np.mean((design @ coef - target) ** 2)))
    r = MemorylessPoly((0.0, *coef[:degree].tolist()))
    q = MemorylessPoly((0.0, *coef[degree:].tolist()))
    return SeparableFit(mode, r, q, rms)


# ---------------------------------------------------------------------------
# Time-domain pipeline (the validation twin of the GFRF)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelateNode:
    kernel: Kernel
    name: str = "atom"


@dataclass(frozen=True)
class NegNode:
    child: "OperatorPipeline"


@dataclass(frozen=True)
class PolyDelayNode:
    op: PolyDelayOperator
    child: "OperatorPipeline"


@dataclass(frozen=True)
class MemorylessNode:
    poly: MemorylessPoly
    child: "OperatorPipeline"


@dataclass(frozen=True)
class SumNode:
    children: tuple["OperatorPipeline", ...]


OperatorPipeline = (CorrelateNode | NegNode | PolyDelayNode | MemorylessNode
                    | SumNode)


def apply_pipeline(node: OperatorPipeline, x: Signal) -> Signal:
    """Evaluate the operator tree on a signal in the time domain."""
    if isinstance(node, CorrelateNode):
        return correlate(node.kernel, x)
    if isinstance(node, NegNode):
        u = apply_pipeline(node.child, x)
        return u.with_samples(-u.samples)
    if isinstance(node, PolyDelayNode):
        return node.op.apply(apply_pipeline(node.child, x))
    if isinstance(node, MemorylessNode):
        u = apply_pipeline(node.child, x)
        return u.with_samples(node.poly(u.samples))
    if isinstance(node, SumNode):
        acc = apply_pipeline(node.children[0], x)
        for child in node.children[1:]:
            acc, extra = align_signals(acc, apply_pipeline(child, x))
            acc = acc.with_samples(acc.samples + extra.samples)
        return acc
    raise TypeError(f"not a pipeline node: {node!r}")
