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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRange, RankDeficient, UnderdeterminedSystem
from .logic import Interval
from .monitor import sliding_extremum
from .signals import (
    Kernel,
    Signal,
    align_signals,
    correlate,
    grid_length,
    sinusoid_samples,
    sum_of_sinusoids,
)

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
        return sum_of_sinusoids(*self._draw(index, seed_offset),
                                (0.0, self.duration), self.dt)

    def training_samples(self, index: int, seed_offset: int,
                         k: np.ndarray) -> np.ndarray:
        """``training_signal(index, seed_offset).samples[k]``, computing
        only those samples."""
        return sinusoid_samples(*self._draw(index, seed_offset), 0.0,
                                self.dt, k)

    def _draw(self, index: int, seed_offset: int) -> tuple:
        return (self.seed * 7919 + seed_offset + index, self.num_terms,
                self.freq_range, self.amp_bound)


# ---------------------------------------------------------------------------
# Exponent bookkeeping
# ---------------------------------------------------------------------------

def exponent_vectors(num_delays: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors with total degree in 1..degree, (order, lex) sorted.

    The all-zero vector is excluded: the fitted operators map the zero
    signal to zero, so the constant coefficient is pinned at 0.
    """
    # A degree-d monomial is a multiset of d delay indices, so only the
    # C(D+d-1, d) vectors that exist are built, not (degree+1)^D candidates.
    return sorted((tuple(map(combo.count, range(num_delays)))
                   for d in range(1, degree + 1)
                   for combo in itertools.combinations_with_replacement(
                       range(num_delays), d)),
                  key=lambda r: (sum(r), r))


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

    def lags(self, dt: float) -> tuple[list[int], int]:
        """The delays rounded to sample offsets, and the index ``ob`` of the
        first input sample with an output: output k reads input samples
        ob + k - offset_j.

        ``ob`` is the window trim floor(hi / dt), widened when rounding
        pushes an off-grid endpoint delay one step past it, so that every
        offset fits.
        """
        offsets = [int(math.floor(d / dt + 0.5)) for d in self.delays]
        return offsets, max(math.floor(self.interval.hi / dt + 1e-9),
                            max(offsets))

    def delayed_matrix(self, u: Signal) -> tuple[np.ndarray, Signal]:
        """Samples of u at t - delay_j for every t in the output domain.

        Delays are rounded to grid indices here (time-domain application,
        see ``lags``); the returned matrix has shape (num_outputs,
        num_delays).
        """
        offsets, ob = self.lags(u.dt)
        n = len(u)
        cols = [u.samples[ob - o: n - o] for o in offsets]
        out_template = Signal(u.t0 + ob * u.dt, u.dt, np.zeros(n - ob))
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


EVAL_BLOCK = 1024           # frequency points per evaluation block
CONTRACT_VALUES = 1 << 15   # complex values per row chunk of a contraction


def _real_matmul(real: np.ndarray, values: np.ndarray) -> np.ndarray:
    """real @ values for a real matrix and a C-ordered complex one, as one
    real product over the interleaved real and imaginary parts."""
    return (real @ values.view(float)).view(complex)


def _identity(rows: np.ndarray) -> np.ndarray:
    return rows


@dataclass(frozen=True)
class SlotTrie:
    """The order-n terms of a response regrouped by their slot prefixes.

    ``levels[j]`` lists the distinct (j+1)-slot prefixes as (index of the
    j-slot prefix it extends, id of its last slot); ``weights[u, v]`` sums
    the coefficients of the terms made of (n-1)-slot prefix u followed by
    slot v.  A product over the first n-1 slots is therefore formed once
    per prefix, not once per term.
    """

    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    weights: np.ndarray

    def contract(self, tables: list[np.ndarray], combine,
                 lift=_identity, lower=_identity) -> np.ndarray:
        """sum_t coeff_t * slot_1 x ... x slot_n for one order.

        ``combine`` is a bilinear row-by-row product of two 2-D arrays with
        equal row counts, applied left to right: pointwise for responses,
        outer product for tensor grids, and for spectra a pointwise product
        in the FFT domain.  ``lift`` and ``lower`` are linear maps on rows,
        identity by default, that carry a row into the domain
        ``combine`` works in and back (the padded FFT, and the inverse FFT
        cropped to the output bins, for spectra).  ``tables[j]`` holds one
        C-ordered row per vocabulary entry for slot j + 1: its values for
        j = 0, shape (V, P), and for j >= 1 their lifted form.

        Each trie node is lifted once, before its children extend it, and
        each extended row is lowered once; the last slot is folded into
        one lifted row per vocabulary entry, and their sum is lowered once.
        Rows go through ``combine`` in chunks whose output holds at most
        CONTRACT_VALUES values, and the last prefix level is folded into
        the weights chunk by chunk, never held whole.
        """
        if not self.levels:
            return _real_matmul(self.weights, tables[0])[0]

        def extend(acc, j, rows):
            parent, last = self.levels[j]
            return lower(combine(acc[parent[rows]], tables[j][last[rows]]))

        def chunks(length, a, b):
            # an empty call gives the width of the combine's output rows
            width = combine(a[:0], b[:0]).shape[1]
            return _chunks(length, max(1, CONTRACT_VALUES // width))

        acc = tables[0][self.levels[0][1]]
        for j in range(1, len(self.levels) - 1):
            acc = lift(acc)
            acc = np.concatenate([extend(acc, j, r) for r in chunks(
                len(self.levels[j][1]), acc, tables[j])])
        # mixed[v] = sum_u weights[u, v] * prefix_u over (n-1)-slot prefixes
        top = len(self.levels) - 1
        if top == 0:
            mixed = _real_matmul(self.weights.T, acc)
        else:
            acc = lift(acc)
            mixed = _accumulate(
                _real_matmul(self.weights[r].T, extend(acc, top, r))
                for r in chunks(len(self.weights), acc, tables[top]))
        # combine is bilinear, so summing combine(prefix_u, sum_v
        # weights[u, v] * slot_v) over u equals summing combine(mixed[v],
        # slot_v) over v: V combines, not one per prefix
        mixed = lift(mixed)
        return lower(_accumulate(
            _row_sum(combine(mixed[r], tables[-1][r]))
            for r in chunks(len(mixed), mixed, tables[-1]))[None])[0]


def _chunks(length: int, step: int) -> list[slice]:
    return [slice(s, s + step) for s in range(0, length, step)]


def _accumulate(parts) -> np.ndarray:
    """Sum of an iterable of fresh arrays, added in place into the first."""
    parts = iter(parts)
    total = next(parts)
    for part in parts:
        total += part
        del part        # free it before the next part is computed
    return total


def _row_sum(part: np.ndarray) -> np.ndarray:
    # a one-row chunk, wider than CONTRACT_VALUES on fine grids, is its own
    # sum: no copy of the widest array
    return part[0] if len(part) == 1 else part.sum(axis=0)


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row outer product of (rows, Pa) and (rows, Pb) arrays,
    flattened C-order to (rows, Pa * Pb)."""
    return (a[:, :, None] * b[:, None, :]).reshape(
        len(a), a.shape[1] * b.shape[1])


def fold_vocabulary(delays: np.ndarray, factors: tuple[str, ...],
                    id_arrays) -> tuple[np.ndarray, list[tuple[float, str]]]:
    """One entry per distinct (exact delay, factor) that ``id_arrays`` use,
    numbered in id order, and ``remap`` taking each used id to its entry
    (unused ids map to 0)."""
    in_use = np.zeros(len(delays), dtype=bool)
    for ids in id_arrays:
        in_use[ids] = True
    used = np.flatnonzero(in_use)
    index: dict[tuple[float, str], int] = {}
    remap = np.zeros(len(delays), dtype=np.intp)
    for v, d in zip(used.tolist(), delays[used].tolist()):
        remap[v] = index.setdefault((d, factors[v]), len(index))
    return remap, list(index)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Gfrf:
    """Multi-order frequency response as sums of factored exponential terms.

    The stored form is a slot vocabulary plus per-order arrays: entry v of
    the vocabulary is the exact delay ``slot_delays[v]`` with the factor
    named ``slot_factors[v]``, and order n holds ``coeffs[n]`` (float64[T])
    and ``slot_ids[n]`` (intp[T, n], ids into the vocabulary).
    ``H_n(w_1..w_n)`` evaluates as
    sum_t coeffs[n][t] * prod_j exp(-i d_j w_j) * factor_j(w_j),
    with (d_j, factor_j) the vocabulary entry of slot j of term t.

    The constructor takes ``GfrfTerm`` records per order; ``orders`` gives
    them back.  ``atoms`` resolves named factor transfer functions.
    """

    def __init__(self, h0: float = 0.0,
                 orders: dict[int, list[GfrfTerm]] | None = None,
                 atoms: dict[str, Kernel] | None = None):
        entries: dict[tuple[float, str], int] = {}
        coeffs, slot_ids = {}, {}
        for n, terms in (orders or {}).items():
            if any(t.order != n for t in terms):
                raise BadRange(f"order-{n} response given a term of another "
                               "order")
            coeffs[n] = np.array([t.coeff for t in terms], dtype=float)
            slot_ids[n] = np.array(
                [[entries.setdefault(s, len(entries))
                  for s in zip(t.delays, t.factors)] for t in terms],
                dtype=np.intp).reshape(len(terms), n)
        self._store(h0, np.array([d for d, _ in entries], dtype=float),
                    tuple(f for _, f in entries), coeffs, slot_ids, atoms)

    @classmethod
    def from_slots(cls, h0: float, delays: np.ndarray,
                   factors: tuple[str, ...], coeffs: dict[int, np.ndarray],
                   slot_ids: dict[int, np.ndarray],
                   atoms: dict[str, Kernel] | None = None) -> "Gfrf":
        """Response from stored arrays; the vocabulary may hold duplicate
        or unused entries, which are folded and dropped."""
        g = cls.__new__(cls)
        g._store(h0, np.asarray(delays, dtype=float), tuple(factors),
                 coeffs, slot_ids, atoms)
        return g

    def _store(self, h0, delays, factors, coeffs, slot_ids, atoms) -> None:
        live = [n for n in coeffs if len(coeffs[n])]
        remap, entries = fold_vocabulary(delays, factors,
                                         [slot_ids[n] for n in live])
        self.h0 = float(h0)
        self.atoms = dict(atoms or {})
        self.slot_delays = _frozen(np.array([d for d, _ in entries],
                                            dtype=float))
        self.slot_factors = tuple(f for _, f in entries)
        self.coeffs = {n: _frozen(np.array(coeffs[n], dtype=float))
                       for n in live}
        self.slot_ids = {n: _frozen(remap[slot_ids[n]]) for n in live}
        self._tries: dict[int, SlotTrie] = {}

    @property
    def orders(self) -> dict[int, list[GfrfTerm]]:
        """The stored terms as ``GfrfTerm`` records, per order."""
        factors = np.array(self.slot_factors, dtype=object)
        return {n: [GfrfTerm(c, tuple(d), tuple(f)) for c, d, f in zip(
                    self.coeffs[n].tolist(), self.slot_delays[ids].tolist(),
                    factors[ids].tolist())]
                for n, ids in self.slot_ids.items()}

    @property
    def max_order(self) -> int:
        return max(self.coeffs, default=0)

    def term_counts(self) -> dict[int, int]:
        return {n: len(c) for n, c in sorted(self.coeffs.items())}

    def slot_table(self, omega) -> np.ndarray:
        """Values exp(-i d_v w) * factor_v(w) of every vocabulary entry v at
        the 1-D frequencies ``omega``; shape (V, len(omega))."""
        w = np.asarray(omega, dtype=float)
        table = np.exp(-1j * np.multiply.outer(self.slot_delays, w))
        for name in set(self.slot_factors) - {UNITY}:
            rows = [v for v, f in enumerate(self.slot_factors) if f == name]
            table[rows] *= self.atoms[name].measurement_transfer(w)
        return table

    def slot_trie(self, order: int) -> SlotTrie:
        """Prefix regrouping of the order-``order`` terms (see SlotTrie),
        built on first use and kept; the stored arrays are read-only, so
        it cannot go stale."""
        if order not in self._tries:
            self._tries[order] = self._build_trie(order)
        return self._tries[order]

    def _build_trie(self, order: int) -> SlotTrie:
        ids = self.slot_ids[order]
        vocab = len(self.slot_delays)
        prefix_of = np.zeros(len(ids), dtype=np.intp)
        levels = []
        for j in range(order - 1):
            prefixes, prefix_of = np.unique(prefix_of * vocab + ids[:, j],
                                            return_inverse=True)
            levels.append((prefixes // vocab, prefixes % vocab))
        num_prefixes = len(levels[-1][0]) if levels else 1
        weights = np.bincount(prefix_of * vocab + ids[:, -1],
                              weights=self.coeffs[order],
                              minlength=num_prefixes * vocab)
        return SlotTrie(tuple(levels), weights.reshape(num_prefixes, vocab))

    def evaluate(self, order: int, omegas) -> np.ndarray | complex:
        """Evaluate H_order at frequency tuples (broadcast over arrays)."""
        if order < 1:
            raise BadRange("evaluate handles orders >= 1 (H_0 is .h0)")
        if np.isscalar(omegas) or (isinstance(omegas, np.ndarray)
                                   and order == 1):
            omegas = (omegas,)
        ws = np.broadcast_arrays(*[np.asarray(w, dtype=float)
                                   for w in omegas])
        if len(ws) != order:
            raise BadRange(f"order {order} needs {order} frequency axes")
        out = np.zeros(ws[0].size, dtype=complex)
        if order in self.coeffs:
            trie = self.slot_trie(order)
            flat = [w.ravel() for w in ws]
            for s in range(0, out.size, EVAL_BLOCK):
                tables = []
                for w in flat:
                    # a meshgrid repeats frequencies along each axis: one
                    # table column per distinct value
                    values, where = np.unique(w[s: s + EVAL_BLOCK],
                                              return_inverse=True)
                    tables.append(np.take(self.slot_table(values), where,
                                          axis=1))
                out[s: s + EVAL_BLOCK] = trie.contract(tables, np.multiply)
        return complex(out[0]) if ws[0].ndim == 0 else \
            out.reshape(ws[0].shape)

    def grid(self, order: int, axis) -> np.ndarray:
        """H_order on the tensor grid axis x ... x axis, indexed like
        ``np.meshgrid(..., indexing="ij")``; shape (len(axis),) * order.

        The slot trie is contracted with a row-wise outer product, so a
        product over slots 1..j is formed once per point of the first j
        axes, not once per grid point.  Zeros when the response has no
        order-``order`` terms.
        """
        if order < 1:
            raise BadRange("grid handles orders >= 1 (H_0 is .h0)")
        axis = np.asarray(axis, dtype=float)
        shape = (len(axis),) * order
        if order not in self.coeffs:
            return np.zeros(shape, dtype=complex)
        table = self.slot_table(axis)
        return self.slot_trie(order).contract([table] * order,
                                              _outer_rows).reshape(shape)

    def to_json(self) -> dict:
        orders = {}
        for n, terms in sorted(self.orders.items()):
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
    order.  The slot ids come from the exponent matrix, one order at a
    time, and the vocabulary is numbered in first-use order (orders as
    they first appear in ``p.terms``, then terms, then slots), as the
    term-list constructor numbers it.
    """
    num_delays = len(p.delays)
    exps = np.array([e for e, _ in p.terms], dtype=np.intp).reshape(
        len(p.terms), num_delays)
    alpha = np.array([a for _, a in p.terms], dtype=float)
    order_of = exps.sum(axis=1)
    coeffs, slot_ids = {}, {}
    for n in dict.fromkeys(order_of.tolist()):
        rows = order_of == n
        count = int(rows.sum())
        slot_ids[n] = np.repeat(np.tile(np.arange(num_delays), count),
                                exps[rows].ravel()).reshape(count, n)
        coeffs[n] = alpha[rows]
    # delay indices in first-use order; from_slots folds equal delays onto
    # the first of them
    flat = np.concatenate([ids.ravel() for ids in slot_ids.values()]
                          + [np.zeros(0, np.intp)])
    by_use = flat[np.sort(np.unique(flat, return_index=True)[1])]
    rank = np.zeros(num_delays, dtype=np.intp)
    rank[by_use] = np.arange(len(by_use))
    return Gfrf.from_slots(0.0, np.array(p.delays, dtype=float)[by_use],
                           (UNITY,) * len(by_use), coeffs,
                           {n: rank[ids] for n, ids in slot_ids.items()})


# ---------------------------------------------------------------------------
# Least-squares fitting
# ---------------------------------------------------------------------------

FEATURE_ROWS = 512     # sample rows per block of polynomial features


def polynomial_features(sampled: np.ndarray,
                        exponents: list[tuple[int, ...]]) -> np.ndarray:
    """Monomial features of delayed samples, one column per exponent vector.

    Column c is the product over delays j, taken left to right, of
    ``sampled[:, j] ** exponents[c][j]`` by repeated multiplication, with
    zero exponents skipped.  Rows go in blocks of FEATURE_ROWS, laid out
    columns-first so each delay's gather and product run over whole rows.
    """
    rows, num_delays = sampled.shape
    exps = np.asarray(exponents)
    degree = int(exps.sum(axis=1).max())
    # per delay, the columns with a nonzero exponent on it
    uses = [(j, np.flatnonzero(exps[:, j])) for j in range(num_delays)]
    feats = np.empty((rows, len(exps)))
    for s in range(0, rows, FEATURE_ROWS):
        x = sampled[s: s + FEATURE_ROWS].T
        powers = np.ones((degree + 1,) + x.shape)
        for k in range(1, degree + 1):
            powers[k] = powers[k - 1] * x
        block = np.ones((len(exps), x.shape[1]))
        for j, cols in uses:
            block[cols] *= powers[exps[cols, j], j]
        feats[s: s + FEATURE_ROWS] = block.T
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
    offsets, ob = proto.lags(cfg.dt)
    blocks = []
    targets = []
    for ell in range(cfg.num_signals):
        u = cfg.training_signal(ell)
        exact = sliding_extremum(u, interval, mode)
        # the outputs of delayed_matrix(u) span input samples ob..len(u)-1
        t_first = u.t0 + ob * u.dt
        ks = ob + _training_times(
            (t_first, t_first + (len(u) - ob - 1) * u.dt), u.dt,
            cfg.times_per_signal)
        blocks.append(u.samples[ks[:, None] - offsets])
        # the exact extremum starts at its own window trim, one sample
        # before ob when an off-grid top delay rounds up: index it by time
        targets.append(exact.samples[ks - ob + exact.index_of(t_first)])
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

    def times(length):
        return np.round(np.linspace(0, length - 1,
                                    cfg.times_per_signal)).astype(int)

    if pairs is None:
        # the pair (training_signal(ell, 104729), training_signal(ell,
        # 1299709)), read only at its sample times
        ks = times(grid_length((0.0, cfg.duration), cfg.dt))
        drawn = [(cfg.training_samples(ell, 104729, ks),
                  cfg.training_samples(ell, 1299709, ks))
                 for ell in range(cfg.num_signals)]
    else:
        drawn = []
        for u_sig, v_sig in pairs:
            ks = times(len(u_sig))
            drawn.append((u_sig.samples[ks],
                          v_sig.samples[np.minimum(ks, len(v_sig) - 1)]))
    u = np.concatenate([a for a, _ in drawn])
    v = np.concatenate([b for _, b in drawn])
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
