"""GFRF algebra: sums, operator composition and the formula pipeline.

Composition of factored exponential-sum GFRFs stays in closed form: an
outer delta-train term of order k combines with one inner term per block
of a composition of n into k positive parts; block j shifts its inner
delays by the outer delay c_j and carries the inner factors through.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadArity,
    InnerHasNonzeroH0,
    OuterHasAtomFactors,
    SinceNotGfrfSupported,
    SinceSamplingDisabled,
    TrueNotApproximable,
    UnknownAtom,
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
    Or,
    Since,
    TrueFormula,
)
from .volterra import (
    UNITY,
    FitConfig,
    Gfrf,
    MemorylessNode,
    NegNode,
    OperatorPipeline,
    PolyDelayNode,
    PolyDelayOperator,
    SeparableFit,
    SumNode,
    atom_volterra,
    fit_poly_delay,
    fit_separable_minmax,
    fold_vocabulary,
    memoryless_poly_gfrf,
    negation_volterra,
    poly_delay_to_gfrf,
)


def compositions(n: int, k: int) -> list[tuple[int, ...]]:
    """Length-k sequences of positive integers summing to n, lex order.

    Zero parts are excluded: inner operators in this pipeline always have
    H_0 = 0, so any term with a zero part vanishes.
    """
    if k < 1 or k > n:
        raise BadArity(f"need 1 <= k <= n, got k={k}, n={n}")
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            for cuts in itertools.combinations(range(1, n), k - 1)]


def sum_gfrf(g1: Gfrf, g2: Gfrf) -> Gfrf:
    """Order-wise sum of two responses (term lists concatenate)."""
    return Gfrf.from_slots(*_concat(g1, g2))


def _concat(g1: Gfrf, g2: Gfrf) -> tuple:
    """Raw ``from_slots`` arguments of the order-wise sum: g1's terms, then
    g2's, over the two vocabularies placed end to end."""
    offset = len(g1.slot_delays)
    coeffs: dict[int, list[np.ndarray]] = {}
    slot_ids: dict[int, list[np.ndarray]] = {}
    for g, shift in ((g1, 0), (g2, offset)):
        for n, ids in g.slot_ids.items():
            coeffs.setdefault(n, []).append(g.coeffs[n])
            slot_ids.setdefault(n, []).append(ids + shift)
    return (g1.h0 + g2.h0, np.concatenate([g1.slot_delays, g2.slot_delays]),
            g1.slot_factors + g2.slot_factors,
            {n: np.concatenate(c) for n, c in coeffs.items()},
            {n: np.concatenate(i) for n, i in slot_ids.items()},
            _merge_atoms(g1, g2))


def _merge_atoms(g1: Gfrf, g2: Gfrf) -> dict:
    atoms = dict(g1.atoms)
    for name, kernel in g2.atoms.items():
        if name in atoms and atoms[name] is not kernel and atoms[name] != kernel:
            raise UnknownAtom(f"atom name {name!r} bound to two kernels")
        atoms[name] = kernel
    return atoms


def compose_gfrf(outer: Gfrf, inner: Gfrf, max_order: int = 4) -> Gfrf:
    """Closed-form GFRF of outer after inner, up to ``max_order``, merged.

    The outer operator must be a delta train (unity factors only) and the
    inner must have zero H_0; both hold for every operator produced by the
    formula pipeline.  H_0 of the result is the outer H_0.  The product
    terms are merged on their raw arrays and stored once.
    """
    if any(f != UNITY for f in outer.slot_factors):
        raise OuterHasAtomFactors(
            "outer operator carries atom factors; composition is "
            "closed only over delta-train outers")
    if abs(inner.h0) > 1e-12:
        raise InnerHasNonzeroH0(f"inner H_0 = {inner.h0} must be 0")

    # outer delay c shifts inner entry (a, f) to entry (c + a, f) of the
    # result; shift[o, i] is its id
    delays = np.add.outer(outer.slot_delays, inner.slot_delays).ravel()
    factors = inner.slot_factors * len(outer.slot_delays)
    shift = np.arange(delays.size).reshape(len(outer.slot_delays),
                                           len(inner.slot_delays))
    coeffs, slot_ids = {}, {}
    for n in range(1, max_order + 1):
        blocks = [_block_product(outer.coeffs[k], outer.slot_ids[k], parts,
                                 inner, shift)
                  for k in outer.slot_ids if 1 <= k <= n
                  for parts in compositions(n, k)
                  if all(m in inner.slot_ids for m in parts)]
        if blocks:
            coeffs[n] = np.concatenate([c for c, _ in blocks])
            slot_ids[n] = np.concatenate([i for _, i in blocks])
    return _merge_slots(outer.h0, delays, factors, coeffs, slot_ids,
                        _merge_atoms(outer, inner))


def _block_product(outer_coeffs: np.ndarray, outer_ids: np.ndarray,
                   parts: tuple[int, ...], inner: Gfrf,
                   shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Composed terms for every outer term of order k = len(parts) and one
    block structure: block j takes an order-parts[j] inner term shifted by
    the outer delay of slot j, over the cartesian product of the blocks.

    Each inner pool runs last term first, so the terms come out in the
    order of the depth-first expansion in ``tests/gfrf_reference.py``.
    """
    k = len(parts)
    num_outer = len(outer_coeffs)
    shape = (num_outer,) + tuple(len(inner.coeffs[m]) for m in parts)
    coeff = outer_coeffs.reshape((num_outer,) + (1,) * k)
    columns = []
    for j, m in enumerate(parts):
        along_j = [1] * k
        along_j[j] = -1
        coeff = coeff * inner.coeffs[m][::-1].reshape([1] + along_j)
        ids = shift[outer_ids[:, j, None, None], inner.slot_ids[m][None, ::-1]]
        columns.append(np.broadcast_to(
            ids.reshape([num_outer] + along_j + [m]), shape + (m,)))
    return coeff.reshape(-1), np.concatenate(columns, axis=-1).reshape(
        -1, sum(parts))


def _lex_keys(columns: list[np.ndarray], radices: list[int]) -> np.ndarray:
    """int64 keys whose order is the lexicographic order of the rows of
    ``columns`` (column c holds values in [0, radices[c]))."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for col, radix in zip(columns, radices):
        if key.size and int(key.max()) >= np.iinfo(np.int64).max // radix - 1:
            # dense ranks keep the order and make room for the next column
            key = np.unique(key, return_inverse=True)[1]
        key = key * radix + col
    return key


def merge_terms(g: Gfrf) -> Gfrf:
    """Combine terms with identical delay/factor signatures.

    Delays match when they agree to 12 decimals; the rounding runs once
    per vocabulary entry.  A merged term keeps the exact delays of its
    first occurrence, sums the coefficients in term order, and the merged
    terms come out sorted by (delays, factors).  Composition, sums in the
    formula pipeline and ``symmetrize_gfrf`` merge their raw arrays the
    same way (``_merge_slots``) before anything is stored.
    """
    return _merge_slots(g.h0, g.slot_delays, g.slot_factors, g.coeffs,
                        g.slot_ids, g.atoms)


def _merge_slots(h0: float, delays: np.ndarray, factors: tuple[str, ...],
                 coeffs: dict[int, np.ndarray],
                 slot_ids: dict[int, np.ndarray], atoms: dict) -> Gfrf:
    """``merge_terms`` on raw ``Gfrf.from_slots`` arrays; only the merged
    response is stored.

    The vocabulary is folded first (``fold_vocabulary``), so duplicate and
    unused entries neither split keys nor change the numbering, and the
    rounding runs once per folded entry.
    """
    remap, entries = fold_vocabulary(delays, factors, slot_ids.values())
    rounded = [round(d, 12) for d, _ in entries]
    delay_rank = np.unique(rounded, return_inverse=True)[1][remap]
    names = sorted({f for _, f in entries})
    factor_rank = np.array([names.index(f) for _, f in entries],
                           dtype=np.intp)[remap]
    merged_coeffs, merged_ids = {}, {}
    for n, ids in slot_ids.items():
        key = _lex_keys(list(delay_rank[ids].T) + list(factor_rank[ids].T),
                        [len(rounded)] * n + [len(names)] * n)
        _, first, group = np.unique(key, return_index=True,
                                    return_inverse=True)
        summed = np.bincount(group, weights=coeffs[n])
        keep = summed != 0.0
        merged_coeffs[n] = summed[keep]
        merged_ids[n] = remap[ids[first[keep]]]
    return Gfrf.from_slots(h0, np.array([d for d, _ in entries]),
                           tuple(f for _, f in entries), merged_coeffs,
                           merged_ids, atoms)


def symmetrize_gfrf(g: Gfrf) -> Gfrf:
    """Average each order over all frequency-slot permutations.

    The stored responses are asymmetric (slot order follows the delay
    expansion); the symmetrized version evaluates identically inside
    output-spectrum sums and plots like the symmetric convention.
    """
    coeffs, slot_ids = {}, {}
    for n, ids in g.slot_ids.items():
        perms = np.array(list(itertools.permutations(range(n))))
        slot_ids[n] = ids[:, perms].reshape(-1, n)
        coeffs[n] = np.repeat(g.coeffs[n] * (1.0 / math.factorial(n)),
                              len(perms))
    return _merge_slots(g.h0, g.slot_delays, g.slot_factors, coeffs,
                        slot_ids, g.atoms)


def prune_gfrf(g: Gfrf, threshold: float) -> tuple[Gfrf, float]:
    """Merge identical terms (``merge_terms``), then drop |coeff| <
    threshold.

    Returns the pruned response and the dropped coefficient mass, which
    bounds the evaluation change at any frequency tuple for unit-bounded
    factors.  ``build_formula_operator`` merges every node as it builds
    it, so it applies only the drop step (``_drop_small``).
    """
    _check_threshold(threshold)
    return _drop_small(merge_terms(g), threshold)


def _check_threshold(threshold: float) -> None:
    if threshold < 0:
        raise BadArity("prune threshold must be >= 0")


def _drop_small(g: Gfrf, threshold: float) -> tuple[Gfrf, float]:
    """Drop |coeff| < threshold from a merged response, with the dropped
    mass; at threshold 0 nothing qualifies and ``g`` comes back as is."""
    if threshold == 0:
        return g, 0.0
    dropped = 0.0
    coeffs, slot_ids = {}, {}
    for n, c in g.coeffs.items():
        small = np.abs(c) < threshold
        dropped += float(np.abs(c[small]).sum())
        coeffs[n] = c[~small]
        slot_ids[n] = g.slot_ids[n][~small]
    return Gfrf.from_slots(g.h0, g.slot_delays, g.slot_factors, coeffs,
                           slot_ids, g.atoms), dropped


# ---------------------------------------------------------------------------
# Formula pipeline
# ---------------------------------------------------------------------------

_FIT_CACHE: dict[tuple, object] = {}


def clear_fit_cache() -> None:
    _FIT_CACHE.clear()


def cached_poly_fit(op: str, interval: Interval,
                    cfg: FitConfig) -> PolyDelayOperator:
    key = ("poly", op, round(interval.lo, 12), round(interval.hi, 12), cfg)
    if key not in _FIT_CACHE:
        _FIT_CACHE[key] = fit_poly_delay(op, interval, cfg)
    return _FIT_CACHE[key]


def cached_separable_fit(mode: str, cfg: FitConfig) -> SeparableFit:
    key = ("sep", mode, cfg.degree, cfg)
    if key not in _FIT_CACHE:
        _FIT_CACHE[key] = fit_separable_minmax(mode, cfg.degree, cfg)
    return _FIT_CACHE[key]


@dataclass
class BuildReport:
    fit_residuals: dict[str, float] = field(default_factory=dict)
    dropped_mass: float = 0.0
    term_counts: dict[int, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "term_counts_per_order": {str(k): v
                                      for k, v in sorted(self.term_counts.items())},
            "dropped_mass": self.dropped_mass,
            "fit_residuals": dict(sorted(self.fit_residuals.items())),
        }


@dataclass
class FormulaOperator:
    """Frequency response plus its time-domain twin for one formula."""

    gfrf: Gfrf
    pipeline: OperatorPipeline
    report: BuildReport


def build_formula_operator(phi: Formula, kt: KernelTable,
                           cfg: FitConfig | None = None,
                           prune_threshold: float = 0.0) -> FormulaOperator:
    """Recursive formula -> (GFRF, pipeline) construction.

    Atoms map to their exact first-order response; once/hist to fitted
    polynomial-delay operators composed over the child; and/or to the
    separable min/max polynomials applied to each child and summed.
    ``since`` and explicit ``true`` are rejected, and so is a negative
    ``prune_threshold``, before any fit runs.  Every node's response is
    merged once, on raw arrays, and stored; ``prune_threshold`` then drops
    its small coefficients.
    """
    _check_threshold(prune_threshold)
    if cfg is None:
        cfg = FitConfig()
    report = BuildReport()

    def rec(node: Formula) -> tuple[Gfrf, OperatorPipeline]:
        if isinstance(node, TrueFormula):
            raise TrueNotApproximable(
                "explicit 'true' has no finite Volterra approximation")
        if isinstance(node, Since):
            raise SinceNotGfrfSupported(
                "'since' is not supported by the direct pipeline; use "
                "operator-space sampling (since_sampled_gfrf)")
        if isinstance(node, Atom):
            if node.name not in kt:
                raise UnknownAtom(f"atom {node.name!r} not in kernel table")
            return atom_volterra(kt[node.name], node.name)
        if isinstance(node, Not):
            g, p = rec(node.child)
            return (compose_gfrf(negation_volterra(), g, cfg.max_order),
                    NegNode(p))
        if isinstance(node, (Once, Hist)):
            g, p = rec(node.child)
            op = "once" if isinstance(node, Once) else "hist"
            fit = cached_poly_fit(op, node.interval, cfg)
            if fit.diagnostics is not None:
                report.fit_residuals[f"{op}{node.interval}"] = \
                    fit.diagnostics.rms_residual
            composed, dropped = _drop_small(
                compose_gfrf(poly_delay_to_gfrf(fit), g, cfg.max_order),
                prune_threshold)
            report.dropped_mass += dropped
            return composed, PolyDelayNode(fit, p)
        if isinstance(node, (And, Or)):
            g1, p1 = rec(node.left)
            g2, p2 = rec(node.right)
            mode = "min" if isinstance(node, And) else "max"
            fit = cached_separable_fit(mode, cfg)
            report.fit_residuals[f"{mode}(deg {cfg.degree})"] = \
                fit.rms_residual
            left = compose_gfrf(memoryless_poly_gfrf(fit.r), g1,
                                cfg.max_order)
            right = compose_gfrf(memoryless_poly_gfrf(fit.q), g2,
                                 cfg.max_order)
            combined, dropped = _drop_small(
                _merge_slots(*_concat(left, right)), prune_threshold)
            report.dropped_mass += dropped
            return combined, SumNode((MemorylessNode(fit.r, p1),
                                      MemorylessNode(fit.q, p2)))
        raise TypeError(f"not a formula: {node!r}")

    gfrf, pipeline = rec(phi)
    report.term_counts = gfrf.term_counts()
    return FormulaOperator(gfrf, pipeline, report)


def formula_to_gfrf(phi: Formula, kt: KernelTable,
                    cfg: FitConfig | None = None,
                    prune_threshold: float = 0.0) -> Gfrf:
    return build_formula_operator(phi, kt, cfg, prune_threshold).gfrf


# ---------------------------------------------------------------------------
# Sampled approximation of since
# ---------------------------------------------------------------------------

@dataclass
class SinceSample:
    eta: float
    formula: Formula
    gfrf: Gfrf
    pipeline: OperatorPipeline


def since_sampled_gfrf(phi1: Formula, phi2: Formula,
                       interval: Interval | tuple[float, float],
                       num_samples: int, kt: KernelTable,
                       cfg: FitConfig | None = None,
                       enabled: bool = False) -> list[SinceSample]:
    """Operator-space sampling of ``phi1 since[a,b] phi2``.

    For each of ``num_samples`` evenly spaced eta in [0, b-a], the punctual
    instance at lag a+eta decomposes into
    ``once[a+eta,a+eta] phi2 and hist[0,a+eta] phi1`` (upper bound closed,
    following the grid convention); the caller recovers an approximation of
    the since robustness as the pointwise time-domain max over eta.

    This is an explicit opt-in (``enabled=True``): it samples the operator
    space rather than approximating the since operator itself.
    """
    if not enabled:
        raise SinceSamplingDisabled(
            "operator-space sampling of 'since' must be explicitly enabled")
    if num_samples < 1:
        raise BadArity("num_samples must be >= 1")
    if not isinstance(interval, Interval):
        interval = Interval(*interval)
    if cfg is None:
        cfg = FitConfig()
    width = interval.hi - interval.lo
    etas = [0.0] if num_samples == 1 else \
        [width * i / (num_samples - 1) for i in range(num_samples)]
    out = []
    for eta in etas:
        # punctual lags snap to the sampling grid so the one-point window
        # of once[lag,lag] lands on an actual sample
        lag = round((interval.lo + eta) / cfg.dt) * cfg.dt
        phi = And(Once(Interval(lag, lag), phi2),
                  Hist(Interval(0.0, lag), phi1))
        built = build_formula_operator(phi, kt, cfg)
        out.append(SinceSample(eta, phi, built.gfrf, built.pipeline))
    return out
