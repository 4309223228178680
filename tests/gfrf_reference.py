"""Term-by-term reference versions of the GFRF evaluator and algebra.

They read a response only through its ``GfrfTerm`` records (``Gfrf.orders``)
or build it through the term-list constructor, and share no code with the
slot-table evaluator, the ``np.unique`` merge, the broadcast composition or
the exponent-matrix expansion in ``bbstl``, so the tests can hold those
against them.
"""

import math

import numpy as np
from scipy.signal import fftconvolve

from bbstl.signals import Signal, make_gaussian_kernel, table_kernel
from bbstl.volterra import UNITY, Gfrf, GfrfTerm

from conftest import DT

# a closed-form Gaussian transfer and a sampled (table) one, for random_gfrf
ATOMS = {"p": make_gaussian_kernel(0.05, 0.04, 0.2, DT),
         "t": table_kernel(Signal(-DT, DT, np.array([0.25, 0.5, 0.25]) / DT))}


def reference_evaluate(g: Gfrf, order: int, omegas):
    """H_order at broadcast frequency tuples, one term and slot at a time."""
    ws = np.broadcast_arrays(*[np.asarray(w, dtype=float) for w in omegas])
    acc = np.zeros(ws[0].shape, dtype=complex)
    for term in g.orders.get(order, []):
        val = np.full(ws[0].shape, term.coeff, dtype=complex)
        for d, fac, w in zip(term.delays, term.factors, ws):
            val = val * np.exp(-1j * d * w)
            if fac != UNITY:
                val = val * g.atoms[fac].measurement_transfer(w)
        acc += val
    return acc


def reference_output_spectrum(g: Gfrf, spec, max_order: int):
    """Output spectrum as one chain of grid convolutions per term.

    Returns the bins and the sum over terms of |coeff| * max |chain|, the
    scale of the rounding error.
    """
    n_bins = len(spec)
    zero = n_bins // 2
    om = spec.omegas
    out = np.zeros(n_bins, dtype=complex)
    scale = 0.0
    for order, terms in g.orders.items():
        if order > max_order:
            continue
        for term in terms:
            acc = None
            for d, fac in zip(term.delays, term.factors):
                w = np.exp(-1j * d * om) * spec.bins
                if fac != UNITY:
                    w = w * g.atoms[fac].measurement_transfer(om)
                if acc is None:
                    acc = w
                    continue
                acc = fftconvolve(acc, w)[zero: zero + n_bins]
                acc = acc * (spec.domega / (2 * math.pi))
            out += term.coeff * acc
            scale += abs(term.coeff) * float(np.max(np.abs(acc)))
    return out, scale


def reference_poly_delay_gfrf(p) -> Gfrf:
    """Delta-train expansion of a polynomial-delay operator, one
    ``GfrfTerm`` per exponent vector: delay t_j repeated r_j times, in
    index order, through the term-list constructor."""
    orders = {}
    for exps, alpha in p.terms:
        n = sum(exps)
        delays = []
        for t_j, r_j in zip(p.delays, exps):
            delays.extend([t_j] * r_j)
        orders.setdefault(n, []).append(
            GfrfTerm(alpha, tuple(delays), (UNITY,) * n))
    return Gfrf(0.0, orders)


def reference_merge(g: Gfrf) -> Gfrf:
    """Merge on (delays rounded to 12 decimals, factors) keys: the first
    term of a key keeps its exact delays, coefficients add in term order,
    zero sums drop, and the keys come out sorted."""
    orders = {}
    for n, terms in g.orders.items():
        bucket = {}
        for t in terms:
            key = (tuple(round(d, 12) for d in t.delays), t.factors)
            if key in bucket:
                bucket[key][0] += t.coeff
            else:
                bucket[key] = [t.coeff, t.delays]
        orders[n] = [GfrfTerm(c, delays, f)
                     for (_, f), (c, delays) in sorted(bucket.items())
                     if c != 0.0]
    return Gfrf(g.h0, orders, g.atoms)


def reference_compose(outer: Gfrf, inner: Gfrf, max_order: int) -> Gfrf:
    """Composition by depth-first expansion of every outer term over one
    inner term per block of each composition of n, then the merge."""
    inner_orders = inner.orders
    orders = {}
    for n in range(1, max_order + 1):
        acc = []
        for k, outer_terms in outer.orders.items():
            if k > n:
                continue
            for parts in _compositions(n, k):
                pools = [inner_orders.get(m) for m in parts]
                if any(p is None for p in pools):
                    continue
                for outer_term in outer_terms:
                    _expand(acc, outer_term, parts, pools)
        orders[n] = acc
    atoms = {**outer.atoms, **inner.atoms}
    return reference_merge(Gfrf(outer.h0, orders, atoms))


def _compositions(n: int, k: int) -> list:
    if k == 1:
        return [(n,)]
    return [(m,) + rest for m in range(1, n - k + 2)
            for rest in _compositions(n - m, k - 1)]


def _expand(acc, outer_term, parts, pools) -> None:
    stack = [(0, outer_term.coeff, (), ())]
    while stack:
        j, coeff, delays, factors = stack.pop()
        if j == len(parts):
            acc.append(GfrfTerm(coeff, delays, factors))
            continue
        c_j = outer_term.delays[j]
        for t in pools[j]:
            stack.append((j + 1, coeff * t.coeff,
                          delays + tuple(c_j + a for a in t.delays),
                          factors + t.factors))


def assert_same_arrays(got: Gfrf, want: Gfrf) -> None:
    """Bit-identical stored arrays: vocabulary, orders in the same order,
    coefficients and slot ids."""
    assert got.h0 == want.h0
    assert np.array_equal(got.slot_delays, want.slot_delays)
    assert got.slot_factors == want.slot_factors
    assert list(got.coeffs) == list(want.coeffs)
    for n, c in want.coeffs.items():
        assert got.coeffs[n].tobytes() == c.tobytes()
        assert got.slot_ids[n].shape == want.slot_ids[n].shape
        assert np.array_equal(got.slot_ids[n], want.slot_ids[n])


def assert_same_terms(got: Gfrf, want: Gfrf) -> None:
    """Same orders, term counts, term order, factors and exact delays;
    coefficients within 1e-15 relative."""
    got_orders, want_orders = got.orders, want.orders
    assert sorted(got_orders) == sorted(n for n, t in want_orders.items()
                                        if t)
    for n, terms in got_orders.items():
        assert len(terms) == len(want_orders[n])
        for a, b in zip(terms, want_orders[n]):
            assert a.factors == b.factors
            assert a.delays == b.delays
            assert abs(a.coeff - b.coeff) <= 1e-15 * abs(b.coeff)


def random_gfrf(rng, atoms: dict, max_order: int = 3,
                max_terms: int = 12) -> Gfrf:
    """Response whose slots draw from a few delays -- off-grid, on-grid
    and near-equal ones such as 0.1 + 0.2 and 0.3 -- and from unity or
    the factors in ``atoms``; a quarter of the orders also carry an
    exactly cancelling copy of their first term."""
    delays = [float(d) for d in rng.uniform(0.0, 0.6, 4)] + \
        [0.1 + 0.2, 0.3, 0.3 + 3e-13, 0.002 * 37]
    names = [UNITY] + sorted(atoms)
    orders = {}
    for n in range(1, max_order + 1):
        terms = [GfrfTerm(float(rng.uniform(-2.0, 2.0)),
                          tuple(delays[i] for i in
                                rng.integers(len(delays), size=n)),
                          tuple(names[i] for i in
                                rng.integers(len(names), size=n)))
                 for _ in range(int(rng.integers(1, max_terms + 1)))]
        if rng.random() < 0.25:
            terms.append(GfrfTerm(-terms[0].coeff, terms[0].delays,
                                  terms[0].factors))
        orders[n] = terms
    return Gfrf(0.0, orders, atoms)
