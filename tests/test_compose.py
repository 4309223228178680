import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbstl import compose
from bbstl.compose import (
    build_formula_operator,
    cached_poly_fit,
    cached_separable_fit,
    clear_fit_cache,
    compose_gfrf,
    compositions,
    formula_to_gfrf,
    merge_terms,
    prune_gfrf,
    since_sampled_gfrf,
    sum_gfrf,
)
from bbstl.errors import (
    BadArity,
    InnerHasNonzeroH0,
    OuterHasAtomFactors,
    SinceNotGfrfSupported,
    SinceSamplingDisabled,
    TrueNotApproximable,
    UnknownAtom,
)
from bbstl.logic import Atom, Interval, parse_formula
from bbstl.signals import make_gaussian_kernel
from bbstl.volterra import (
    UNITY,
    FitConfig,
    Gfrf,
    GfrfTerm,
    atom_volterra,
    memoryless_poly_gfrf,
    poly_delay_to_gfrf,
)

from conftest import DT
from gfrf_reference import (
    assert_same_terms,
    random_gfrf,
    reference_compose,
    reference_evaluate,
    reference_merge,
)

FAST = FitConfig(num_signals=12, times_per_signal=24, duration=8.0,
                 num_delays=4, degree=3)


def positive_compositions_oracle(n, k):
    """Exhaustive enumeration over the full integer box."""
    return sorted(tuple(c) for c in itertools.product(range(n + 1), repeat=k)
                  if sum(c) == n and all(m >= 1 for m in c))


def random_delta_train(rng, max_order, terms_per_order=3, atoms=None):
    """Random response; with ``atoms`` its slots also draw factors."""
    names = [UNITY] + sorted(atoms or {})
    orders = {}
    for n in range(1, max_order + 1):
        orders[n] = [
            GfrfTerm(float(rng.normal()),
                     tuple(float(d) for d in rng.uniform(0, 0.5, size=n)),
                     (UNITY,) * n if atoms is None else
                     tuple(names[i] for i in rng.integers(len(names), size=n)))
            for _ in range(int(rng.integers(1, terms_per_order + 1)))
        ]
    return Gfrf(0.0, orders, atoms)


def theorem_composition_value(outer, inner, n, omegas):
    """Direct evaluation of the composition sum, built independently:
    explicit mixing matrices, term-by-term evaluation of both responses."""
    omegas = np.asarray(omegas, dtype=float)
    total = 0.0 + 0.0j
    max_k = max(outer.orders)
    for k in range(1, min(n, max_k) + 1):
        if k not in outer.orders:
            continue
        for parts in positive_compositions_oracle(n, k):
            s_matrix = np.zeros((k, n))
            start = 0
            blocks = []
            for j, m in enumerate(parts):
                s_matrix[j, start: start + m] = 1.0
                blocks.append(omegas[start: start + m])
                start += m
            outer_val = reference_evaluate(outer, k, list(s_matrix @ omegas))
            prod = outer_val
            for j, m in enumerate(parts):
                prod = prod * reference_evaluate(inner, m, list(blocks[j]))
            total += prod
    return total


class TestCompositions:
    def test_examples(self):
        assert compositions(2, 2) == [(1, 1)]
        assert compositions(3, 2) == [(1, 2), (2, 1)]
        assert compositions(5, 1) == [(5,)]

    def test_against_exhaustive_enumeration(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert compositions(n, k) == positive_compositions_oracle(n, k)

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            compositions(2, 3)
        with pytest.raises(BadArity):
            compositions(2, 0)


class TestSumGfrf:
    def test_sum_with_zero(self, g_narrow):
        g, _ = atom_volterra(g_narrow, "g")
        summed = sum_gfrf(g, Gfrf())
        w = np.linspace(0, 10, 7)
        assert np.allclose(summed.evaluate(1, [w]), g.evaluate(1, [w]))

    def test_double_negation_sum(self):
        from bbstl.volterra import negation_volterra
        s = sum_gfrf(negation_volterra(), negation_volterra())
        assert s.evaluate(1, [0.4]) == -2.0

    def test_pointwise_additivity(self, g_narrow, g_wide):
        rng = np.random.default_rng(8)
        a = random_delta_train(rng, 3)
        b = random_delta_train(rng, 3)
        s = sum_gfrf(a, b)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            w = rng.uniform(-15, 15, size=n)
            # identical up to float summation order
            assert abs(s.evaluate(n, list(w))
                       - (a.evaluate(n, list(w)) + b.evaluate(n, list(w)))) \
                < 1e-12


class TestComposeGfrf:
    def test_identity_outer(self, g_narrow):
        ident = Gfrf(0.0, {1: [GfrfTerm(1.0, (0.0,), (UNITY,))]})
        inner, _ = atom_volterra(g_narrow, "g")
        composed = compose_gfrf(ident, inner)
        w = np.linspace(0, 20, 9)
        assert np.allclose(composed.evaluate(1, [w]), inner.evaluate(1, [w]))

    def test_pure_delay_outer(self, g_narrow):
        tau = 0.25
        delay = Gfrf(0.0, {1: [GfrfTerm(1.0, (tau,), (UNITY,))]})
        inner, _ = atom_volterra(g_narrow, "g")
        composed = compose_gfrf(delay, inner)
        w = 3.1
        expect = np.exp(-1j * tau * w) * g_narrow.measurement_transfer(w)
        assert abs(composed.evaluate(1, [w]) - expect) < 1e-14

    def test_memoryless_square_over_atom(self, g_narrow):
        from bbstl.volterra import MemorylessPoly, memoryless_poly_gfrf
        sq = memoryless_poly_gfrf(MemorylessPoly((0.0, 0.0, 0.8)))
        inner, _ = atom_volterra(g_narrow, "g")
        composed = compose_gfrf(sq, inner)
        w1, w2 = 2.0, -5.0
        expect = 0.8 * g_narrow.measurement_transfer(w1) * \
            g_narrow.measurement_transfer(w2)
        assert abs(composed.evaluate(2, [w1, w2]) - expect) < 1e-14

    def test_outer_with_atom_factors_rejected(self, g_narrow):
        atom_g, _ = atom_volterra(g_narrow, "g")
        with pytest.raises(OuterHasAtomFactors):
            compose_gfrf(atom_g, atom_g)

    def test_inner_with_h0_rejected(self):
        ident = Gfrf(0.0, {1: [GfrfTerm(1.0, (0.0,), (UNITY,))]})
        bad = Gfrf(0.5, {1: [GfrfTerm(1.0, (0.0,), (UNITY,))]})
        with pytest.raises(InnerHasNonzeroH0):
            compose_gfrf(ident, bad)

    def test_matches_direct_theorem_evaluation(self):
        rng = np.random.default_rng(123)
        for trial in range(6):
            outer = random_delta_train(rng, 3)
            inner = random_delta_train(rng, 3)
            composed = compose_gfrf(outer, inner, max_order=3)
            for _ in range(30):
                n = int(rng.integers(1, 4))
                w = rng.uniform(-10, 10, size=n)
                got = composed.evaluate(n, list(w))
                ref = theorem_composition_value(outer, inner, n, w)
                assert abs(got - ref) <= 1e-10

    def test_matches_direct_theorem_evaluation_with_atom_factors(
            self, g_narrow, g_wide):
        rng = np.random.default_rng(124)
        atoms = {"p": g_narrow, "q": g_wide}
        for trial in range(6):
            outer = random_delta_train(rng, 3)
            inner = random_delta_train(rng, 3, atoms=atoms)
            composed = compose_gfrf(outer, inner, max_order=3)
            for _ in range(30):
                n = int(rng.integers(1, 4))
                w = rng.uniform(-10, 10, size=n)
                got = composed.evaluate(n, list(w))
                ref = theorem_composition_value(outer, inner, n, w)
                assert abs(got - ref) <= 1e-10

    def test_associativity(self):
        rng = np.random.default_rng(31)
        a = random_delta_train(rng, 2, 2)
        b = random_delta_train(rng, 2, 2)
        c = random_delta_train(rng, 2, 2)
        left = compose_gfrf(c, compose_gfrf(b, a, 4), 4)
        right = compose_gfrf(compose_gfrf(c, b, 4), a, 4)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            w = rng.uniform(-10, 10, size=n)
            assert abs(left.evaluate(n, list(w))
                       - right.evaluate(n, list(w))) < 1e-10


class TestPrune:
    def test_merge_only_preserves_evaluation(self):
        rng = np.random.default_rng(77)
        g = random_delta_train(rng, 3)
        # duplicate every term so merging has work to do
        doubled = Gfrf(0.0, {n: list(t) + list(t)
                             for n, t in g.orders.items()})
        pruned, dropped = prune_gfrf(doubled, 0.0)
        assert dropped == 0.0
        for _ in range(40):
            n = int(rng.integers(1, 4))
            w = rng.uniform(-10, 10, size=n)
            assert abs(pruned.evaluate(n, list(w))
                       - 2 * g.evaluate(n, list(w))) < 1e-12

    def test_opposite_terms_cancel(self):
        g = Gfrf(0.0, {1: [GfrfTerm(0.7, (0.1,), (UNITY,)),
                           GfrfTerm(-0.7, (0.1,), (UNITY,))]})
        pruned, dropped = prune_gfrf(g, 0.0)
        assert pruned.orders.get(1, []) == []
        assert dropped == 0.0

    def test_dropped_mass_bounds_evaluation_change(self):
        rng = np.random.default_rng(13)
        g = random_delta_train(rng, 2, 4)
        pruned, dropped = prune_gfrf(g, 0.3)
        merged, _ = prune_gfrf(g, 0.0)
        for _ in range(60):
            n = int(rng.integers(1, 3))
            w = rng.uniform(-10, 10, size=n)
            delta = abs(pruned.evaluate(n, list(w))
                        - merged.evaluate(n, list(w)))
            assert delta <= dropped + 1e-12

    @pytest.mark.parametrize("text", ["p", "once[0.2,0.4] p"])
    def test_negative_threshold_rejected_before_any_fit(self, kernel_table,
                                                        monkeypatch, text):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the threshold check")

        clear_fit_cache()
        monkeypatch.setattr(compose, "fit_poly_delay", no_fit)
        with pytest.raises(BadArity):
            build_formula_operator(parse_formula(text), kernel_table, FAST,
                                   prune_threshold=-1.0)

    def test_pruned_build_matches_node_by_node_prune(self, kernel_table):
        """The build drops small terms once per merged node; composing,
        summing and pruning (merge, then drop) at every node by hand gives
        the same terms and the same dropped mass."""
        # the reproduction fits, whose small coefficients prune at 1e-3 in
        # the temporal nodes too
        cfg = FitConfig(max_order=3)
        threshold, order = 1e-3, cfg.max_order
        phi = parse_formula("once[0,0.5] p and hist[0,0.3] q")
        built = build_formula_operator(phi, kernel_table, cfg, threshold)

        def temporal(op, lo, hi, atom):
            fit = cached_poly_fit(op, Interval(lo, hi), cfg)
            child, _ = atom_volterra(kernel_table[atom], atom)
            return prune_gfrf(compose_gfrf(poly_delay_to_gfrf(fit), child,
                                           order), threshold)

        once, dropped_once = temporal("once", 0.0, 0.5, "p")
        hist, dropped_hist = temporal("hist", 0.0, 0.3, "q")
        fit = cached_separable_fit("min", cfg)
        want, dropped_and = prune_gfrf(sum_gfrf(
            compose_gfrf(memoryless_poly_gfrf(fit.r), once, order),
            compose_gfrf(memoryless_poly_gfrf(fit.q), hist, order)),
            threshold)
        assert dropped_once > 0 and dropped_and > 0
        assert_same_terms(built.gfrf, want)
        assert built.report.dropped_mass == \
            0.0 + dropped_once + dropped_hist + dropped_and


class TestFormulaPipeline:
    def test_atom_formula(self, kernel_table, g_narrow):
        g = formula_to_gfrf(Atom("g"), kernel_table, FAST)
        assert g.term_counts() == {1: 1}
        assert abs(g.evaluate(1, [0.0]) - 1.0) < 1e-12

    def test_since_rejected_without_flag(self, kernel_table):
        phi = parse_formula("p since[0,0.5] q")
        with pytest.raises(SinceNotGfrfSupported):
            formula_to_gfrf(phi, kernel_table, FAST)

    def test_true_rejected(self, kernel_table):
        with pytest.raises(TrueNotApproximable):
            formula_to_gfrf(parse_formula("p or true"), kernel_table, FAST)

    def test_unknown_atom(self, kernel_table):
        with pytest.raises(UnknownAtom):
            formula_to_gfrf(parse_formula("nosuch"), kernel_table, FAST)

    def test_fit_cache_reuses_fits(self, kernel_table):
        clear_fit_cache()
        phi = parse_formula("once[0,0.3] p or once[0,0.3] q")
        from bbstl import compose as compose_module
        built = build_formula_operator(phi, kernel_table, FAST)
        poly_keys = [k for k in compose_module._FIT_CACHE if k[0] == "poly"]
        assert len(poly_keys) == 1   # same interval fitted once

    def test_hist_formula_is_lowpass_order1(self, kernel_table):
        phi = parse_formula("hist[1,1.2] p")
        g = formula_to_gfrf(phi, kernel_table)
        mag0 = abs(g.evaluate(1, [0.0]))
        mag_hi = abs(g.evaluate(1, [6 * np.pi]))
        assert mag_hi < 0.5 * mag0

    def test_nested_conjunction_chain(self, kernel_table):
        # a and (once (b and once c)): every stage contributes; the chain
        # assembles without blow-up at order cap 2 and each intermediate
        # stage has an exportable first-order response
        cfg = FitConfig(**{**FAST.to_json(), "max_order": 2,
                           "freq_range": FAST.freq_range, "delays": None})
        stage_texts = ["g", "q and once[0,0.3] g",
                       "p and once[0,0.3](q and once[0,0.3] g)"]
        dc = []
        for text in stage_texts:
            built = build_formula_operator(parse_formula(text), kernel_table,
                                           cfg)
            assert built.gfrf.orders[1]
            value = built.gfrf.evaluate(1, [0.0])
            assert np.isfinite(value)
            dc.append(abs(value))
        assert all(v > 0.1 for v in dc)


class TestSinceSampled:
    def test_requires_opt_in(self, kernel_table):
        with pytest.raises(SinceSamplingDisabled):
            since_sampled_gfrf(Atom("p"), Atom("q"), Interval(0.0, 0.5), 2,
                               kernel_table, FAST)

    def test_eta_grid_sorted_and_in_range(self, kernel_table):
        samples = since_sampled_gfrf(Atom("p"), Atom("q"),
                                     Interval(0.2, 0.6), 4, kernel_table,
                                     FAST, enabled=True)
        etas = [s.eta for s in samples]
        assert etas == sorted(etas)
        assert all(-1e-12 <= e <= 0.4 + 1e-12 for e in etas)
        assert len(samples) == 4

    def test_punctual_window_matches_since_within_fit_tolerance(
            self, kernel_table):
        from bbstl.logic import Since
        from bbstl.monitor import robustness
        from bbstl.signals import align_signals, sum_of_sinusoids
        from bbstl.volterra import apply_pipeline
        interval = Interval(0.3, 0.3)
        samples = since_sampled_gfrf(Atom("p"), Atom("q"), interval, 1,
                                     kernel_table, FitConfig(), enabled=True)
        assert len(samples) == 1
        x = sum_of_sinusoids(55, 1, FitConfig().freq_range, 1.0, (0.0, 10.0),
                             DT)
        env = apply_pipeline(samples[0].pipeline, x)
        rho = robustness(Since(interval, Atom("p"), Atom("q")), x,
                         kernel_table)
        a, b = align_signals(env, rho.signal)
        err = np.sqrt(np.mean((a.samples - b.samples) ** 2))
        # dominated by the separable-min fit residual
        assert err < 0.3


class TestSymmetrize:
    def test_symmetrized_is_permutation_invariant_and_averages(self):
        from bbstl.compose import symmetrize_gfrf
        rng = np.random.default_rng(6)
        g = random_delta_train(rng, 3)
        sym = symmetrize_gfrf(g)
        import itertools as it
        for _ in range(25):
            n = int(rng.integers(2, 4))
            w = rng.uniform(-8, 8, size=n)
            avg = np.mean([g.evaluate(n, list(w[list(p)]))
                           for p in it.permutations(range(n))])
            got = sym.evaluate(n, list(w))
            assert abs(got - avg) < 1e-12
            swapped = list(w[::-1])
            assert abs(sym.evaluate(n, swapped) - got) < 1e-12


ATOMS = {"p": make_gaussian_kernel(0.05, 0.04, 0.2, DT),
         "q": make_gaussian_kernel(0.0, 0.08, 0.4, DT)}


class TestAgainstTermByTermReference:
    """The array algebra reproduces the term-by-term merge and expansion
    term for term: same count, order, factors and exact delays."""

    @settings(max_examples=120)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_merge_terms(self, seed):
        g = random_gfrf(np.random.default_rng(seed), ATOMS)
        assert_same_terms(merge_terms(g), reference_merge(g))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_compose_gfrf(self, seed):
        rng = np.random.default_rng(seed)
        outer = random_gfrf(rng, {}, max_terms=4)
        inner = random_gfrf(rng, ATOMS, max_terms=5)
        assert_same_terms(compose_gfrf(outer, inner, 3),
                          reference_compose(outer, inner, 3))

    def test_near_equal_delays_merge_to_first_occurrence(self):
        g = Gfrf(0.0, {1: [GfrfTerm(0.5, (0.3,), (UNITY,)),
                           GfrfTerm(0.25, (0.1 + 0.2,), (UNITY,)),
                           GfrfTerm(1.0, (0.3 + 2e-12,), (UNITY,))]})
        merged = merge_terms(g).orders[1]
        assert [(t.coeff, t.delays) for t in merged] == \
            [(0.75, (0.3,)), (1.0, (0.3 + 2e-12,))]
