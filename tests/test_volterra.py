import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbstl.errors import BadRange, UnderdeterminedSystem
from bbstl.logic import Interval
from bbstl.signals import make_gaussian_kernel, sum_of_sinusoids
from bbstl.volterra import (
    EVAL_BLOCK,
    UNITY,
    FitConfig,
    Gfrf,
    MemorylessPoly,
    PolyDelayOperator,
    apply_pipeline,
    atom_volterra,
    exponent_vectors,
    fit_poly_delay,
    fit_separable_minmax,
    memoryless_poly_gfrf,
    negation_volterra,
    poly_delay_to_gfrf,
)

from conftest import DT
from gfrf_reference import (
    ATOMS,
    assert_same_arrays,
    random_gfrf,
    reference_evaluate,
    reference_poly_delay_gfrf,
)

CFG = FitConfig()
FAST = FitConfig(num_signals=12, times_per_signal=24, duration=8.0,
                 num_delays=4, degree=3)


def bounded_composition_count(D, d, n):
    """|Delta_d^D(n)| by direct enumeration over the bounded box."""
    import itertools
    return sum(1 for r in itertools.product(range(d + 1), repeat=D)
               if sum(r) == n)


class TestExponentVectors:
    def test_counts_match_bounded_compositions(self):
        for D, d in [(3, 2), (4, 3), (6, 4)]:
            exps = exponent_vectors(D, d)
            assert len(exps) == len(set(exps))
            for n in range(1, d + 1):
                got = sum(1 for r in exps if sum(r) == n)
                assert got == bounded_composition_count(D, d, n)

    def test_zero_vector_excluded(self):
        assert all(any(r) for r in exponent_vectors(5, 3))


class TestAtomAndNegationGfrf:
    def test_zero_mean_gaussian_transfer_is_real_lowpass(self, g_narrow):
        g, _ = atom_volterra(g_narrow, "g")
        h0 = g.evaluate(1, [0.0])
        assert abs(h0 - 1.0) < 1e-12
        w = np.linspace(0.0, 40.0, 7)
        vals = g.evaluate(1, [w])
        assert np.abs(vals.imag).max() < 1e-12
        assert np.all(np.diff(vals.real) < 0)

    def test_shifted_gaussian_magnitude_independent_of_mean(self):
        a = make_gaussian_kernel(0.0, 0.05, 0.25, DT)
        b = make_gaussian_kernel(0.1, 0.05, 0.35, DT)
        ga, _ = atom_volterra(a, "a")
        gb, _ = atom_volterra(b, "b")
        w = 7.3
        assert abs(abs(ga.evaluate(1, [w])) - abs(gb.evaluate(1, [w]))) < 1e-12

    def test_atom_has_no_higher_orders(self, g_narrow):
        g, _ = atom_volterra(g_narrow, "g")
        assert g.evaluate(2, [1.0, 2.0]) == 0
        assert g.max_order == 1
        assert g.h0 == 0.0

    def test_negation(self):
        g = negation_volterra()
        assert g.evaluate(1, [3.7]) == -1.0
        assert g.h0 == 0.0
        from bbstl.compose import compose_gfrf
        twice = compose_gfrf(g, g)
        assert twice.evaluate(1, [0.9]) == 1.0


class TestMemorylessGfrf:
    def test_identity(self):
        g = memoryless_poly_gfrf(MemorylessPoly((0.0, 1.0)))
        assert g.evaluate(1, [2.2]) == 1.0
        assert g.evaluate(2, [1.0, 2.0]) == 0

    def test_square(self):
        g = memoryless_poly_gfrf(MemorylessPoly((0.0, 0.0, 0.4)))
        assert g.evaluate(2, [5.0, -3.0]) == pytest.approx(0.4)

    def test_constant_over_frequencies(self):
        g = memoryless_poly_gfrf(MemorylessPoly((0.0, 0.7, 0.0, 0.1)))
        assert g.evaluate(1, [0.3]) == g.evaluate(1, [11.0])


class TestPolyDelayGfrf:
    def test_pure_delay_term(self):
        fit = fit_poly_delay("once", Interval(0.3, 0.3),
                             FitConfig(num_signals=8, times_per_signal=12,
                                       duration=6.0, ridge=0.0))
        g = poly_delay_to_gfrf(fit)
        w = math.pi
        assert abs(g.evaluate(1, [w]) - np.exp(-1j * 0.3 * w)) < 1e-6

    def test_quadratic_exponent_expansion(self):
        from bbstl.volterra import PolyDelayOperator
        op = PolyDelayOperator("once", Interval(0.1, 0.5), (0.1, 0.5), 2,
                               (((2, 0), 0.7),))
        g = poly_delay_to_gfrf(op)
        w1, w2 = 2.0, 5.0
        expect = 0.7 * np.exp(-1j * 0.1 * (w1 + w2))
        assert abs(g.evaluate(2, [w1, w2]) - expect) < 1e-14

    def test_term_count_per_order(self):
        fit = fit_poly_delay("once", Interval(0.0, 0.5), FAST)
        g = poly_delay_to_gfrf(fit)
        for n in range(1, FAST.degree + 1):
            assert len(g.orders[n]) == bounded_composition_count(
                FAST.num_delays, FAST.degree, n)

    def test_conjugate_symmetry(self):
        fit = fit_poly_delay("hist", Interval(0.0, 0.4), FAST)
        g = poly_delay_to_gfrf(fit)
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            w = rng.uniform(-20, 20, size=n)
            a = g.evaluate(n, list(w))
            b = g.evaluate(n, list(-w))
            assert abs(b - np.conj(a)) < 1e-12

    @pytest.mark.parametrize("op, lo, hi, cfg", [
        ("once", 0.2, 0.4, FAST),
        ("hist", 0.0, 0.3, FAST),
        ("once", 0.3, 0.3, FAST),                      # punctual: one delay
        ("hist", 0.0, 0.4, FitConfig(num_signals=12, times_per_signal=24,
                                     duration=8.0, degree=3,
                                     delays=(0.0, 0.2, 0.2, 0.4))),
    ] + [("once", 0.0, 0.5, FitConfig(num_signals=12, times_per_signal=24,
                                      duration=8.0, num_delays=3,
                                      degree=d)) for d in range(1, 6)])
    def test_fitted_expansion_matches_term_list_reference(self, op, lo, hi,
                                                          cfg):
        fit = fit_poly_delay(op, Interval(lo, hi), cfg)
        assert_same_arrays(poly_delay_to_gfrf(fit),
                           reference_poly_delay_gfrf(fit))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_expansion_matches_term_list_reference(self, seed):
        # repeated delays, any degree 1-5, terms in any order, zero and
        # non-zero coefficients
        rng = np.random.default_rng(seed)
        num_delays = int(rng.integers(1, 6))
        delays = tuple(float(d) for d in
                       rng.choice([0.0, 0.1, 0.2, 0.1 + 0.2, 0.3], num_delays))
        degree = int(rng.integers(1, 6))
        exps = exponent_vectors(num_delays, degree)
        order = rng.permutation(len(exps))
        terms = tuple((exps[i], float(rng.normal()) * (i % 5 != 0))
                      for i in order)
        op = PolyDelayOperator("once", Interval(0.0, 0.3), delays, degree,
                               terms)
        assert_same_arrays(poly_delay_to_gfrf(op),
                           reference_poly_delay_gfrf(op))


class TestFitPolyDelay:
    def test_singleton_window_recovers_pure_delay(self):
        cfg = FitConfig(num_signals=8, times_per_signal=12, duration=6.0,
                        ridge=0.0)
        fit = fit_poly_delay("once", Interval(0.3, 0.3), cfg)
        coeffs = fit.coefficients
        assert abs(coeffs[(1,)] - 1.0) < 1e-9
        for r, alpha in fit.terms:
            if r != (1,):
                assert abs(alpha) < 1e-9
        assert fit.diagnostics.rms_residual < 1e-9

    def test_default_training_residual(self):
        fit = fit_poly_delay("once", Interval(0.0, 0.5), CFG)
        # achievable floor for a degree-4 polynomial over 6 delays
        assert fit.diagnostics.rel_residual < 0.05
        assert fit.diagnostics.rows > fit.diagnostics.unknowns

    def test_hist_once_duality_on_held_out_signals(self):
        once = fit_poly_delay("once", Interval(0.0, 0.4), FAST)
        hist = fit_poly_delay("hist", Interval(0.0, 0.4), FAST)
        tol = 2 * max(once.diagnostics.rms_residual,
                      hist.diagnostics.rms_residual) + 1e-9
        for seed in (901, 902):
            u = sum_of_sinusoids(seed, FAST.num_terms, FAST.freq_range,
                                 FAST.amp_bound, (0.0, 8.0), FAST.dt)
            pred_hist = hist.apply(u)
            neg = u.with_samples(-u.samples)
            pred_once_neg = once.apply(neg)
            err = np.abs(pred_hist.samples + pred_once_neg.samples)
            assert np.sqrt(np.mean(err ** 2)) <= tol

    def test_residual_monotone_in_model_size(self):
        base = FitConfig(num_signals=10, times_per_signal=30, duration=8.0,
                         ridge=0.0)
        res = []
        for D, d in [(3, 2), (4, 3), (6, 4)]:
            cfg = FitConfig(**{**base.to_json(), "num_delays": D, "degree": d,
                               "freq_range": base.freq_range, "delays": None})
            fit = fit_poly_delay("once", Interval(0.0, 0.5), cfg)
            res.append(fit.diagnostics.rms_residual)
        assert res[0] >= res[1] - 1e-10 >= res[2] - 2e-10

    def test_features_equal_column_loop(self):
        # reference: one column per exponent vector, the delayed samples'
        # powers multiplied in left to right, zero exponents skipped
        from bbstl.volterra import polynomial_features
        sampled = np.random.default_rng(4).uniform(-1.5, 1.5, (300, 6))
        exps = exponent_vectors(6, 4)
        powers = [np.ones_like(sampled)]
        for _ in range(4):
            powers.append(powers[-1] * sampled)
        want = np.empty((300, len(exps)))
        for c, r in enumerate(exps):
            col = np.ones(300)
            for j, r_j in enumerate(r):
                if r_j:
                    col = col * powers[r_j][:, j]
            want[:, c] = col
        got = polynomial_features(sampled, exps)
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous

    def test_batched_features_equal_per_signal_loop(self):
        # the fit builds its design matrix with one feature call over all
        # training rows; a call per signal must give the same bits
        from bbstl.monitor import sliding_extremum
        from bbstl.volterra import (
            PolyDelayOperator,
            _scaled_lstsq,
            _training_times,
            polynomial_features,
        )
        interval = Interval(0.0, 0.4)
        fit = fit_poly_delay("hist", interval, FAST)
        exps = fit.exponents()
        proto = PolyDelayOperator("hist", interval, fit.delays, FAST.degree,
                                  tuple((r, 0.0) for r in exps))
        blocks, targets = [], []
        for ell in range(FAST.num_signals):
            u = FAST.training_signal(ell)
            sampled, template = proto.delayed_matrix(u)
            ks = _training_times((template.t0, template.t_end), u.dt,
                                 FAST.times_per_signal)
            blocks.append(polynomial_features(sampled[ks], exps))
            targets.append(sliding_extremum(u, interval, "min").samples[ks])
        coef, _, _ = _scaled_lstsq(np.vstack(blocks),
                                   np.concatenate(targets), FAST.ridge)
        assert [a for _, a in fit.terms] == coef.tolist()

    @pytest.mark.parametrize("op, hi", [("once", 0.3351), ("hist", 0.3359)])
    def test_off_grid_targets_follow_the_template_times(self, op, hi):
        # the top delay hi rounds up to 168 samples, one past the window
        # trim of 167: the template starts one sample after the exact
        # extremum, and each target must be the extremum at its row's time
        from bbstl.monitor import sliding_extremum
        from bbstl.volterra import (
            _scaled_lstsq,
            _training_times,
            polynomial_features,
        )
        interval = Interval(0.0, hi)
        fit = fit_poly_delay(op, interval, FAST)
        exps = fit.exponents()
        proto = PolyDelayOperator(op, interval, fit.delays, FAST.degree,
                                  tuple((r, 0.0) for r in exps))
        blocks, targets = [], []
        for ell in range(FAST.num_signals):
            u = FAST.training_signal(ell)
            sampled, template = proto.delayed_matrix(u)
            exact = sliding_extremum(u, interval,
                                     "max" if op == "once" else "min")
            assert exact.t0 < template.t0
            ks = _training_times((template.t0, template.t_end), u.dt,
                                 FAST.times_per_signal)
            blocks.append(sampled[ks])
            targets.append([exact.samples[exact.index_of(t)]
                            for t in template.times[ks]])
        coef, _, _ = _scaled_lstsq(polynomial_features(np.vstack(blocks),
                                                       exps),
                                   np.concatenate(targets), FAST.ridge)
        assert [a for _, a in fit.terms] == coef.tolist()

    def test_underdetermined_rejected(self):
        cfg = FitConfig(num_signals=2, times_per_signal=10)
        with pytest.raises(UnderdeterminedSystem):
            fit_poly_delay("once", Interval(0.0, 0.5), cfg)

    def test_bad_operator_name(self):
        with pytest.raises(BadRange):
            fit_poly_delay("sometimes", Interval(0.0, 0.5), FAST)


class TestSeparableMinMax:
    def test_max_on_identical_pairs_recovers_identity(self):
        # training pairs with u == v: max(u, u) = u, so the separable sum
        # must reproduce the identity on the training amplitude range
        sigs = [sum_of_sinusoids(70 + i, 1, CFG.freq_range, 1.0, (0.0, 8.0),
                                 DT) for i in range(10)]
        fit = fit_separable_minmax("max", cfg=CFG,
                                   pairs=[(s, s) for s in sigs])
        s = np.linspace(-0.9, 0.9, 41)
        total = fit.r(s) + fit.q(s)
        assert np.abs(total - s).max() < 0.01

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_default_pairs_are_the_training_signals(self, mode):
        # the default fit reads only the sampled times of its pairs
        pairs = [(CFG.training_signal(ell, 104729),
                  CFG.training_signal(ell, 1299709))
                 for ell in range(CFG.num_signals)]
        want = fit_separable_minmax(mode, cfg=CFG, pairs=pairs)
        got = fit_separable_minmax(mode, cfg=CFG)
        assert got.r.coeffs == want.r.coeffs
        assert got.q.coeffs == want.q.coeffs
        assert got.rms_residual == want.rms_residual

    def test_swap_symmetry(self):
        fit = fit_separable_minmax("max", cfg=CFG)
        assert np.allclose(fit.r.coeffs, fit.q.coeffs, atol=1e-9)

    def test_min_plus_max_is_sum_identity(self):
        # exact linear-algebra identity (min + max = u + v) requires the
        # plain least-squares solution, so no ridge here
        cfg = FitConfig(ridge=0.0, num_signals=12, times_per_signal=30)
        fmin = fit_separable_minmax("min", cfg=cfg)
        fmax = fit_separable_minmax("max", cfg=cfg)
        s = np.linspace(-1.0, 1.0, 101)
        total = fmin.r(s) + fmax.r(s) + fmin.q(s) + fmax.q(s)
        assert np.abs(total - 2 * s).max() < 1e-6


class TestApplyPipeline:
    def test_atom_leaf_equals_correlate(self, g_narrow):
        from bbstl.signals import correlate
        _, node = atom_volterra(g_narrow, "g")
        x = sum_of_sinusoids(4, 3, (0.5, 5.0), 1.0, (0.0, 4.0), DT)
        assert np.array_equal(apply_pipeline(node, x).samples,
                              correlate(g_narrow, x).samples)

    def test_negated_atom(self, g_narrow):
        from bbstl.signals import correlate
        from bbstl.volterra import NegNode
        _, node = atom_volterra(g_narrow, "g")
        x = sum_of_sinusoids(4, 3, (0.5, 5.0), 1.0, (0.0, 4.0), DT)
        out = apply_pipeline(NegNode(node), x)
        assert np.array_equal(out.samples, -correlate(g_narrow, x).samples)

    def test_fitted_once_tracks_monitor(self, kernel_table):
        from bbstl.compose import build_formula_operator
        from bbstl.logic import parse_formula
        from bbstl.monitor import robustness
        from bbstl.signals import align_signals
        phi = parse_formula("once[0.2,0.4] g")
        built = build_formula_operator(phi, kernel_table, CFG)
        resid = built.report.fit_residuals["once[0.2,0.4]"]
        x = sum_of_sinusoids(888, CFG.num_terms, CFG.freq_range, 1.0,
                             (0.0, 10.0), DT)
        yp = apply_pipeline(built.pipeline, x)
        rho = robustness(phi, x, kernel_table)
        a, b = align_signals(yp, rho.signal)
        err = np.sqrt(np.mean((a.samples - b.samples) ** 2))
        assert err <= 10 * resid

    def test_poly_delay_pipeline_equals_direct_polynomial(self):
        fit = fit_poly_delay("once", Interval(0.0, 0.4), FAST)
        u = sum_of_sinusoids(5, 1, FAST.freq_range, 1.0, (0.0, 6.0), DT)
        via_apply = fit.apply(u)
        sampled, template = fit.delayed_matrix(u)
        from bbstl.volterra import polynomial_features
        direct = polynomial_features(sampled, fit.exponents()) @ \
            np.array([a for _, a in fit.terms])
        assert np.array_equal(via_apply.samples, direct)


class TestEvaluateGfrf:
    def test_delay_phase(self):
        from bbstl.volterra import Gfrf, GfrfTerm, UNITY
        g = Gfrf(0.0, {1: [GfrfTerm(1.0, (0.3,), (UNITY,))]})
        val = g.evaluate(1, [math.pi])
        assert abs(val - np.exp(-1j * 0.3 * math.pi)) < 1e-15
        assert abs(abs(val) - 1.0) < 1e-15

    def test_absent_order_is_zero(self, g_narrow):
        g, _ = atom_volterra(g_narrow, "g")
        assert g.evaluate(3, [1.0, 2.0, 3.0]) == 0

    def test_json_roundtrip(self, g_narrow):
        g, _ = atom_volterra(g_narrow, "g")
        from bbstl.volterra import Gfrf
        data = g.to_json()
        back = Gfrf.from_json(data, atoms=g.atoms)
        w = np.linspace(0, 10, 5)
        assert np.allclose(back.evaluate(1, [w]), g.evaluate(1, [w]))


class TestSlotTableEvaluate:
    @settings(max_examples=90)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3),
           layout=st.sampled_from(["scalar", "line", "mesh"]))
    def test_matches_term_by_term_reference(self, seed, order, layout):
        rng = np.random.default_rng(seed)
        g = random_gfrf(rng, ATOMS)
        if layout == "scalar":
            omegas = [float(w) for w in rng.uniform(-30.0, 30.0, order)]
        elif layout == "line":
            omegas = list(rng.uniform(-30.0, 30.0, (order, EVAL_BLOCK + 44)))
        else:
            axis = np.linspace(-30.0, 30.0, {1: 1100, 2: 40, 3: 11}[order])
            omegas = np.meshgrid(*([axis] * order), indexing="ij")
        got = g.evaluate(order, omegas)
        want = reference_evaluate(g, order, omegas)
        assert np.shape(got) == want.shape
        assert layout == "scalar" or want.size > EVAL_BLOCK
        l1 = sum(abs(t.coeff) for t in g.orders[order])
        assert np.max(np.abs(got - want)) <= 1e-12 * l1


class TestSlotTrieCache:
    def test_second_evaluate_reuses_the_trie(self, monkeypatch):
        g = random_gfrf(np.random.default_rng(8), ATOMS)
        built = []
        build = Gfrf._build_trie
        monkeypatch.setattr(Gfrf, "_build_trie",
                            lambda self, n: built.append(n) or build(self, n))
        axis = np.linspace(-5.0, 5.0, 7)
        mesh = np.meshgrid(axis, axis, axis, indexing="ij")
        first = g.evaluate(3, mesh)
        trie = g.slot_trie(3)
        second = g.evaluate(3, mesh)
        assert built == [3]
        assert g.slot_trie(3) is trie
        assert np.array_equal(first, second)

    def test_stored_arrays_are_read_only(self):
        g = random_gfrf(np.random.default_rng(9), ATOMS)
        g.evaluate(2, (1.0, 2.0))
        for arr in (g.coeffs[2], g.slot_ids[2], g.slot_delays):
            with pytest.raises(ValueError):
                arr[0] = arr[0] + 1
            with pytest.raises(ValueError):
                arr += 1

    def test_from_slots_leaves_caller_arrays_writable(self):
        delays = np.array([0.0, 0.1])
        coeffs = {1: np.array([1.0, 2.0])}
        ids = {1: np.array([[0], [1]])}
        g = Gfrf.from_slots(0.0, delays, (UNITY, UNITY), coeffs, ids)
        coeffs[1][0] = 5.0
        ids[1][0, 0] = 1
        delays[0] = 0.3
        assert g.coeffs[1].tolist() == [1.0, 2.0]
        assert g.slot_ids[1].tolist() == [[0], [1]]
        assert g.slot_delays.tolist() == [0.0, 0.1]


class TestFromSlotsFolding:
    @settings(max_examples=120)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_term_list_constructor(self, seed):
        """A raw vocabulary with exact duplicates placed after their
        first copy, unused entries anywhere (copies of used ones too) and
        every occurrence on a random copy folds to the arrays the
        term-list constructor numbers in first-use order."""
        rng = np.random.default_rng(seed)
        want = random_gfrf(rng, ATOMS)
        entries = list(zip(want.slot_delays.tolist(), want.slot_factors))
        raw, copies = [], [[] for _ in entries]
        for v, entry in enumerate(entries):
            for _ in range(int(rng.integers(0, 3))):    # unused entries
                raw.append(entries[int(rng.integers(len(entries)))]
                           if rng.random() < 0.5 else
                           (float(rng.uniform(0.0, 0.6)), UNITY))
            copies[v].append(len(raw))
            raw.append(entry)
            for _ in range(int(rng.integers(0, 3))):    # later duplicates
                u = int(rng.integers(v + 1))
                copies[u].append(len(raw))
                raw.append(entries[u])
        seen = set()
        slot_ids = {}
        for n, ids in want.slot_ids.items():
            out = np.empty_like(ids)
            for t, row in enumerate(ids.tolist()):
                for j, v in enumerate(row):
                    # first use of an entry takes its first copy
                    out[t, j] = copies[v][0] if v not in seen else \
                        copies[v][int(rng.integers(len(copies[v])))]
                    seen.add(v)
            slot_ids[n] = out
        got = Gfrf.from_slots(want.h0, np.array([d for d, _ in raw]),
                              tuple(f for _, f in raw),
                              {n: c.copy() for n, c in want.coeffs.items()},
                              slot_ids, want.atoms)
        assert_same_arrays(got, want)
