import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bbstl.errors import GridMismatch, SignalTooShortForFormula
from bbstl.logic import (
    Atom,
    Interval,
    Not,
    Once,
    Or,
    Since,
    TrueFormula,
    boolean_signal,
    parse_formula,
)
from bbstl.monitor import (
    robustness,
    since_robustness,
    sliding_extremum,
    temporal_depth,
    valid_domain,
)
from bbstl.signals import Signal, metric_d, sum_of_sinusoids

from conftest import DT, brute_since, brute_sliding


def const_signal(value, dur=6.0, t0=0.0):
    n = int(round(dur / DT)) + 1
    return Signal(t0, DT, np.full(n, value))


class TestValidDomain:
    def test_atom_only(self, kernel_table):
        lo, hi = valid_domain(Atom("g"), (0.0, 10.0), kernel_table)
        assert abs(lo - 0.2) < 1e-12 and abs(hi - 9.8) < 1e-12

    def test_once_adds_depth(self, kernel_table):
        phi = Once(Interval(0.2, 0.4), Atom("g"))
        lo, hi = valid_domain(phi, (0.0, 10.0), kernel_table)
        assert abs(lo - 0.6) < 1e-12 and abs(hi - 9.8) < 1e-12
        # first computable sample of the actual recursion agrees
        x = sum_of_sinusoids(1, 2, (0.5, 4.0), 1.0, (0.0, 10.0), DT)
        rho = robustness(phi, x, kernel_table)
        assert abs(rho.t0 - 0.6) < 1e-9

    def test_true_full_domain(self, kernel_table):
        assert valid_domain(TrueFormula(), (0.0, 10.0), kernel_table) == (0.0, 10.0)

    def test_too_short_signal(self, kernel_table):
        phi = Once(Interval(0.0, 3.0), Atom("g"))
        with pytest.raises(SignalTooShortForFormula):
            valid_domain(phi, (0.0, 2.0), kernel_table)
        with pytest.raises(SignalTooShortForFormula):
            robustness(phi, const_signal(1.0, dur=2.0), kernel_table)

    def test_depth_sums_along_deepest_path(self):
        phi = Since(Interval(0.0, 0.5),
                    Once(Interval(0.0, 1.0), Atom("p")),
                    Atom("q"))
        assert temporal_depth(phi) == 1.5


class TestRobustness:
    def test_atom_on_constant(self, kernel_table):
        rho = robustness(Atom("g"), const_signal(0.7), kernel_table)
        assert np.abs(rho.samples - 0.7).max() < 1e-9

    def test_negation(self, kernel_table):
        rho = robustness(Not(Atom("g")), const_signal(0.7), kernel_table)
        assert np.abs(rho.samples + 0.7).max() < 1e-9

    def test_once_matches_brute_force_window_scan(self, kernel_table):
        from bbstl.signals import correlate
        x = Signal(0.0, DT, np.sin(2 * np.pi * DT * np.arange(1001)))
        phi = Once(Interval(0.2, 0.4), Atom("g"))
        rho = robustness(phi, x, kernel_table)
        meas = correlate(kernel_table["g"], x)
        t = 1.0
        window = (meas.times >= t - 0.4 - 1e-9) & (meas.times <= t - 0.2 + 1e-9)
        oracle = meas.samples[window].max()
        assert abs(rho.at(t) - oracle) < 1e-12

    def test_or_idempotent(self, kernel_table):
        x = sum_of_sinusoids(8, 3, (0.5, 4.0), 1.0, (0.0, 8.0), DT)
        phi = Once(Interval(0.0, 0.3), Atom("p"))
        a = robustness(Or(phi, phi), x, kernel_table)
        b = robustness(phi, x, kernel_table)
        assert np.array_equal(a.samples, b.samples)

    def test_true_is_infinite(self, kernel_table):
        rho = robustness(TrueFormula(), const_signal(-5.0), kernel_table)
        assert np.all(np.isinf(rho.samples)) and np.all(rho.samples > 0)


class TestSlidingExtremum:
    def test_constant(self):
        y = sliding_extremum(const_signal(2.5), Interval(0.1, 0.3), "max")
        assert np.all(y.samples == 2.5)

    def test_singleton_window_is_shift(self):
        x = sum_of_sinusoids(3, 3, (0.5, 5.0), 1.0, (0.0, 4.0), DT)
        y = sliding_extremum(x, Interval(0.3, 0.3), "min")
        k = int(round(0.3 / DT))
        assert np.array_equal(y.samples, x.samples[:len(x) - k])
        assert abs(y.t0 - (x.t0 + 0.3)) < 1e-12

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_matches_brute_force_bit_for_bit(self, mode):
        rng = np.random.default_rng(77)
        for case in range(20):
            n = int(rng.integers(40, 400))
            u = Signal(0.0, DT, rng.normal(size=n))
            a = round(float(rng.uniform(0, 0.1)), 3)
            b = round(a + float(rng.uniform(0, 0.2)), 3)
            if math.ceil(a / DT - 1e-9) > math.floor(b / DT + 1e-9):
                continue
            if math.floor(b / DT + 1e-9) >= n - 1:
                continue
            fast = sliding_extremum(u, Interval(a, b), mode)
            slow = brute_sliding(u, (a, b), mode)
            assert np.array_equal(fast.samples, slow.samples)

    def test_duality(self):
        u = Signal(0.0, DT, np.random.default_rng(5).normal(size=300))
        neg = u.with_samples(-u.samples)
        mn = sliding_extremum(u, Interval(0.05, 0.2), "min")
        mx = sliding_extremum(neg, Interval(0.05, 0.2), "max")
        assert np.array_equal(mn.samples, -mx.samples)


class TestSinceRobustness:
    def test_large_rho1_reduces_to_sliding_max(self):
        rng = np.random.default_rng(21)
        rho2 = Signal(0.0, DT, rng.normal(size=500))
        rho1 = const_signal(1e6, dur=(500 - 1) * DT)
        out = since_robustness(rho1, rho2, Interval(0.1, 0.3))
        ref = sliding_extremum(rho2, Interval(0.1, 0.3), "max")
        assert np.array_equal(out.samples, ref.samples)

    def test_large_rho2_matches_brute_force(self):
        rng = np.random.default_rng(22)
        rho1 = Signal(0.0, DT, rng.normal(size=400))
        rho2 = const_signal(1e6, dur=(400 - 1) * DT)
        out = since_robustness(rho1, rho2, Interval(0.1, 0.3))
        ref = brute_since(rho1, rho2, (0.1, 0.3))
        assert np.array_equal(out.samples, ref.samples)

    def test_degenerate_interval_follows_stated_convention(self):
        # [0,0]: the half-open inner window is empty, so rho2 governs
        rng = np.random.default_rng(23)
        rho1 = Signal(0.0, DT, rng.normal(size=200))
        rho2 = Signal(0.0, DT, rng.normal(size=200))
        out = since_robustness(rho1, rho2, Interval(0.0, 0.0))
        ref = brute_since(rho1, rho2, (0.0, 0.0))
        assert np.array_equal(out.samples, ref.samples)
        assert np.array_equal(out.samples, rho2.samples)

    def test_random_cases_match_brute_force(self):
        rng = np.random.default_rng(24)
        for _ in range(8):
            n = int(rng.integers(60, 250))
            rho1 = Signal(0.0, DT, rng.normal(size=n))
            rho2 = Signal(0.0, DT, rng.normal(size=n))
            a = round(float(rng.uniform(0, 0.05)), 3)
            b = round(a + float(rng.uniform(0.01, 0.15)), 3)
            if math.floor(b / DT + 1e-9) >= n - 1:
                continue
            out = since_robustness(rho1, rho2, Interval(a, b))
            ref = brute_since(rho1, rho2, (a, b))
            assert np.array_equal(out.samples, ref.samples)

    def test_grid_mismatch(self):
        rho1 = Signal(0.0, DT, np.ones(100))
        rho2 = Signal(0.0, DT * 2, np.ones(100))
        with pytest.raises(GridMismatch):
            since_robustness(rho1, rho2, Interval(0.0, 0.1))


# Operand samples: arbitrary reals, small integers (ties) and the +-inf
# that `true` and `not true` produce.
SAMPLE_VALUES = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                          st.integers(-2, 2).map(float),
                          st.sampled_from([np.inf, -np.inf]))


@st.composite
def window_cases(draw, operands):
    """Signals of one length and a window [oa, ob] in samples, with
    lo = 0, punctual windows and windows one sample short of the signal
    (ob = n-2, the longest that leaves two outputs) drawn on purpose."""
    n = draw(st.integers(2, 60))
    ob = draw(st.one_of(st.integers(0, n - 2), st.just(n - 2)))
    oa = draw(st.one_of(st.integers(0, ob), st.just(0), st.just(ob)))
    signals = [Signal(0.0, DT, draw(st.lists(SAMPLE_VALUES, min_size=n,
                                             max_size=n)))
               for _ in range(operands)]
    return signals, (oa * DT, ob * DT)


class TestPropertiesAgainstBruteForce:
    @given(window_cases(1), st.sampled_from(["min", "max"]))
    def test_sliding_extremum(self, case, mode):
        (u,), interval = case
        fast = sliding_extremum(u, Interval(*interval), mode)
        slow = brute_sliding(u, interval, mode)
        assert fast.t0 == slow.t0
        assert np.array_equal(fast.samples, slow.samples)

    @given(window_cases(2))
    def test_since_robustness(self, case):
        (rho1, rho2), interval = case
        fast = since_robustness(rho1, rho2, Interval(*interval))
        slow = brute_since(rho1, rho2, interval)
        assert fast.t0 == slow.t0
        assert np.array_equal(fast.samples, slow.samples)


def doubling_windows(n):
    """(oa, ob) sample windows at the doubling kernel's edges: lengths 1,
    2^k - 1, 2^k and 2^k + 1, starting at 0 and past 0, and the longest
    windows (ob = n - 2)."""
    lengths = sorted({1} | {2 ** k + d for k in range(1, 8)
                            for d in (-1, 0, 1)})
    cases = [(oa, oa + w - 1) for w in lengths for oa in (0, 3)
             if oa + w - 1 <= n - 2]
    return cases + [(0, n - 2), (5, n - 2), (n - 2, n - 2)]


def tied_signal(n, seed):
    """Small integers (many ties) with runs of +-inf."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=n).astype(float)
    x[rng.integers(0, n, size=n // 10)] = np.inf
    x[rng.integers(0, n, size=n // 10)] = -np.inf
    x[40:45] = np.inf
    return Signal(0.0, DT, x)


def sparse_since_pair(n, seed):
    """rho1 at +inf but for a few dips, rho2 at -inf but for a few peaks:
    y(t) is the highest peak in the window capped by the dips after it, so
    the deciding t' can lie anywhere in a wide window."""
    rng = np.random.default_rng(seed)
    x1 = np.full(n, np.inf)
    x1[rng.integers(0, n, size=n // 300)] = rng.integers(0, 10, n // 300)
    x1[rng.integers(0, n)] = -np.inf
    x2 = np.full(n, -np.inf)
    x2[rng.integers(0, n, size=n // 100)] = rng.integers(0, 10, n // 100)
    x2[rng.integers(0, n)] = np.inf
    return Signal(0.0, DT, x1), Signal(0.0, DT, x2)


class TestDoublingKernelEdges:
    N = 150

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_sliding_extremum(self, mode):
        for oa, ob in doubling_windows(self.N):
            u = tied_signal(self.N, oa * 1000 + ob)
            fast = sliding_extremum(u, Interval(oa * DT, ob * DT), mode)
            slow = brute_sliding(u, (oa * DT, ob * DT), mode)
            assert fast.t0 == slow.t0, (oa, ob)
            assert np.array_equal(fast.samples, slow.samples), (oa, ob)

    def test_since_robustness(self):
        cases = [(self.N, oa, ob, tied_signal(self.N, oa * 1000 + ob),
                  tied_signal(self.N, oa * 1000 + ob + 1))
                 for oa, ob in doubling_windows(self.N)]
        # Wide windows reach the top doubling levels and the gap minimum
        # that carries the leading span to the window end.
        n = 1100
        cases += [(n, oa, oa + w - 1, *sparse_since_pair(n, w + oa))
                  for w in (1023, 1024, 1025) for oa in (0, 3)]
        for n, oa, ob, rho1, rho2 in cases:
            fast = since_robustness(rho1, rho2, Interval(oa * DT, ob * DT))
            slow = brute_since(rho1, rho2, (oa * DT, ob * DT))
            assert np.array_equal(fast.samples, slow.samples), (n, oa, ob)


FORMULAS = [
    "p",
    "not p",
    "p and q",
    "p or not q",
    "once[0.1,0.3] p",
    "hist[0,0.2] q",
    "once[0,0.2](p and q)",
    "p since[0.1,0.4] q",
]


class TestSoundness:
    def test_sign_of_robustness_matches_boolean(self, kernel_table):
        for i, text in enumerate(FORMULAS):
            phi = parse_formula(text)
            x = sum_of_sinusoids(300 + i, 3, (0.5, 5.0), 1.0, (0.0, 6.0), DT)
            rho = robustness(phi, x, kernel_table)
            sat = boolean_signal(phi, x, kernel_table)
            assert rho.signal.same_grid(sat)
            from bbstl.signals import align_signals
            r, s = align_signals(rho.signal, sat)
            away = np.abs(r.samples) > 1e-12
            assert np.array_equal(r.samples[away] >= 0,
                                  s.samples[away] >= 0.5)

    def test_perturbation_tube(self, kernel_table):
        # sup-norm-bounded perturbations cannot flip the verdict when the
        # robustness exceeds the perturbation size (the dictionary metric
        # under-reports the true distance, keeping the premise valid)
        rng = np.random.default_rng(9)
        phi = parse_formula("once[0.1,0.3] p")
        x = sum_of_sinusoids(17, 3, (0.5, 4.0), 1.0, (0.0, 6.0), DT)
        rho = robustness(phi, x, kernel_table)
        sat = boolean_signal(phi, x, kernel_table)
        for trial in range(10):
            t_idx = int(rng.integers(0, len(rho.samples)))
            margin = abs(rho.samples[t_idx])
            if margin < 1e-6:
                continue
            bump = rng.normal(size=len(x))
            bump *= 0.9 * margin / np.abs(bump).max()
            y = x.with_samples(x.samples + bump)
            assert metric_d(x, y) < margin + 1e-12
            sat_y = boolean_signal(phi, y, kernel_table)
            assert (sat.samples[t_idx] >= 0.5) == (sat_y.samples[t_idx] >= 0.5)

    def test_monotone_in_signal_for_negation_free_formula(self, kernel_table):
        phi = parse_formula("once[0,0.2](p and q)")
        rng = np.random.default_rng(31)
        x = sum_of_sinusoids(12, 3, (0.5, 4.0), 1.0, (0.0, 6.0), DT)
        lift = x.with_samples(x.samples + np.abs(rng.normal(0.3, 0.1,
                                                            size=len(x))))
        rho_low = robustness(phi, x, kernel_table)
        rho_high = robustness(phi, lift, kernel_table)
        assert np.all(rho_high.samples >= rho_low.samples - 1e-12)
