import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbstl import volterra
from bbstl.analysis import (
    compression_safety_report,
    cutoff_scan,
    gfrf_grid,
    output_spectrum,
    save_grid_csv,
)
from bbstl.compose import build_formula_operator
from bbstl.errors import BadRange, GridTooLarge, OrderTooHigh
from bbstl.logic import parse_formula
from bbstl.signals import (
    Signal,
    Spectrum,
    _smooth_size,
    fft,
    make_gaussian_kernel,
)
from bbstl.volterra import (
    UNITY,
    FitConfig,
    Gfrf,
    GfrfTerm,
    MemorylessPoly,
    atom_volterra,
    memoryless_poly_gfrf,
    negation_volterra,
)

from conftest import DT, compression_signal, tapered_mix
from gfrf_reference import (
    ATOMS,
    random_gfrf,
    reference_evaluate,
    reference_output_spectrum,
)

LARGEST_NESTED = "hist[0,0.3] (once[0,0.2] p and q)"


def without_order(g, drop):
    """``g`` with its order-``drop`` terms removed (``drop=None`` keeps all)."""
    return Gfrf(g.h0, {n: t for n, t in g.orders.items() if n != drop},
                g.atoms)


def l1(g, order):
    return float(np.abs(g.coeffs[order]).sum()) if order in g.coeffs else 0.0


def reference_grid(g, order, axis):
    mesh = np.meshgrid(*([axis] * order), indexing="ij")
    return reference_evaluate(g, order, mesh)


class TestOutputSpectrum:
    def test_linear_case_matches_correlation(self, g_narrow):
        from bbstl.signals import correlate
        x = tapered_mix(3, 3, 1.5, 12.0)
        spec = fft(x)
        g, _ = atom_volterra(g_narrow, "g")
        pred = output_spectrum(g, spec, max_order=1)
        y = correlate(g_narrow, x)
        full = np.zeros(len(x))
        k0 = round((y.t0 - x.t0) / DT)
        full[k0:k0 + len(y)] = y.samples
        ref = fft(x.with_samples(full))
        occ = np.abs(ref.bins) > 1e-4 * np.abs(ref.bins).max()
        err = np.sqrt(np.mean(np.abs(pred.bins[occ] - ref.bins[occ]) ** 2))
        assert err <= 1e-2 * np.sqrt(np.mean(np.abs(ref.bins[occ]) ** 2))

    def test_memoryless_square_matches_time_domain(self):
        x = tapered_mix(5, 3, 1.0, 12.0)
        spec = fft(x)
        alpha = 0.9
        g = memoryless_poly_gfrf(MemorylessPoly((0.0, 0.0, alpha)))
        pred = output_spectrum(g, spec, max_order=2)
        ref = fft(x.with_samples(alpha * x.samples ** 2))
        occ = np.abs(ref.bins) > 1e-4 * np.abs(ref.bins).max()
        err = np.sqrt(np.mean(np.abs(pred.bins[occ] - ref.bins[occ]) ** 2))
        assert err <= 0.05 * np.sqrt(np.mean(np.abs(ref.bins[occ]) ** 2))

    def test_zero_input(self, g_narrow):
        x = Signal(0.0, DT, np.zeros(512))
        g, _ = atom_volterra(g_narrow, "g")
        out = output_spectrum(g, fft(x), max_order=2)
        assert np.all(out.bins == 0)

    def test_order_cap(self, g_narrow):
        g, _ = atom_volterra(g_narrow, "g")
        x = Signal(0.0, DT, np.zeros(64))
        with pytest.raises(OrderTooHigh):
            output_spectrum(g, fft(x), max_order=5)

    def test_square_of_measurement_is_exact_on_padded_band(self):
        # square composed over a table-kernel atom: the hyperplane sums
        # must agree with the time-domain product to numerical precision
        # when the signal is hard-zero outside an interior support and its
        # band occupies a small fraction of Nyquist
        from bbstl.compose import compose_gfrf
        from bbstl.signals import correlate, table_kernel
        from bbstl.volterra import apply_pipeline, MemorylessNode
        tri = np.array([0.25, 0.5, 0.25]) / DT / 1.0
        kern = table_kernel(Signal(-DT, DT, tri / (DT * tri.sum()) * 1.0))
        inner = tapered_mix(21, 3, 1.0, 12.0, ramp=2.0)
        margin = int(round(2.0 / DT))
        samples = np.zeros(2 * margin + len(inner))
        samples[margin: margin + len(inner)] = inner.samples
        x = Signal(0.0, DT, samples)
        atom_g, atom_node = atom_volterra(kern, "tri")
        sq = memoryless_poly_gfrf(MemorylessPoly((0.0, 0.0, 0.55)))
        composed = compose_gfrf(sq, atom_g)
        pred = output_spectrum(composed, fft(x), max_order=2)
        y = correlate(kern, x)
        y = y.with_samples(0.55 * y.samples ** 2)
        full = np.zeros(len(x))
        k0 = round((y.t0 - x.t0) / DT)
        full[k0:k0 + len(y)] = y.samples
        ref = fft(x.with_samples(full))
        err = np.sqrt(np.mean(np.abs(pred.bins - ref.bins) ** 2))
        assert err < 1e-6


    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), max_order=st.integers(1, 4))
    def test_matches_term_by_term_convolutions(self, seed, max_order):
        rng = np.random.default_rng(seed)
        atoms = {"p": make_gaussian_kernel(0.05, 0.04, 0.2, DT)}
        g = random_gfrf(rng, atoms, max_order=4, max_terms=6)
        x = Signal(0.0, DT, rng.normal(size=int(rng.integers(64, 300))))
        spec = fft(x)
        got = output_spectrum(g, spec, max_order).bins
        want, scale = reference_output_spectrum(g, spec, max_order)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_chunking_leaves_spectra_unchanged(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        g = random_gfrf(rng, ATOMS, max_order=4, max_terms=30)
        spec = fft(Signal(0.0, DT, rng.normal(size=257)))
        default = {n: output_spectrum(g, spec, n).bins for n in (2, 3, 4)}
        scale = {n: reference_output_spectrum(g, spec, n)[1]
                 for n in default}
        # one row per chunk, then every row of a contraction in one chunk
        for values in (1, 1 << 40):
            monkeypatch.setattr(volterra, "CONTRACT_VALUES", values)
            for n, want in default.items():
                got = output_spectrum(g, spec, n).bins
                assert np.max(np.abs(got - want)) <= 1e-15 * scale[n]

    def test_each_trie_node_is_transformed_once(self, kernel_table,
                                                 monkeypatch):
        # orders 1-4 of once[0.2,0.4] p over its 6 slots lift the slot
        # table, the trie nodes below each top level and each order's 6
        # folded rows (57 rows), and lower each extended row and each
        # order's sum (101); transforming every parent once per child and
        # lowering every folded row took 238
        g = build_formula_operator(parse_formula("once[0.2,0.4] p"),
                                   kernel_table, FitConfig()).gfrf
        spec = fft(tapered_mix(3, 3, 1.5, 4.0))
        rows = []
        for name in ("fft", "ifft"):
            def counted(a, *args, _transform=getattr(np.fft, name), **kw):
                out = _transform(a, *args, **kw)
                rows.append(out.size // out.shape[-1])
                return out
            monkeypatch.setattr(np.fft, name, counted)
        output_spectrum(g, spec, 4)
        assert g.term_counts() == {1: 6, 2: 21, 3: 56, 4: 126}
        assert sum(rows) <= 158


def _prime_factors(m):
    out, p = [], 2
    while p * p <= m:
        while m % p == 0:
            out.append(p)
            m //= p
        p += 1
    return out + ([m] if m > 1 else [])


def alias_free_bound(n_bins, start):
    return max(2 * n_bins - 1 - start, start + n_bins)


class TestWindowConvolve:
    # even and odd bin counts; for 10, 16, 3, 7, 11 and 67 the alias-free
    # bound at start = n // 2 is itself 5-smooth, so the transform size
    # equals the bound exactly
    SIZES = [1, 2, 3, 7, 9, 10, 11, 14, 16, 31, 67, 100, 257]

    def test_smooth_size_is_the_next_5_smooth_number(self):
        smooth = [m for m in range(1, 5000)
                  if set(_prime_factors(m)) <= {2, 3, 5}]
        for n in range(1, 4000):
            assert _smooth_size(n) == min(m for m in smooth if m >= n)

    def test_bound_is_used_exactly_when_smooth(self):
        for n in (3, 7, 10, 11, 16, 67):
            bound = alias_free_bound(n, n // 2)
            assert _smooth_size(bound) == bound

    @pytest.mark.parametrize("n_bins", SIZES)
    def test_rows_match_linear_convolution(self, n_bins):
        # an order-2 term with delays (d1, d2) outputs bins [n // 2,
        # n // 2 + n) of the linear convolution of its two slot spectra
        rng = np.random.default_rng(n_bins)
        zero, domega = n_bins // 2, 0.7
        spec = Spectrum(-zero * domega, domega, rng.normal(size=n_bins)
                        + 1j * rng.normal(size=n_bins))
        weight = domega / (2 * math.pi)
        for d1, d2 in rng.uniform(0.0, 0.5, size=(3, 2)):
            g = Gfrf(0.0, {2: [GfrfTerm(1.0, (d1, d2), (UNITY, UNITY))]})
            got = output_spectrum(g, spec, 2).bins
            a, b = (np.exp(-1j * d * spec.omegas) * spec.bins
                    for d in (d1, d2))
            want = np.convolve(a, b)[zero: zero + n_bins] * weight
            scale = np.abs(a).sum() * np.abs(b).sum() * weight
            assert got.shape == (n_bins,)
            assert np.max(np.abs(got - want)) <= 1e-14 * scale


class TestGfrfGrid:
    def test_negation_grid_constant(self):
        grid = gfrf_grid(negation_volterra(), 1, 10.0, 33)
        assert np.allclose(grid.values, -1.0)
        assert np.allclose(grid.magnitude(), 1.0)

    def test_wider_gaussian_is_more_lowpass(self):
        wide = make_gaussian_kernel(0.0, 0.3, 1.5, DT)
        narrow = make_gaussian_kernel(0.0, 0.04, 0.2, DT)
        gw, _ = atom_volterra(wide, "w")
        gn, _ = atom_volterra(narrow, "n")
        grid_w = gfrf_grid(gw, 1, 12.0, 49)
        grid_n = gfrf_grid(gn, 1, 12.0, 49)
        mag_w, mag_n = grid_w.magnitude(), grid_n.magnitude()
        assert np.all(np.diff(mag_w) < 1e-12)
        assert np.all(mag_w[1:] < mag_n[1:])

    def test_grid_matches_pointwise_evaluation(self, g_narrow):
        g, _ = atom_volterra(g_narrow, "g")
        grid = gfrf_grid(g, 1, 8.0, 17)
        for idx in (0, 5, 16):
            w = grid.axis[idx]
            assert grid.values[idx] == g.evaluate(1, [w])

    def test_budget_guard(self):
        g = Gfrf(0.0, {3: [GfrfTerm(1.0, (0.0,) * 3, (UNITY,) * 3)]})
        with pytest.raises(GridTooLarge):
            gfrf_grid(g, 3, 10.0, 1000)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3),
           points=st.sampled_from([2, 3, 5, 17]),
           drop=st.sampled_from([None, 1, 2, 3]))
    def test_matches_term_by_term_reference(self, seed, order, points, drop):
        rng = np.random.default_rng(seed)
        g = without_order(random_gfrf(rng, ATOMS), drop)
        omega_max = float(rng.uniform(1.0, 40.0))
        grid = gfrf_grid(g, order, omega_max, points)
        want = reference_grid(g, order, grid.axis)
        assert grid.values.shape == want.shape == (points,) * order
        assert np.max(np.abs(grid.values - want)) <= 1e-12 * l1(g, order)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_chunking_leaves_grids_unchanged(self, seed, monkeypatch):
        g = random_gfrf(np.random.default_rng(seed), ATOMS, max_terms=40)
        points = 7
        default = {n: gfrf_grid(g, n, 20.0, points).values for n in g.coeffs}
        # one row per chunk, then two rows per chunk of the last fold
        for n in g.coeffs:
            for values in (1, 2 * points ** n + 1):
                monkeypatch.setattr(volterra, "CONTRACT_VALUES", values)
                got = gfrf_grid(g, n, 20.0, points).values
                assert np.max(np.abs(got - default[n])) <= 1e-15 * l1(g, n)

    def test_order3_grid_memory(self, kernel_table):
        g = build_formula_operator(parse_formula(LARGEST_NESTED), kernel_table,
                                   FitConfig(max_order=3)).gfrf
        g.slot_trie(3)
        points = 33
        tracemalloc.start()
        try:
            gfrf_grid(g, 3, 8 * math.pi, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # output + the folded prefixes (V, P^2) + a few row chunks
        bound = (points ** 3 + len(g.slot_delays) * points ** 2
                 + 8 * volterra.CONTRACT_VALUES)
        assert peak < bound * np.dtype(complex).itemsize

    def test_csv_export(self, tmp_path, g_narrow):
        g, _ = atom_volterra(g_narrow, "g")
        grid = gfrf_grid(g, 1, 5.0, 9)
        path = tmp_path / "h1.csv"
        save_grid_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega1,re,im,abs"
        assert len(lines) == 10


class TestCutoff:
    def test_pure_delay_never_below_threshold(self):
        delay = Gfrf(0.0, {1: [GfrfTerm(1.0, (0.2,), (UNITY,))]})
        scan = cutoff_scan(delay, 0.5, 20.0, 41, max_order=1)
        assert not scan.found
        assert scan.omega_star == 20.0

    def test_threshold_above_peak_gives_zero(self, g_narrow):
        g, _ = atom_volterra(g_narrow, "g")
        assert cutoff_scan(g, 1.5, 20.0, 41, max_order=1).omega_star == 0.0

    def test_monotone_in_threshold(self, kernel_table):
        phi = parse_formula("once[0.2,0.4] p")
        built = build_formula_operator(phi, kernel_table, FitConfig())
        cuts = [cutoff_scan(built.gfrf, thr, 8 * math.pi, 33,
                            max_order=1).omega_star
                for thr in (0.3, 0.5, 0.76, 1.0)]
        assert all(cuts[i] >= cuts[i + 1] - 1e-12 for i in range(len(cuts) - 1))

    def test_gaussian_atom_cutoff_tracks_bandwidth(self, g_narrow):
        g, _ = atom_volterra(g_narrow, "g")
        # |H1| = exp(-(s w)^2 / 2) crosses 0.1 at w = sqrt(2 ln 10)/s
        want = math.sqrt(2 * math.log(10)) / 0.04
        got = cutoff_scan(g, 0.1, 80.0, 641, max_order=1).omega_star
        assert abs(got - want) <= 80.0 / 640 + 1e-9

    @pytest.mark.parametrize("omega_max", [10.0, 12.0])
    def test_cutoff_follows_the_last_crossing(self, omega_max):
        # |1 + exp(-i w)| = 2 |cos(w / 2)| dips under 1 on (2.09, 4.19) and
        # (8.38, 10.47): only the second dip can hold the cut-off, and at
        # omega_max = 12 the scan ends above the threshold
        g = Gfrf(0.0, {1: [GfrfTerm(1.0, (0.0,), (UNITY,)),
                           GfrfTerm(1.0, (1.0,), (UNITY,))]})
        scan = cutoff_scan(g, 1.0, omega_max, 97, max_order=1)
        idx = len(scan.axis)
        while idx > 0 and scan.envelope[idx - 1] < 1.0:
            idx -= 1
        assert scan.found == (idx < len(scan.axis))
        assert scan.omega_star == (scan.axis[idx] if scan.found
                                   else omega_max)
        assert scan.found == (omega_max == 10.0)
        if scan.found:
            assert 8.3 < scan.omega_star < 8.6

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2 ** 32 - 1), max_order=st.integers(1, 3),
           points=st.sampled_from([2, 3, 5, 17]),
           drop=st.sampled_from([None, 1, 2, 3]))
    def test_envelope_matches_term_by_term_grids(self, seed, max_order,
                                                 points, drop):
        rng = np.random.default_rng(seed)
        g = without_order(random_gfrf(rng, ATOMS), drop)
        scan = cutoff_scan(g, 0.5, 25.0, points, max_order)
        want = np.zeros(points)
        for n in range(1, max_order + 1):
            mag = np.abs(reference_grid(g, n, scan.axis))
            for slot in range(n):
                other = tuple(ax for ax in range(n) if ax != slot)
                want = np.maximum(want, mag.max(axis=other) if other
                                  else mag)
        scale = max(l1(g, n) for n in range(1, max_order + 1))
        assert np.max(np.abs(scan.envelope - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("points", [0, 1])
    def test_too_few_points(self, g_narrow, points):
        g, _ = atom_volterra(g_narrow, "g")
        with pytest.raises(BadRange):
            cutoff_scan(g, 0.5, 20.0, points, max_order=1)

    def test_budget_is_checked_before_any_grid(self, monkeypatch):
        g = Gfrf(0.0, {1: [GfrfTerm(1.0, (0.1,), (UNITY,))],
                       2: [GfrfTerm(1.0, (0.1, 0.2), (UNITY, UNITY))]})
        calls = []
        for name in ("grid", "evaluate"):
            monkeypatch.setattr(Gfrf, name,
                                lambda self, n, w: calls.append(n))
        with pytest.raises(GridTooLarge):
            cutoff_scan(g, 0.5, 20.0, 5000, max_order=2)
        assert calls == []

    def test_budget_counts_only_orders_present(self):
        # no order-2 terms: only 5000^1 is evaluated, within the budget
        g = Gfrf(0.0, {1: [GfrfTerm(1.0, (0.1,), (UNITY,))]})
        scan = cutoff_scan(g, 0.5, 20.0, 5000, max_order=2)
        assert len(scan.envelope) == 5000

    def test_window_max_formula_cutoff_near_1_5_hz(self, kernel_table):
        # documented reproduction setting: first-order scan over [0, 8*pi]
        # at step pi/4 with threshold 0.76 places the cut-off at 1.5 Hz
        phi = parse_formula("once[0.2,0.4] p")
        built = build_formula_operator(phi, kernel_table, FitConfig())
        scan = cutoff_scan(built.gfrf, 0.76, 8 * math.pi, 33, max_order=1)
        assert scan.found
        assert abs(scan.omega_star - 3 * math.pi) <= math.pi / 4 + 1e-9


class TestCompressionReport:
    def test_safe_at_formula_bandwidth(self, kernel_table):
        phi = parse_formula("once[0.2,0.4] p")
        x = compression_signal()
        report, xc, rho, rho_c = compression_safety_report(
            phi, x, 2 * math.pi * 1.5, kernel_table)
        assert report.verdict == "safe"
        assert report.rho_rel_diff <= 0.05
        assert report.truth_flip_count == 0
        assert report.signal_rel_diff > 0.3   # visibly different signal

    def test_unsafe_below_formula_bandwidth(self, kernel_table):
        phi = parse_formula("once[0.2,0.4] p")
        x = compression_signal()
        report, *_ = compression_safety_report(phi, x, 2 * math.pi * 0.5,
                                               kernel_table)
        assert report.verdict == "unsafe"
        assert report.truth_flip_count > 0

    def test_near_nyquist_cutoff_is_identity(self, kernel_table):
        phi = parse_formula("once[0.2,0.4] p")
        x = compression_signal()
        report, *_ = compression_safety_report(
            phi, x, x.nyquist * 0.999, kernel_table)
        assert report.verdict == "safe"
        assert report.rho_rel_diff < 1e-9
        assert report.truth_flip_count == 0

    def test_deterministic_reports(self, kernel_table):
        phi = parse_formula("once[0.2,0.4] p")
        x = compression_signal()
        a, *_ = compression_safety_report(phi, x, 2 * math.pi * 1.5,
                                          kernel_table)
        b, *_ = compression_safety_report(phi, x, 2 * math.pi * 1.5,
                                          kernel_table)
        assert a.to_json() == b.to_json()

    def test_signal_rel_diff_monotone_in_cutoff(self, kernel_table):
        phi = parse_formula("once[0.2,0.4] p")
        x = compression_signal()
        diffs = []
        for hz in (0.5, 1.5, 3.0, 25.0):
            report, *_ = compression_safety_report(
                phi, x, 2 * math.pi * hz, kernel_table)
            diffs.append(report.signal_rel_diff)
        assert all(diffs[i] >= diffs[i + 1] - 1e-12
                   for i in range(len(diffs) - 1))
