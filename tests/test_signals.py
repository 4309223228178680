import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bbstl.errors import (
    BadRange,
    CutoffAboveNyquist,
    DomainMismatch,
    NonPositiveStd,
    NonUniformGrid,
    SignalShorterThanKernel,
    TruncationTooNarrow,
    WindowOutOfDomain,
)
from bbstl.signals import (
    Signal,
    Spectrum,
    correlate,
    default_metric_dictionary,
    fft,
    ifft,
    kernel_from_spec,
    load_signal_csv,
    lowpass,
    make_gaussian_kernel,
    measure,
    metric_d,
    save_signal_csv,
    save_spectrum_csv,
    sum_of_sinusoids,
    table_kernel,
)

from conftest import DT


def const_signal(value, dur=4.0, dt=DT, t0=0.0):
    n = int(round(dur / dt)) + 1
    return Signal(t0, dt, np.full(n, value))


class TestKernelConstruction:
    def test_paper_kernel_has_unit_l1_norm(self):
        g = make_gaussian_kernel(0.0, 0.04, 0.2, 0.002)
        l1 = g.grid.dt * np.abs(g.grid.samples).sum()
        assert abs(l1 - 1.0) <= 1e-9
        assert g.l1_norm <= 1 + 1e-9

    def test_dc_gain_is_one(self):
        for s in (0.02, 0.05, 0.3):
            g = make_gaussian_kernel(0.0, s, 4 * s, DT)
            assert abs(g.transfer(0.0) - 1.0) < 1e-12
            # discrete DC gain of the sampled grid is exactly the L1 norm
            assert abs(g.grid.dt * g.grid.samples.sum() - 1.0) < 1e-9

    def test_transfer_matches_analytic_value(self):
        # |F| at omega = 2/s falls to exp(-2); cross-check sampled grid
        g = make_gaussian_kernel(0.0, 0.3, 1.2, 0.002)
        w = 2 / 0.3
        assert abs(abs(g.transfer(w)) - math.exp(-2)) < 1e-12
        dtft = g.grid.dt * np.sum(
            g.grid.samples * np.exp(-1j * w * g.grid.times))
        assert abs(dtft - g.transfer(w)) < 2e-3   # 4-sigma truncation

    def test_validation_errors(self):
        with pytest.raises(NonPositiveStd):
            make_gaussian_kernel(0.0, 0.0, 0.2, DT)
        with pytest.raises(TruncationTooNarrow):
            make_gaussian_kernel(0.0, 0.1, 0.2, DT)
        with pytest.raises(BadRange):
            make_gaussian_kernel(0.0, 0.1, 0.4, -DT)

    def test_table_kernel_l1_cap(self):
        grid = Signal(-0.01, DT, np.full(11, 200.0))
        with pytest.raises(BadRange):
            table_kernel(grid)


class TestMeasure:
    def test_unit_kernel_averages_constant(self, g_narrow):
        x = const_signal(0.7)
        assert abs(measure(g_narrow, x, 1.0) - 0.7) < 1e-9

    def test_zero_signal(self, g_narrow):
        x = const_signal(0.0)
        assert measure(g_narrow, x, 2.0) == 0.0

    def test_against_oversampled_direct_sum(self):
        # independent direct-sum oracle at 10x oversampling
        dt_f = DT / 10
        g = make_gaussian_kernel(0.0, 0.04, 0.2, DT)
        g_f = make_gaussian_kernel(0.0, 0.04, 0.2, dt_f)
        t_eval = 0.25

        def x_fun(t):
            return np.sin(2 * np.pi * 1.0 * t)

        tau = g_f.grid.times + t_eval
        oracle = dt_f * np.sum(g_f.grid.samples * x_fun(tau))

        x = Signal(0.0, DT, x_fun(DT * np.arange(501)))
        assert abs(measure(g, x, t_eval) - oracle) < 1e-6

    def test_window_out_of_domain(self, g_narrow):
        x = const_signal(1.0, dur=1.0)
        with pytest.raises(WindowOutOfDomain):
            measure(g_narrow, x, 0.05)

    def test_linearity(self, g_narrow):
        rng = np.random.default_rng(0)
        n = 600
        xa = Signal(0.0, DT, rng.normal(size=n))
        xb = Signal(0.0, DT, rng.normal(size=n))
        a, b = 1.7, -0.4
        combo = Signal(0.0, DT, a * xa.samples + b * xb.samples)
        t = 0.6
        lhs = measure(g_narrow, combo, t)
        rhs = a * measure(g_narrow, xa, t) + b * measure(g_narrow, xb, t)
        assert abs(lhs - rhs) < 1e-9


class TestCorrelate:
    def test_narrow_kernel_approximates_identity(self):
        spike = np.zeros(3)
        spike[1] = 1.0 / DT
        delta = table_kernel(Signal(-DT, DT, spike))
        x = sum_of_sinusoids(3, 3, (0.5, 6.0), 1.0, (0.0, 6.0), DT)
        y = correlate(delta, x)
        k0 = round((y.t0 - x.t0) / DT)
        ref = x.samples[k0: k0 + len(y)]
        err = np.sqrt(np.mean((y.samples - ref) ** 2))
        assert err <= 0.02 * np.sqrt(np.mean(ref ** 2))

    def test_symmetric_kernel_preserves_evenness(self, g_narrow):
        n = 2001
        t = DT * np.arange(n) - 2.0
        x = Signal(-2.0, DT, np.cos(2 * np.pi * 0.8 * t))
        y = correlate(g_narrow, x)
        assert np.allclose(y.samples, y.samples[::-1], atol=1e-9)

    def test_zero_in_zero_out(self, g_wide):
        y = correlate(g_wide, const_signal(0.0))
        assert np.all(y.samples == 0.0)

    def test_domain_trim(self, g_narrow):
        x = const_signal(1.0, dur=2.0)
        y = correlate(g_narrow, x)
        assert abs(y.t0 - 0.2) < 1e-12
        assert abs(y.t_end - 1.8) < 1e-9

    def test_signal_shorter_than_kernel(self, g_wide):
        x = const_signal(1.0, dur=0.5)
        with pytest.raises(SignalShorterThanKernel):
            correlate(g_wide, x)


class TestFourier:
    def test_roundtrip(self):
        x = sum_of_sinusoids(11, 4, (0.5, 30.0), 2.0, (0.5, 8.5), DT)
        back = ifft(fft(x))
        assert np.abs(back.samples - x.samples).max() < 1e-9
        assert abs(back.t0 - x.t0) < 1e-12

    def test_cosine_concentrates_at_its_frequency(self):
        f0 = 1.0
        n = 4000   # integer periods: 8 s
        t = DT * np.arange(n)
        x = Signal(0.0, DT, np.cos(2 * np.pi * f0 * t))
        spec = fft(x)
        mag = np.abs(spec.bins)
        peak = np.abs(spec.omegas[np.argmax(mag)])
        assert abs(peak - 2 * np.pi * f0) < spec.domega
        off_band = np.abs(np.abs(spec.omegas) - 2 * np.pi * f0) > 1.0
        assert mag[off_band].max() < 0.05 * mag.max()

    def test_conjugate_symmetry(self):
        x = sum_of_sinusoids(5, 3, (0.5, 10.0), 1.0, (0.0, 4.0), DT)
        spec = fft(x)
        n = len(spec)
        z = n // 2
        k = np.arange(1, z)
        assert np.abs(spec.bins[z + k] - np.conj(spec.bins[z - k])).max() < 1e-9

    def test_sampled_gaussian_matches_analytic_transfer(self):
        g = make_gaussian_kernel(0.0, 0.04, 0.2, 0.002)
        spec = fft(Signal(g.grid.t0, g.grid.dt, g.grid.samples))
        half_nyquist = math.pi / 0.002 / 2
        sel = np.abs(spec.omegas) <= half_nyquist
        analytic = np.exp(-0.5 * (0.04 * spec.omegas[sel]) ** 2)
        assert np.abs(spec.bins[sel] - analytic).max() < 1e-6


def band_oracle(x, cutoff):
    """Real-FFT low-pass: zero the rfft bins above the cut-off."""
    bins = np.fft.rfft(x.samples)
    omegas = 2 * np.pi * np.fft.rfftfreq(len(x), d=x.dt)
    bins[omegas > cutoff] = 0.0
    return np.fft.irfft(bins, n=len(x))


def bin_omega(n, dt, k):
    """Angular frequency of rfft bin k, as the band rule computes it."""
    return 2 * np.pi * np.fft.rfftfreq(n, d=dt)[k]


def assert_matches_band_oracle(x, cutoff):
    err = np.abs(lowpass(x, cutoff).samples - band_oracle(x, cutoff)).max()
    assert err <= 1e-11 * np.abs(x.samples).max()


def is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestLowpass:
    def test_above_band_cutoff_is_identity(self):
        # DFT-band-limited input: integer periods over the window, so no
        # leakage reaches the zeroed out-of-band bins
        n = 3000
        t = DT * np.arange(n)
        period = n * DT
        x = Signal(0.0, DT, np.sin(2 * np.pi * 4 * t / period)
                   + 0.5 * np.sin(2 * np.pi * 9 * t / period))
        y = lowpass(x, x.nyquist * 0.999)
        assert np.abs(y.samples - x.samples).max() < 1e-9

    def test_band_separation(self):
        n = 5001
        t = DT * np.arange(n)
        low = np.sin(2 * np.pi * 0.5 * t)
        high = np.sin(2 * np.pi * 5.0 * t)
        x = Signal(0.0, DT, low + high)
        y = lowpass(x, 2 * np.pi * 1.5)
        resid = y.samples - low
        assert np.sqrt(np.mean(resid ** 2)) < 0.01 * np.sqrt(np.mean(high ** 2))

    def test_zero(self):
        y = lowpass(const_signal(0.0), 10.0)
        assert np.all(y.samples == 0.0)

    def test_idempotent(self):
        x = sum_of_sinusoids(9, 4, (0.5, 20.0), 1.0, (0.0, 5.0), DT)
        c = 2 * np.pi * 2.0
        once = lowpass(x, c)
        twice = lowpass(once, c)
        assert np.abs(twice.samples - once.samples).max() < 1e-9

    # (n, dt, t0): odd primes, the perfbench lengths 6,001 and 30,001
    # (19 * 1579), even 5-smooth lengths, and shifted time origins.  At
    # 6,000 samples of 2 ms, 1.5 Hz is bin 18: the band must keep bins -18
    # and +18 alike, or bin 18 enters at half weight
    GRIDS = [(1009, DT, 0.0), (7919, 0.01, -3.7), (6001, DT, 0.0),
             (30001, DT, 1.25), (6000, DT, 0.0), (4096, 0.01, 2.5),
             (14, 0.1, 0.0)]

    @pytest.mark.parametrize("n, dt, t0", GRIDS)
    def test_matches_real_fft_band_oracle(self, n, dt, t0):
        x = Signal(t0, dt, np.random.default_rng(n).standard_normal(n) + 0.3)
        for k in {0, 1, min(18, n // 2 - 1), n // 7, n // 2 - 1}:
            on_bin = bin_omega(n, dt, k)
            between = 0.5 * (on_bin + bin_omega(n, dt, k + 1))
            for cutoff in (on_bin, between):
                assert_matches_band_oracle(x, cutoff)
        assert_matches_band_oracle(x, 2 * np.pi * 1.5)

    def test_band_reaching_nyquist_bin_is_identity(self):
        # for 14 samples at 0.1 s the Nyquist bin computes just below
        # pi/dt, so a cut-off on it keeps every bin, that one once
        x = Signal(0.0, 0.1, np.random.default_rng(2).standard_normal(14))
        cutoff = bin_omega(14, 0.1, 7)
        assert cutoff < x.nyquist
        assert np.abs(lowpass(x, cutoff).samples - x.samples).max() < 1e-14

    @given(n=st.integers(3, 4000), dt=st.sampled_from([DT, 0.01, 0.1]),
           t0=st.floats(-10.0, 10.0), k=st.integers(0, 2000),
           on_bin=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_band_oracle_sweep(self, n, dt, t0, k, on_bin, seed):
        k = k % (n // 2 + 1)
        cutoff = bin_omega(n, dt, k)
        if not on_bin and k < n // 2:
            cutoff = 0.5 * (cutoff + bin_omega(n, dt, k + 1))
        x = Signal(t0, dt, np.random.default_rng(seed).uniform(-1, 1, n))
        if cutoff < x.nyquist:
            assert_matches_band_oracle(x, cutoff)

    @pytest.mark.parametrize("n", [2, 3, 6000, 6001])
    def test_zero_cutoff_keeps_the_mean(self, n):
        x = Signal(0.5, DT, np.random.default_rng(n).standard_normal(n) + 2.0)
        y = lowpass(x, 0.0)
        assert np.abs(y.samples - x.samples.mean()).max() < 1e-12

    @pytest.mark.parametrize("cutoff", [-1e-9, -3.0, math.nan, -math.inf])
    def test_negative_or_nan_cutoff_rejected(self, cutoff):
        with pytest.raises(BadRange):
            lowpass(const_signal(1.0), cutoff)

    def test_cutoff_above_nyquist_rejected(self):
        x = const_signal(1.0)
        with pytest.raises(CutoffAboveNyquist):
            lowpass(x, x.nyquist * 1.5)

    @pytest.mark.parametrize("scale", [1.0, math.inf])
    def test_cutoff_at_nyquist_or_infinite_rejected(self, scale):
        x = const_signal(1.0)
        with pytest.raises(CutoffAboveNyquist):
            lowpass(x, x.nyquist * scale)

    def test_transforms_are_5_smooth_and_few(self, monkeypatch):
        # no transform of the signal's own length, which for 30,001 =
        # 19 * 1579 would fall back to a Bluestein transform
        lengths = []

        def record(name, default_length):
            real = getattr(np.fft, name)

            def wrapped(a, n=None, *args, **kwargs):
                lengths.append(n if n is not None
                               else default_length(np.shape(a)[-1]))
                return real(a, n, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, wrapped)

        for name in ("rfft", "fft", "ifft"):
            record(name, lambda m: m)
        record("irfft", lambda m: 2 * (m - 1))
        x = sum_of_sinusoids(3, 5, (0.5, 40.0), 1.0, (0.0, 60.0), DT)
        assert len(x) == 30001
        lowpass(x, 2 * np.pi * 1.5)
        assert 1 <= len(lengths) <= 3
        assert all(is_5_smooth(m) for m in lengths), lengths


class TestSumOfSinusoids:
    def test_zero_terms(self):
        x = sum_of_sinusoids(0, 0, (1.0, 2.0), 1.0, (0.0, 1.0), DT)
        assert np.all(x.samples == 0.0)

    def test_deterministic(self):
        a = sum_of_sinusoids(42, 5, (1.0, 10.0), 1.5, (0.0, 3.0), DT)
        b = sum_of_sinusoids(42, 5, (1.0, 10.0), 1.5, (0.0, 3.0), DT)
        assert np.array_equal(a.samples, b.samples)

    def test_amplitude_bound(self):
        x = sum_of_sinusoids(1, 5, (1.0, 20.0), 0.8, (0.0, 10.0), DT)
        assert np.abs(x.samples).max() <= 0.8 + 1e-12

    def test_samples_at_chosen_indices(self):
        from bbstl.signals import sinusoid_samples
        x = sum_of_sinusoids(42, 5, (1.0, 10.0), 1.5, (0.25, 3.0), DT)
        k = np.array([0, 7, 400, len(x) - 1, 7])
        got = sinusoid_samples(42, 5, (1.0, 10.0), 1.5, 0.25, DT, k)
        assert np.array_equal(got, x.samples[k])

    def test_bad_range(self):
        with pytest.raises(BadRange):
            sum_of_sinusoids(0, 2, (1.0, 1e6), 1.0, (0.0, 1.0), DT)
        with pytest.raises(BadRange):
            sum_of_sinusoids(0, 2, (1.0, 2.0), -1.0, (0.0, 1.0), DT)


class TestMetric:
    def test_identical_signals(self, g_narrow):
        x = sum_of_sinusoids(7, 3, (0.5, 5.0), 1.0, (0.0, 4.0), DT)
        assert metric_d(x, x) == 0.0

    def test_constant_difference_recovers_offset(self):
        x = const_signal(0.9)
        y = const_signal(0.4)
        # unit-L1 nonnegative kernel measures exactly the offset
        assert abs(metric_d(x, y) - 0.5) < 1e-9

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(12)
        dico = default_metric_dictionary(DT)
        for _ in range(5):
            xa = Signal(0.0, DT, rng.normal(size=1500))
            xb = Signal(0.0, DT, rng.normal(size=1500))
            dab = metric_d(xa, xb, dico)
            dba = metric_d(xb, xa, dico)
            assert dab >= 0.0
            assert abs(dab - dba) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(99)
        dico = default_metric_dictionary(DT)
        for _ in range(10):
            sigs = [Signal(0.0, DT, rng.normal(size=1200)) for _ in range(3)]
            dxz = metric_d(sigs[0], sigs[2], dico)
            dxy = metric_d(sigs[0], sigs[1], dico)
            dyz = metric_d(sigs[1], sigs[2], dico)
            assert dxz <= dxy + dyz + 1e-12

    def test_domain_mismatch(self, g_narrow):
        x = const_signal(1.0)
        y = const_signal(1.0, t0=0.001)
        with pytest.raises(DomainMismatch):
            metric_d(x, y)


class TestFileFormats:
    def test_signal_csv_roundtrip(self, tmp_path):
        x = sum_of_sinusoids(3, 2, (1.0, 4.0), 1.0, (0.25, 2.25), DT)
        path = tmp_path / "sig.csv"
        save_signal_csv(x, path)
        back = load_signal_csv(path)
        assert abs(back.t0 - x.t0) < 1e-12
        assert abs(back.dt - x.dt) < 1e-12
        assert np.abs(back.samples - x.samples).max() < 1e-12

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1\n0.1,2\n0.3,3\n")
        with pytest.raises(NonUniformGrid):
            load_signal_csv(path)

    @pytest.mark.parametrize("row", ["0.004", "0.004,abc", "  "])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,value\n0.0,1\n\n0.002,2\n{row}\n0.006,4\n")
        with pytest.raises(BadRange) as err:
            load_signal_csv(path)
        assert str(path) in str(err.value)
        assert "line 5 " in str(err.value) and repr(row) in str(err.value)

    def test_blank_lines_and_extra_fields_ignored(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("t,value\r\n0.5,1\r\n\r\n0.502,-2,x\r\n"
                        "0.504,3\r\n\r\n")
        x = load_signal_csv(path)
        assert (x.t0, len(x)) == (0.5, 3)
        assert abs(x.dt - 0.002) < 1e-12
        assert x.samples.tolist() == [1.0, -2.0, 3.0]

    @pytest.mark.parametrize("text", ["", "t,value\n", "t,value\n0.0,1\n",
                                      "time,v\n0.0,1\n0.1,2\n"])
    def test_header_or_samples_missing(self, tmp_path, text):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(NonUniformGrid):
            load_signal_csv(path)

    def test_spectrum_csv_header(self, tmp_path):
        x = const_signal(1.0, dur=0.2)
        path = tmp_path / "spec.csv"
        save_spectrum_csv(fft(x), path)
        assert path.read_text().splitlines()[0] == "omega,re,im,abs"

    def test_writers_match_csv_module_bytes(self, tmp_path):
        # the bulk writers against the csv.writer rows they replace
        import csv
        import io

        from bbstl.analysis import GfrfGrid, save_grid_csv
        from bbstl.monitor import (
            RobustnessSignal,
            save_robustness_csv,
            save_verdict_csv,
        )

        def csv_module_bytes(header, rows):
            buf = io.StringIO(newline="")
            csv.writer(buf).writerows([header] + rows)
            return buf.getvalue().encode()

        def complex_row(v):
            return [repr(float(v.real)), repr(float(v.imag)),
                    repr(float(abs(v)))]

        rng = np.random.default_rng(4)
        special = [np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e-310, 2.5e-320,
                   2.2250738585072014e-308, 0.1 + 0.2, 1 / 3, -7.0, 1e300]
        x = np.concatenate([special, rng.normal(size=300)
                            * 10.0 ** rng.integers(-30, 30, size=300)])
        z = np.empty(len(x), dtype=complex)
        z.real, z.imag = x, np.roll(x, 5)[::-1]
        sig = Signal(-0.25, DT, x)
        rho = RobustnessSignal(sig)
        t = [repr(float(t)) for t in sig.times]
        cases = [
            (lambda p: save_signal_csv(sig, p), ["t", "value"],
             [[a, repr(float(v))] for a, v in zip(t, x)]),
            (lambda p: save_robustness_csv(rho, p), ["t", "rho"],
             [[a, repr(float(v))] for a, v in zip(t, x)]),
            (lambda p: save_verdict_csv(rho, p), ["t", "sat"],
             [[a, 1 if v >= 0 else 0] for a, v in zip(t, x)]),
            (lambda p: save_spectrum_csv(Spectrum(sig.t0, sig.dt, z), p),
             ["omega", "re", "im", "abs"],
             [[a] + complex_row(v) for a, v in zip(t, z)]),
        ]
        for grid in (GfrfGrid(1, x[:60], z[:60]),
                     GfrfGrid(2, x[:15], z[:225].reshape(15, 15))):
            cases.append((
                lambda p, grid=grid: save_grid_csv(grid, p),
                [f"omega{i + 1}" for i in range(grid.order)]
                + ["re", "im", "abs"],
                [[repr(float(grid.axis[i])) for i in idx]
                 + complex_row(grid.values[idx])
                 for idx in np.ndindex(*grid.values.shape)]))
        for k, (write, header, rows) in enumerate(cases):
            path = tmp_path / f"{k}.csv"
            write(path)
            assert path.read_bytes() == csv_module_bytes(header, rows), k

    def test_kernel_from_spec(self, tmp_path):
        g = kernel_from_spec({"type": "gaussian", "mean": 0.0, "std": 0.05,
                              "truncation_radius": 0.25}, DT)
        assert g.kind == "gaussian"
        tab = Signal(0.0, DT, np.array([0.5 / DT * 0.5, 0.5 / DT * 0.5]))
        save_signal_csv(tab, tmp_path / "k.csv")
        k = kernel_from_spec({"type": "table", "file": "k.csv"}, DT,
                             base_dir=tmp_path)
        assert k.kind == "table"
        assert k.l1_norm <= 1 + 1e-9
