import numpy as np
import pytest
from hypothesis import settings

from bbstl.signals import Signal, make_gaussian_kernel, table_kernel

# Property tests draw the same examples on every run.
settings.register_profile("bbstl", derandomize=True, database=None,
                          deadline=None, max_examples=200)
settings.load_profile("bbstl")

DT = 0.002


@pytest.fixture(scope="session")
def g_narrow():
    return make_gaussian_kernel(0.0, 0.04, 0.2, DT)


@pytest.fixture(scope="session")
def g_wide():
    return make_gaussian_kernel(0.0, 0.08, 0.4, DT)


@pytest.fixture(scope="session")
def kernel_table(g_narrow, g_wide):
    return {"p": g_narrow, "q": g_wide, "g": g_narrow}


def tapered_mix(seed, num_terms, fmax_hz, dur, dt=DT, ramp=1.5, amp=1.0):
    """Sinusoid mix smoothly faded to zero at both ends of its domain."""
    from bbstl.signals import sum_of_sinusoids
    x = sum_of_sinusoids(seed, num_terms,
                         (2 * np.pi * 0.1, 2 * np.pi * fmax_hz), amp,
                         (0.0, dur), dt)
    t = x.times
    w = np.ones(len(x))
    head = t < ramp
    w[head] = 0.5 * (1 - np.cos(np.pi * t[head] / ramp))
    tail = t > dur - ramp
    w[tail] = 0.5 * (1 - np.cos(np.pi * (dur - t[tail]) / ramp))
    return x.with_samples(x.samples * w)


def bump_signal(seed, dur=12.0, base=0.35, amp=0.45, dt=DT):
    """Baseline plus a few smooth raised-cosine pulses at seeded times."""
    rng = np.random.default_rng(seed)
    n = int(round(dur / dt)) + 1
    t = dt * np.arange(n)
    x = np.full(n, base)
    k = rng.integers(4, 7)
    centers = np.sort(rng.uniform(1.5, dur - 1.5, size=k))
    widths = rng.uniform(0.12, 0.2, size=k)
    for c, w in zip(centers, widths):
        m = np.abs(t - c) < w
        x[m] += amp * 0.5 * (1 + np.cos(np.pi * (t[m] - c) / w))
    return Signal(0.0, dt, x)


def pulse_detector_kernel(dt=DT):
    """Difference-of-Gaussians table kernel: zero DC gain, L1 norm 1."""
    j = int(round(0.6 / dt))
    t = dt * np.arange(-j, j + 1)
    narrow = np.exp(-0.5 * (t / 0.05) ** 2)
    narrow /= dt * narrow.sum()
    wide = np.exp(-0.5 * (t / 0.22) ** 2)
    wide /= dt * wide.sum()
    f = narrow - wide
    f /= dt * np.abs(f).sum()
    return table_kernel(Signal(-j * dt, dt, f))


def compression_signal(dur=12.0, dt=DT):
    """Multi-band mix for the compression study: slow content, a 1 Hz
    component that decides the verdict, and strong 20 Hz content the
    sigma=0.04 measurement kernel cannot see."""
    n = int(round(dur / dt)) + 1
    t = dt * np.arange(n)
    x = (0.10
         + 0.45 * np.sin(2 * np.pi * 0.25 * t)
         + 0.42 * np.sin(2 * np.pi * 1.00 * t - 0.9 * np.pi)
         + 0.35 * np.sin(2 * np.pi * 20.0 * t))
    return Signal(0.0, dt, x)


def brute_sliding(u, interval, mode, dt=None):
    """O(N*W) reference for the sliding window extremum."""
    import math
    dt = dt or u.dt
    oa = math.ceil(interval[0] / dt - 1e-9)
    ob = math.floor(interval[1] / dt + 1e-9)
    x = u.samples
    out = []
    agg = np.max if mode == "max" else np.min
    for k in range(ob, len(x)):
        out.append(agg(x[k - ob: k - oa + 1]))
    return Signal(u.t0 + ob * dt, dt, np.array(out))


def brute_since(rho1, rho2, interval):
    """Direct evaluation of the bounded-since recursion (half-open inner
    window, empty window counts as +inf)."""
    import math
    dt = rho1.dt
    oa = math.ceil(interval[0] / dt - 1e-9)
    ob = math.floor(interval[1] / dt + 1e-9)
    r1, r2 = rho1.samples, rho2.samples
    out = []
    for k in range(ob, len(r1)):
        best = -np.inf
        for j in range(k - ob, k - oa + 1):
            inner = r1[j + 1: k + 1]
            val = min(r2[j], inner.min() if inner.size else np.inf)
            best = max(best, val)
        out.append(best)
    return Signal(rho1.t0 + ob * dt, dt, np.array(out))
