"""The benchmark's workloads: inputs, one cycle of operations, and checks.

Every workload drives bbstl through module attributes (``monitor.robustness``,
``analysis.gfrf_grid``, ...) looked up at call time, so the traced run sees
the spans it installs.  Inputs come from the workload seed; the fit
configuration stays at the documented reproduction settings (``FitConfig()``,
seed 0), so every GFRF is seed-independent and checked against
``reference.json``.

One cycle runs each corpus item once, in a fixed order; a run repeats whole
cycles so that every run sees the same mix of operations.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from oracle import (
    Mismatch,
    Reference,
    brute_lowpass,
    brute_robustness,
    check_robustness,
    check_spectrum,
    rel_rms,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KERNELS = ROOT / "data" / "kernels.json"
DT = 0.002
OMEGA_MAX = 8 * math.pi                 # the CLI's default grid range
CUTOFF_THRESHOLD = 0.76                 # the README's cut-off example
CUTOFF_POINTS = 65
CUTOFF_ORDER = 2

MONITOR_FORMULAS = [
    "once[0.2,0.4] p",
    "once[0,0.5] p and hist[0,0.3] q",
    "not (once[0,0.2] (hist[0,0.2] p) or q)",
    "hist[0,0.3] (once[0,0.2] p and q)",
    "p since[0.2,0.6] q",
]
COMPRESS_FORMULA = "once[0.2,0.4] p"
COMPRESS_HZ = 1.5
TOL_RHO = 0.05                          # Tolerances() default

# formula -> output-spectrum orders; order 4 of the first is the
# 511-convolution case of acceptance criterion 5
SHALLOW = {"once[0.2,0.4] p": (2, 4),
           "once[0,0.5] p and hist[0,0.3] q": (2,)}
SHALLOW_GRIDS = ((1, 129), (2, 129))

# formula -> max_order
NESTED = {"not (once[0,0.2] (hist[0,0.2] p) or q)": 3,
          "hist[0,0.3] (once[0,0.2] p and q)": 3}
NESTED_GRIDS = ((2, 129), (3, 9))

CLI_FORMULA = "once[0.2,0.4] p"
CLI_TIMEOUT_S = 150


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    samples: int = 0                    # input signal samples monitored


def make_signal(bbstl, seed: int, n: int):
    """Sum of four random sinusoids in 0.05-2.5 Hz plus white noise."""
    rng = np.random.default_rng([seed, n])
    t = DT * np.arange(n)
    freqs = 2 * math.pi * rng.uniform(0.05, 2.5, 4)
    phases = rng.uniform(0.0, 2 * math.pi, 4)
    amps = rng.uniform(0.1, 1.0, 4)
    values = np.sin(np.outer(t, freqs) + phases) @ (amps / amps.sum())
    values += 0.05 * rng.standard_normal(n)
    return bbstl.signals.Signal(0.0, DT, values)


def load_references() -> dict:
    with open(HERE / "reference.json") as fh:
        return {f: Reference(e) for f, e in json.load(fh).items()}


class Workload:
    def __init__(self, bbstl, seed: int, tiny: bool):
        self.b = bbstl
        self.seed = seed
        self.tiny = tiny

    def kernels(self, dt: float = DT):
        return self.b.signals.load_kernel_table(KERNELS, dt)

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, tracer=None) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Monitor(Workload):
    """Robustness of the monitor corpus and one compression report, on a
    short and a long signal."""

    def setup(self):
        self.kt = self.kernels()
        lengths = (1_501, 3_001) if self.tiny else (6_001, 30_001)
        self.inputs = [make_signal(self.b, self.seed, n) for n in lengths]
        self.formulas = [self.b.logic.parse_formula(f)
                         for f in MONITOR_FORMULAS]
        self.compress_phi = self.b.logic.parse_formula(COMPRESS_FORMULA)
        self._expected: dict = {}

    def cycle(self, tracer=None):
        ops = []
        for x in self.inputs:
            for text, phi in zip(MONITOR_FORMULAS, self.formulas):
                ops.append(Op(f"robustness {text} N={len(x)}",
                              partial(self._robustness, phi, x),
                              partial(self._check, text, phi, x), len(x)))
            ops.append(Op(f"compression {COMPRESS_FORMULA} at {COMPRESS_HZ} "
                          f"Hz N={len(x)}", partial(self._compress, x),
                          partial(self._check_compress, x), len(x)))
        return ops

    def _robustness(self, phi, x):
        return self.b.monitor.robustness(phi, x, self.kt)

    def _compress(self, x):
        return self.b.analysis.compression_safety_report(
            self.compress_phi, x, 2 * math.pi * COMPRESS_HZ, self.kt)

    def _expect(self, key, phi, x, truth: bool):
        """Oracle values, computed once per run for each (item, length)."""
        key = (key, len(x))
        if key not in self._expected:
            self._expected[key] = (
                brute_robustness(phi, x, self.kt, self.b),
                self.b.logic.boolean_signal(phi, x, self.kt) if truth
                else None)
        return self._expected[key]

    def _check(self, text, phi, x, rho):
        check_robustness(rho, x, *self._expect(text, phi, x, truth=True))

    def _check_compress(self, x, out):
        report, xc, rho, rho_c = out
        cutoff = 2 * math.pi * COMPRESS_HZ
        want_xc = brute_lowpass(x, cutoff)
        err = float(np.max(np.abs(xc.samples - want_xc)))
        if err > 1e-9:
            raise Mismatch(f"low-passed signal differs by {err:.3g}")
        phi = self.compress_phi
        check_robustness(rho, x, *self._expect(COMPRESS_FORMULA, phi, x,
                                               truth=True))
        check_robustness(rho_c, xc, *self._expect("low-passed", phi, xc,
                                                  truth=False))
        r, rc = rho.samples, rho_c.samples
        ties = report.tolerances.eps_tie
        flips = int(np.count_nonzero(((r > 0) != (rc > 0))
                                     & (np.abs(r) > ties)
                                     & (np.abs(rc) > ties)))
        rho_rel = rel_rms(r - rc, r)
        verdict = "safe" if rho_rel <= TOL_RHO and flips == 0 else "unsafe"
        want = {"truth_flip_count": flips, "verdict": verdict}
        got = {k: getattr(report, k) for k in want}
        if got != want:
            raise Mismatch(f"safety report {got} != {want}")
        for name, value in (("rho_rel_diff", rho_rel),
                            ("signal_rel_diff",
                             rel_rms(x.samples - want_xc, x.samples))):
            if abs(getattr(report, name) - value) > 1e-9 * max(1.0, value):
                raise Mismatch(f"{name} {getattr(report, name)} != {value}")


class Shallow(Workload):
    """One shallow formula answered from a cold fit cache: build, grids,
    cut-off scan and output spectra."""

    def setup(self):
        self.kt = self.kernels()
        n = 1_501 if self.tiny else 6_001
        self.x = make_signal(self.b, self.seed, n)
        self.spec = self.b.signals.fft(self.x)
        self.cfg = self.b.volterra.FitConfig()
        self.refs = load_references()
        self.formulas = {f: self.b.logic.parse_formula(f) for f in SHALLOW}
        rng = np.random.default_rng([self.seed, 2])
        # the zero bin and three seeded bins inside the 0-5 Hz band
        band = int(2 * math.pi * 5.0 / self.spec.domega)
        self.bins = np.concatenate([[0], rng.integers(-band, band, 3)]) \
            + len(self.spec) // 2

    def cycle(self, tracer=None):
        return [Op(f"shallow {f}", partial(self._answer, f),
                   partial(self._check, f)) for f in SHALLOW]

    def _answer(self, text):
        b = self.b
        b.compose.clear_fit_cache()
        g = b.compose.build_formula_operator(self.formulas[text], self.kt,
                                             self.cfg).gfrf
        grids = [b.analysis.gfrf_grid(g, n, OMEGA_MAX, points)
                 for n, points in SHALLOW_GRIDS]
        scan = b.analysis.cutoff_scan(g, CUTOFF_THRESHOLD, OMEGA_MAX,
                                      CUTOFF_POINTS, CUTOFF_ORDER)
        spectra = {k: b.analysis.output_spectrum(g, self.spec, k)
                   for k in SHALLOW[text]}
        return g, grids, scan, spectra

    def _check(self, text, out):
        g, grids, scan, spectra = out
        ref = self.refs[text]
        ref.check_build(g, self.cfg.max_order)
        for grid, (_, points) in zip(grids, SHALLOW_GRIDS):
            ref.check_grid(grid, points, self.cfg.max_order)
        ref.check_cutoff(scan)
        for order, y in spectra.items():
            check_spectrum(y, self.spec, g, self.bins, order)


def warm_fits(bbstl, phi, cfg) -> None:
    """Fill the fit cache for every operator ``phi`` uses."""
    logic, compose = bbstl.logic, bbstl.compose
    if isinstance(phi, (logic.Once, logic.Hist)):
        op = "once" if isinstance(phi, logic.Once) else "hist"
        compose.cached_poly_fit(op, phi.interval, cfg)
    if isinstance(phi, (logic.And, logic.Or)):
        compose.cached_separable_fit(
            "min" if isinstance(phi, logic.And) else "max", cfg)
    for child in ("child", "left", "right"):
        if hasattr(phi, child):
            warm_fits(bbstl, getattr(phi, child), cfg)


class Nested(Workload):
    """One nested formula built over warm fits, then grids and a cut-off
    scan; the cost follows the term count."""

    def setup(self):
        b = self.b
        self.kt = self.kernels()
        self.refs = load_references()
        self.items = {}
        for text, max_order in NESTED.items():
            cfg = b.volterra.FitConfig(max_order=2 if self.tiny else max_order)
            self.items[text] = (b.logic.parse_formula(text), cfg)
        b.compose.clear_fit_cache()
        for phi, cfg in self.items.values():
            warm_fits(b, phi, cfg)

    def cycle(self, tracer=None):
        return [Op(f"nested {f} max_order={self.items[f][1].max_order}",
                   partial(self._answer, f), partial(self._check, f))
                for f in NESTED]

    def _answer(self, text):
        b = self.b
        phi, cfg = self.items[text]
        g = b.compose.build_formula_operator(phi, self.kt, cfg).gfrf
        grids = [b.analysis.gfrf_grid(g, n, OMEGA_MAX, points)
                 for n, points in NESTED_GRIDS]
        scan = b.analysis.cutoff_scan(g, CUTOFF_THRESHOLD, OMEGA_MAX,
                                      CUTOFF_POINTS, CUTOFF_ORDER)
        return g, grids, scan

    def _check(self, text, out):
        g, grids, scan = out
        ref, max_order = self.refs[text], self.items[text][1].max_order
        ref.check_build(g, max_order)
        for grid, (_, points) in zip(grids, NESTED_GRIDS):
            ref.check_grid(grid, points, max_order)
        ref.check_cutoff(scan)


def _same(got, want, path: str = "") -> None:
    """Structural equality with a relative tolerance on numbers."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise Mismatch(f"{path or 'output'}: keys differ")
        for key in want:
            _same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            raise Mismatch(f"{path}: length differs")
        for i, (a, b) in enumerate(zip(got, want)):
            _same(a, b, f"{path}[{i}]")
    elif isinstance(want, float) and isinstance(got, (int, float)):
        if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
            raise Mismatch(f"{path}: {got} != {want}")
    elif got != want:
        raise Mismatch(f"{path}: {got!r} != {want!r}")


class Cli(Workload):
    """One ``python -m bbstl.cli`` subprocess per operation."""

    def setup(self):
        self.work = ROOT / ".perfbench-runs" / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.signal_csv = self.work / "signal.csv"
        x = make_signal(self.b, self.seed, 6_001 if self.tiny else 30_001)
        self.b.signals.save_signal_csv(x, self.signal_csv)
        self._refs: dict = {}

    def commands(self) -> dict[str, list[str]]:
        kernels = ["--kernels", "data/kernels.json"]
        sig = str(self.signal_csv)
        return {
            "parse": ["parse", CLI_FORMULA],
            "monitor": ["monitor", CLI_FORMULA, sig, *kernels],
            "gfrf": ["gfrf", CLI_FORMULA, *kernels],
            "cutoff": ["cutoff", CLI_FORMULA, *kernels, "--threshold",
                       str(CUTOFF_THRESHOLD), "--max-order", "1",
                       "--points", "33"],
            "compress": ["compress", CLI_FORMULA, sig, *kernels,
                         "--cutoff-hz", str(COMPRESS_HZ)],
            "fit_once": ["fit", "once", "--interval", "0,0.5"],
            "fit_max": ["fit", "max"],
        }

    def cycle(self, tracer=None):
        return [Op(f"cli {label}",
                   partial(self._run, label, argv, tracer),
                   partial(self._check, label))
                for label, argv in self.commands().items()]

    def _run(self, label, argv, tracer):
        argv = [*argv, "--out", str(self.work / label)] \
            if label != "parse" else argv
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if tracer is None:
            return subprocess.run([sys.executable, "-m", "bbstl.cli", *argv],
                                  cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        result = self.work / f"{label}.trace.json"
        with tracer.span(f"cli.{label}"):
            parent = len(tracer.spans) - 1
            spawn = tracer.spans[parent][1]
            done = subprocess.run(
                [sys.executable, str(HERE / "cli_shim.py"), str(result),
                 *argv], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=CLI_TIMEOUT_S)
        if done.returncode == 0:
            child = json.loads(result.read_text())
            op = tracer.op
            tracer.spans.append(["cli.interpreter", spawn, child["start"],
                                 parent, op])
            tracer.spans.append(["cli.import", *child["import"], parent, op])
            base = len(tracer.spans)
            for name, start, end, up, _ in child["spans"]:
                tracer.spans.append([name, start, end,
                                     base + up if up >= 0 else parent, op])
            for key, value in child["counters"].items():
                tracer.counters[key] += value
        return done

    def _check(self, label, done):
        if done.returncode != 0:
            raise Mismatch(f"exit code {done.returncode}: "
                           f"{done.stderr.strip()[-300:]}")
        out = self.work / label
        b = self.b
        phi = b.logic.parse_formula(CLI_FORMULA)
        if label == "parse":
            _same(json.loads(done.stdout),
                  {"formula": b.logic.format_formula(phi),
                   "ast": b.cli.ast_to_json(phi)})
        elif label == "monitor":
            rho = self._ref("rho", lambda: b.monitor.robustness(
                phi, self._signal(), self.kernels(self._signal().dt)))
            got = np.loadtxt(out / "rho.csv", delimiter=",", skiprows=1)
            sat = np.loadtxt(out / "verdict.csv", delimiter=",", skiprows=1)
            if not (np.array_equal(got[:, 1], rho.samples)
                    and np.allclose(got[:, 0], rho.times, atol=1e-9)
                    and np.array_equal(sat[:, 1], rho.samples >= 0)):
                raise Mismatch("rho.csv/verdict.csv differ from robustness()")
        elif label == "gfrf":
            built = self._built()
            _same(json.loads((out / "gfrf.json").read_text()),
                  built.gfrf.to_json())
            _same(json.loads((out / "gfrf_report.json").read_text())
                  ["term_counts_per_order"],
                  {str(n): c for n, c in built.report.term_counts.items()})
        elif label == "cutoff":
            scan = b.analysis.cutoff_scan(self._built().gfrf,
                                          CUTOFF_THRESHOLD, OMEGA_MAX, 33, 1)
            _same(json.loads((out / "cutoff.json").read_text()),
                  {**scan.to_json(), "formula": b.logic.format_formula(phi)})
        elif label == "compress":
            report = self._ref("compress", lambda: (
                b.analysis.compression_safety_report(
                    phi, self._signal(), 2 * math.pi * COMPRESS_HZ,
                    self.kernels(self._signal().dt))[0]))
            _same(json.loads((out / "safety_report.json").read_text()),
                  {**report.to_json(), "formula": b.logic.format_formula(phi)})
        elif label == "fit_once":
            fit = b.compose.cached_poly_fit("once", b.logic.Interval(0.0, 0.5),
                                            b.volterra.FitConfig())
            got = json.loads((out / "fit_once.json").read_text())
            _same([got["delays"], got["coefficients"],
                   got["diagnostics"]["rms_residual"]],
                  [list(fit.delays),
                   [{"exponents": list(r), "alpha": a}
                    for r, a in fit.terms if a != 0.0],
                   fit.diagnostics.rms_residual])
        elif label == "fit_max":
            fit = b.compose.cached_separable_fit("max", b.volterra.FitConfig())
            got = json.loads((out / "fit_max.json").read_text())
            _same([got["r_coeffs"], got["q_coeffs"], got["rms_residual"]],
                  [list(fit.r.coeffs), list(fit.q.coeffs), fit.rms_residual])

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def _signal(self):
        return self._ref("signal", lambda: self.b.signals.load_signal_csv(
            self.signal_csv))

    def _built(self):
        return self._ref("built", lambda: (
            self.b.compose.build_formula_operator(
                self.b.logic.parse_formula(CLI_FORMULA), self.kernels(),
                self.b.volterra.FitConfig())))

    def close(self):
        import shutil
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {"monitor": Monitor, "shallow": Shallow, "nested": Nested,
             "cli": Cli}
