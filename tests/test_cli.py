import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bbstl
from bbstl.cli import main
from bbstl.signals import Signal, load_signal_csv, save_signal_csv

from conftest import DT, compression_signal


@pytest.fixture()
def workdir(tmp_path):
    kernels = [
        {"name": "p", "type": "gaussian", "mean": 0.0, "std": 0.04,
         "truncation_radius": 0.2},
        {"name": "q", "type": "gaussian", "mean": 0.0, "std": 0.08,
         "truncation_radius": 0.4},
    ]
    (tmp_path / "kernels.json").write_text(json.dumps(kernels))
    fit = {"num_signals": 10, "times_per_signal": 24, "duration": 8.0,
           "num_delays": 4, "degree": 3}
    (tmp_path / "fit.json").write_text(json.dumps(fit))
    save_signal_csv(compression_signal(), tmp_path / "signal.csv")
    n = 2001
    save_signal_csv(Signal(0.0, DT, np.full(n, 0.7)),
                    tmp_path / "const.csv")
    return tmp_path


P = {"type": "atom", "name": "p"}
Q = {"type": "atom", "name": "q"}


class TestParseCommand:
    @pytest.mark.parametrize("text, ast", [
        ("true", {"type": "true"}),
        ("p", P),
        ("not p", {"type": "not", "child": P}),
        ("p and q", {"type": "and", "left": P, "right": Q}),
        ("p or q", {"type": "or", "left": P, "right": Q}),
        ("once[0.2,0.4] p", {"type": "once", "interval": [0.2, 0.4],
                             "child": P}),
        ("hist[0,0.3] q", {"type": "hist", "interval": [0.0, 0.3],
                           "child": Q}),
        ("p since[0.1,0.5] q", {"type": "since", "interval": [0.1, 0.5],
                                "left": P, "right": Q}),
    ])
    def test_ast_per_node_type(self, capsys, text, ast):
        assert main(["parse", text]) == 0
        assert json.loads(capsys.readouterr().out)["ast"] == ast

    def test_ast_dump(self, capsys):
        assert main(["parse", "hist[1,1.2] p"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ast"] == {"type": "hist", "interval": [1.0, 1.2],
                               "child": {"type": "atom", "name": "p"}}

    def test_nested_formula(self, capsys):
        code = main(["parse", "a and once[0,0.3](b and once[0,0.3] c)"])
        assert code == 0
        ast = json.loads(capsys.readouterr().out)["ast"]
        assert ast["type"] == "and"
        assert ast["right"]["type"] == "once"

    def test_empty_interval_is_usage_error(self, capsys):
        assert main(["parse", "once[0.4,0.2] p"]) == 1
        assert "error[EmptyInterval]:" in capsys.readouterr().err

    def test_syntax_error(self, capsys):
        assert main(["parse", "once p"]) == 1
        assert "error[SyntaxError]:" in capsys.readouterr().err


class TestMonitorCommand:
    def test_constant_signal(self, workdir, capsys):
        out = workdir / "run"
        code = main(["monitor", "p", str(workdir / "const.csv"),
                     "--kernels", str(workdir / "kernels.json"),
                     "--out", str(out)])
        assert code == 0
        rows = (out / "rho.csv").read_text().splitlines()
        assert rows[0] == "t,rho"
        values = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.abs(values - 0.7).max() < 1e-9
        verdict = (out / "verdict.csv").read_text().splitlines()
        assert set(r.split(",")[1] for r in verdict[1:]) == {"1"}

    def test_deterministic_outputs(self, workdir):
        out1, out2 = workdir / "a", workdir / "b"
        for out in (out1, out2):
            assert main(["monitor", "once[0.2,0.4] p",
                         str(workdir / "signal.csv"),
                         "--kernels", str(workdir / "kernels.json"),
                         "--out", str(out)]) == 0
        assert (out1 / "rho.csv").read_bytes() == \
            (out2 / "rho.csv").read_bytes()

    def test_too_short_signal_exits_2(self, workdir, tmp_path, capsys):
        save_signal_csv(Signal(0.0, DT, np.ones(50)), tmp_path / "tiny.csv")
        code = main(["monitor", "once[0,2] p", str(tmp_path / "tiny.csv"),
                     "--kernels", str(workdir / "kernels.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[SignalTooShortForFormula]:")
        assert "depth" in err

    @pytest.mark.parametrize("row", ["0.004", "0.004,abc"])
    def test_malformed_signal_csv_exits_2(self, workdir, tmp_path, capsys,
                                          row):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,value\n0.0,1\n0.002,2\n{row}\n")
        code = main(["monitor", "p", str(path),
                     "--kernels", str(workdir / "kernels.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[BadRange]:")
        assert "line 4" in err and "Traceback" not in err

    def test_unknown_atom_exits_2(self, workdir, capsys):
        code = main(["monitor", "nosuch", str(workdir / "const.csv"),
                     "--kernels", str(workdir / "kernels.json")])
        assert code == 2
        assert "error[" in capsys.readouterr().err


class TestGfrfCommand:
    def test_writes_grids_and_report(self, workdir):
        out = workdir / "gfrf"
        code = main(["gfrf", "once[0.2,0.4] p",
                     "--kernels", str(workdir / "kernels.json"),
                     "--fit", str(workdir / "fit.json"),
                     "--orders", "1,2", "--points", "17",
                     "--gnuplot", "--out", str(out)])
        assert code == 0
        data = json.loads((out / "gfrf.json").read_text())
        assert "1" in data["orders"]
        report = json.loads((out / "gfrf_report.json").read_text())
        assert "term_counts_per_order" in report
        assert (out / "gfrf_h1.csv").exists()
        assert (out / "gfrf_h2.csv").exists()
        assert (out / "plot_gfrf.gp").exists()

    def test_negation_constant_grid(self, workdir):
        out = workdir / "neg"
        code = main(["gfrf", "not p",
                     "--kernels", str(workdir / "kernels.json"),
                     "--fit", str(workdir / "fit.json"),
                     "--orders", "1", "--points", "9", "--out", str(out)])
        assert code == 0
        rows = (out / "gfrf_h1.csv").read_text().splitlines()[1:]
        # |H1| of not p equals the atom magnitude; at omega=0 it is 1
        first = rows[0].split(",")
        assert abs(float(first[3]) - 1.0) < 1e-9

    def test_since_without_flag_exits_3(self, workdir, capsys):
        code = main(["gfrf", "p since[0,0.5] q",
                     "--kernels", str(workdir / "kernels.json"),
                     "--fit", str(workdir / "fit.json")])
        assert code == 3
        assert "error[SinceNotGfrfSupported]:" in capsys.readouterr().err

    def test_since_with_flag(self, workdir):
        out = workdir / "since"
        code = main(["gfrf", "p since[0.2,0.4] q",
                     "--kernels", str(workdir / "kernels.json"),
                     "--fit", str(workdir / "fit.json"),
                     "--enable-sampled-since", "2", "--out", str(out)])
        assert code == 0
        assert (out / "gfrf_eta0.json").exists()
        assert (out / "gfrf_eta1.json").exists()

    def test_true_exits_3(self, workdir, capsys):
        code = main(["gfrf", "true or p",
                     "--kernels", str(workdir / "kernels.json"),
                     "--fit", str(workdir / "fit.json")])
        assert code == 3

    @pytest.mark.parametrize("formula", ["p", "once[0.2,0.4] p"])
    def test_negative_prune_is_usage_error(self, workdir, capsys, formula):
        code = main(["gfrf", formula,
                     "--kernels", str(workdir / "kernels.json"),
                     "--fit", str(workdir / "fit.json"),
                     "--prune", "-1", "--out", str(workdir / "neg_prune")])
        assert code == 1
        assert "error[BadArity]:" in capsys.readouterr().err
        assert not (workdir / "neg_prune" / "gfrf.json").exists()


class TestCutoffCommand:
    def test_cutoff_report(self, workdir):
        out = workdir / "cut"
        code = main(["cutoff", "once[0.2,0.4] p",
                     "--kernels", str(workdir / "kernels.json"),
                     "--fit", str(workdir / "fit.json"),
                     "--threshold", "0.76", "--max-order", "1",
                     "--points", "33", "--out", str(out)])
        assert code == 0
        data = json.loads((out / "cutoff.json").read_text())
        assert data["found"] is True
        assert 0 < data["omega_star"] <= 8 * math.pi

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_too_few_points_exits_2(self, workdir, capsys, points):
        code = main(["cutoff", "once[0.2,0.4] p",
                     "--kernels", str(workdir / "kernels.json"),
                     "--fit", str(workdir / "fit.json"),
                     "--threshold", "0.76", "--points", points,
                     "--out", str(workdir / "cut")])
        assert code == 2
        assert "error[BadRange]" in capsys.readouterr().err
        assert not (workdir / "cut" / "cutoff.json").exists()


class TestCompressCommand:
    def test_safe_compression_run(self, workdir):
        out = workdir / "comp"
        code = main(["compress", "once[0.2,0.4] p",
                     str(workdir / "signal.csv"),
                     "--kernels", str(workdir / "kernels.json"),
                     "--cutoff-hz", "1.5", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "safety_report.json").read_text())
        assert report["verdict"] == "safe"
        assert report["truth_flip_count"] == 0
        assert (out / "compressed.csv").exists()
        assert (out / "rho_original.csv").exists()

    def test_unsafe_compression_run(self, workdir):
        out = workdir / "comp2"
        code = main(["compress", "once[0.2,0.4] p",
                     str(workdir / "signal.csv"),
                     "--kernels", str(workdir / "kernels.json"),
                     "--cutoff-hz", "0.5", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "safety_report.json").read_text())
        assert report["verdict"] == "unsafe"
        assert report["truth_flip_count"] > 0

    def test_zero_cutoff_keeps_the_mean(self, workdir):
        out = workdir / "comp0"
        code = main(["compress", "once[0.2,0.4] p",
                     str(workdir / "signal.csv"),
                     "--kernels", str(workdir / "kernels.json"),
                     "--cutoff-hz", "0", "--out", str(out)])
        assert code == 0
        x = load_signal_csv(workdir / "signal.csv").samples
        xc = load_signal_csv(out / "compressed.csv").samples
        assert np.abs(xc - x.mean()).max() < 1e-12
        report = json.loads((out / "safety_report.json").read_text())
        assert report["cutoff"] == 0.0

    def test_auto_threshold_above_every_response_compresses(self, workdir):
        # no response reaches the threshold, so the scan finds omega* = 0
        out = workdir / "comp_auto"
        code = main(["compress", "once[0.2,0.4] p",
                     str(workdir / "signal.csv"),
                     "--kernels", str(workdir / "kernels.json"),
                     "--fit", str(workdir / "fit.json"),
                     "--auto-threshold", "100", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "safety_report.json").read_text())
        assert report["cutoff"] == 0.0

    def test_negative_cutoff_is_data_error(self, workdir, capsys):
        out = workdir / "comp_neg"
        code = main(["compress", "p", str(workdir / "signal.csv"),
                     "--kernels", str(workdir / "kernels.json"),
                     "--cutoff-hz", "-1", "--out", str(out)])
        assert code == 2
        assert "error[BadRange]" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_cutoff_is_usage_error(self, workdir, capsys):
        code = main(["compress", "p", str(workdir / "signal.csv"),
                     "--kernels", str(workdir / "kernels.json")])
        assert code == 1


class TestFitCommand:
    def test_fit_once_reports_residual(self, workdir):
        out = workdir / "fit_out"
        code = main(["fit", "once", "--interval", "0,0.5",
                     "--fit", str(workdir / "fit.json"), "--out", str(out)])
        assert code == 0
        data = json.loads((out / "fit_once.json").read_text())
        assert data["diagnostics"]["rows"] > data["diagnostics"]["unknowns"]
        assert data["diagnostics"]["rms_residual"] < 0.15

    def test_fit_minmax(self, workdir):
        out = workdir / "fit_mm"
        code = main(["fit", "max", "--fit", str(workdir / "fit.json"),
                     "--out", str(out)])
        assert code == 0
        data = json.loads((out / "fit_max.json").read_text())
        assert data["r_coeffs"] == data["q_coeffs"]

    def test_deterministic_fit_outputs(self, workdir):
        outs = [workdir / "f1", workdir / "f2"]
        for out in outs:
            assert main(["fit", "hist", "--interval", "0,0.4",
                         "--fit", str(workdir / "fit.json"),
                         "--out", str(out)]) == 0
        assert (outs[0] / "fit_hist.json").read_bytes() == \
            (outs[1] / "fit_hist.json").read_bytes()

    def test_usage_error_on_bad_operator(self, capsys):
        assert main(["fit", "never"]) == 1


class TestProjectConfig:
    def test_config_supplies_defaults(self, workdir):
        cfg = {"kernels": "kernels.json", "fit": "fit.json",
               "out": str(workdir / "from_config"), "seed": 3}
        (workdir / "project.json").write_text(json.dumps(cfg))
        code = main(["monitor", "p", str(workdir / "const.csv"),
                     "--config", str(workdir / "project.json")])
        assert code == 0
        assert (workdir / "from_config" / "rho.csv").exists()

    def test_config_with_missing_file_is_usage_error(self, workdir, capsys):
        (workdir / "bad.json").write_text(json.dumps({"kernels": "nope.json"}))
        code = main(["monitor", "p", str(workdir / "const.csv"),
                     "--config", str(workdir / "bad.json")])
        assert code == 1


class TestImportGraph:
    def test_package_and_cli_load_no_scipy(self):
        src = str(Path(bbstl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import json, sys, bbstl, bbstl.cli; "
                "print(json.dumps(sorted(sys.modules)))")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        modules = json.loads(run.stdout)
        assert "bbstl.cli" in modules
        assert [m for m in modules
                if m == "scipy" or m.startswith("scipy.")] == []
