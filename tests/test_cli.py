import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exitlab
from exitlab import NoExit, load_rows, parse_config, run_predict
from exitlab.cli import main

GOOD = """
model.lambdas = 1.0
domain.lower = -1.0
domain.upper = 1.0
threshold.alpha = 1.5
sweep.epsilons = 0.3, 0.2, 0.1
estimator.n_paths = 200
estimator.dt = 0.002
"""


@pytest.fixture
def config_file(tmp_path):
    def write(text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestExitCodes:
    def test_validate_ok(self, config_file, capsys):
        assert main(["validate", "--config", config_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "d=1" in out

    def test_validate_prints_warnings(self, config_file, capsys):
        text = GOOD.replace("threshold.alpha = 1.5", "threshold.alpha = 0.5")
        text += "initial.rho = 0.6\n"
        assert main(["validate", "--config", config_file(text)]) == 0
        assert "warning:" in capsys.readouterr().err

    def test_parse_error_is_1(self, config_file, capsys):
        code = main(["validate", "--config", config_file(GOOD + "bogus = 1\n")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "line" in err

    def test_validation_error_is_1(self, config_file, capsys):
        text = GOOD.replace("model.lambdas = 1.0", "model.lambdas = 1.0, 2.0")
        assert main(["validate", "--config", config_file(text)]) == 1
        assert "decreasing" in capsys.readouterr().err

    def test_missing_config_file_is_1(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "absent.cfg")])
        assert code == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_runtime_error_is_2(self, config_file, capsys, monkeypatch):
        def boom(cfg):
            raise NoExit("no path ever leaves")

        monkeypatch.setattr("exitlab.cli.run_estimate", boom)
        code = main(["estimate", "--config", config_file(GOOD)])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err


# Configs that a run would reject: every command must refuse them at parse
# time, with exit code 1 and no traceback, before any path is simulated.
REJECTED = [
    "estimator.t_cap = 0.0005",
    "estimator.t_cap = nan",
    "estimator.t_cap = inf",
    "estimator.level_step = nan",
    "diagnostic.n_samples = 500",
    "noise.sigma = nan",
    "domain.big = ball:nan",
    "noise.form = state_scaled\nnoise.gamma = nan",
    "diagnostic.halfwidth = nan",
    "domain.inner = ball:inf\ndomain.outer = ball:2.0",
    "domain.inner = ball:1.5\ndomain.outer = ball:inf",
    "initial.points = nan",
    "diagnostic.time = nan",
    "diagnostic.time = 0",
    "threshold.r0 = -5.0",
    "diagnostic.point = 0.1; 0.7",
    "domain.big = ellipsoid:1e-300",
    "domain.big = ball:1e-200",
    "domain.big = ellipsoid:1.0,2.0",
    "domain.inner = ball:0.45\ndomain.outer = ball:2.0",
]


@pytest.mark.parametrize("command", ["validate", "estimate", "diagnose"])
@pytest.mark.parametrize("lines", REJECTED, ids=[ln.replace("\n", " ")
                                                  for ln in REJECTED])
def test_rejected_config_is_a_config_error(config_file, capsys, monkeypatch,
                                           lines, command):
    def no_paths(*args, **kwargs):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr("exitlab.estimator.simulate_batch", no_paths)
    code = main([command, "--config", config_file(GOOD + lines + "\n")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert "Traceback" not in err


# component_quadratic with c = 1 has validity radius 0.2; its box +-0.1
# pulls back inside it, but each comparison domain below reaches 0.5.
QUADRATIC = """
model.variant = component_quadratic
model.lambdas = 1.0
model.quad_coeff = 1.0
domain.lower = -0.1
domain.upper = 0.1
threshold.alpha = 1.5
sweep.epsilons = 0.3, 0.2, 0.1
estimator.n_paths = 200
estimator.dt = 0.002
"""
PAST_VALIDITY = [
    ("domain.big", "domain.big = ball:0.5\nestimator.method = adjusted"),
    ("domain.outer", "domain.inner = ball:0.15\ndomain.outer = ball:0.5"),
]


@pytest.mark.parametrize("command", ["validate", "predict", "estimate", "flow",
                                     "diagnose"])
@pytest.mark.parametrize("key, lines", PAST_VALIDITY,
                         ids=[key for key, _ in PAST_VALIDITY])
def test_domain_past_validity_radius_is_a_config_error(config_file, capsys,
                                                       monkeypatch, key, lines,
                                                       command):
    def no_paths(*args, **kwargs):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr("exitlab.estimator.simulate_batch", no_paths)
    code = main([command, "--config", config_file(QUADRATIC + lines + "\n")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: {key}: boundary point with "
                          f"|x|_inf = 0.5 exceeds validity radius 0.2")


# the inner ball is slower to leave than the outer one, so t_minus > t_plus
MISORDERED = GOOD.replace("domain.lower = -1.0\ndomain.upper = 1.0",
                          "domain.lower = -0.5\ndomain.upper = 0.5") + (
    "domain.inner = ball:1.0\ndomain.outer = ball:0.6\n")


def test_misordered_travel_times_fail_validate(config_file, capsys):
    assert main(["validate", "--config", config_file(MISORDERED)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: domain.inner and domain.outer: ")
    assert "t_minus <= t_plus" in err


def test_inner_domain_without_the_box_fails_validate(config_file, capsys):
    # the box face at 1 lies outside domain.inner = ball:0.5
    text = GOOD + "domain.inner = ball:0.5\ndomain.outer = ball:2.0\n"
    assert main(["validate", "--config", config_file(text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: domain: box boundary point ")
    assert "not strictly inside the inner domain 'ball:0.5'" in err


@pytest.mark.parametrize("command", ["validate", "predict", "estimate", "sweep",
                                     "flow"])
def test_travel_time_failure_fails_validate(config_file, capsys, monkeypatch,
                                            command):
    # parse_config checks the nesting; an error that only computing the
    # bracket finds is a config error of every command, not a runtime error
    def no_exit(*args, **kwargs):
        raise NoExit("a boundary sample failed to exit a comparison domain")

    monkeypatch.setattr("exitlab.harness.travel_time_bounds", no_exit)
    text = GOOD + "domain.inner = ball:1.5\ndomain.outer = ball:2.0\n"
    assert main([command, "--config", config_file(text)]) == 1
    assert capsys.readouterr().err == (
        "config error: domain.inner and domain.outer: a boundary sample "
        "failed to exit a comparison domain\n")


@pytest.mark.parametrize("command", ["predict", "estimate", "sweep", "flow"])
def test_misordered_travel_times_are_a_config_error(config_file, capsys, tmp_path,
                                                   command):
    # the run refuses the bracket where it computes it, with validate's words
    out_dir = tmp_path / "out"
    assert main([command, "--config", config_file(MISORDERED),
                 "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: domain.inner and domain.outer: ")
    assert err.endswith("the travel-time bracket needs t_minus <= t_plus\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["predict", "sweep", "flow"])
def test_box_boundary_outside_inner_domain_fails_the_other_commands(config_file, capsys,
                                                                    command):
    # the box boundary x = +-1 is not inside ball:0.45, which the travel-time
    # bracket needs; REJECTED covers validate, estimate and diagnose
    text = GOOD + "domain.inner = ball:0.45\ndomain.outer = ball:2.0\n"
    assert main([command, "--config", config_file(text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: domain: box boundary point")
    assert "inner domain 'ball:0.45'" in err


class TestPredict:
    def test_stdout_rows(self, config_file, capsys):
        assert main(["predict", "--config", config_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert out.count("psi=") == 3
        assert "p_hat=" not in out

    def test_out_dir_has_no_plot(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["predict", "--config", config_file(GOOD),
                     "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "rows.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert not (out_dir / "plot.csv").exists()


class TestEstimate:
    def test_writes_outputs_and_prints_fit(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["estimate", "--config", config_file(GOOD),
                     "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("p_hat=") == 3
        assert "point 0: slope=" in out
        for name in ("rows.csv", "summary.json", "plot.csv"):
            assert (out_dir / name).exists(), name
        blob = json.loads((out_dir / "summary.json").read_text())
        assert blob["mode"] == "estimate"
        assert blob["partial"] is False

    def test_sweep_is_alias(self, config_file, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["estimate", "--config", config_file(GOOD),
                     "--out", str(a)]) == 0
        assert main(["sweep", "--config", config_file(GOOD),
                     "--out", str(b)]) == 0
        assert (a / "rows.csv").read_text() != ""
        # identical modulo the wall_seconds column
        strip = lambda p: [ln.rsplit(",", 1)[0]
                           for ln in (p / "rows.csv").read_text().splitlines()]
        assert strip(a) == strip(b)

    def test_seed_override_changes_hash(self, config_file, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["estimate", "--config", config_file(GOOD), "--out", str(a)])
        main(["estimate", "--config", config_file(GOOD), "--out", str(b),
              "--seed", "77"])
        ha = json.loads((a / "summary.json").read_text())["config_hash"]
        hb = json.loads((b / "summary.json").read_text())["config_hash"]
        assert ha != hb

    def test_workers_flag_runs(self, config_file, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["estimate", "--config", config_file(GOOD),
                     "--out", str(out_dir), "--workers", "2"])
        assert code == 0

    @pytest.mark.parametrize("error, words", [(NoExit, "runtime error: boom"),
                                              (RuntimeError, "unexpected error: boom")])
    def test_partial_outputs_flushed_on_midrun_failure(
            self, config_file, tmp_path, capsys, monkeypatch, error, words):
        # splitting runs cell by cell, so the cells before the failure stay,
        # whatever the failure raises
        import exitlab.harness as hz
        real = hz._estimate_one
        seen = []

        def flaky(cfg, x_eff, epsilon):
            if len(seen) == 2:
                raise error("boom")
            seen.append(epsilon)
            return real(cfg, x_eff, epsilon)

        monkeypatch.setattr(hz, "_estimate_one", flaky)
        out_dir = tmp_path / "out"
        code = main(["estimate", "--config", config_file(
            GOOD + "estimator.method = splitting\nestimator.budget = 200\n"),
            "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(words + "\n")
        assert "wrote partial" in err
        rows = (out_dir / "rows.csv").read_text().splitlines()
        assert len(rows) == 3  # header + the two finished cells
        assert json.loads((out_dir / "summary.json").read_text())["partial"]

    def test_direct_failure_leaves_a_partial_record_and_no_worker(
            self, config_file, tmp_path, capsys, monkeypatch):
        # the direct cells finish together, so a failure in their one run
        # leaves no Monte Carlo row
        import exitlab.estimator as est
        parent = os.getpid()
        real = est.simulate_batch

        def fails_in_worker(*args):
            if os.getpid() != parent:
                raise NoExit("no exit in a worker")
            return real(*args)

        monkeypatch.setattr(est, "simulate_batch", fails_in_worker)
        out_dir = tmp_path / "out"
        code = main(["estimate", "--config", config_file(
            GOOD + "estimator.batch_size = 100\nrun.workers = 2\n"),
            "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert "wrote partial" in err and "no exit in a worker" in err
        rows = (out_dir / "rows.csv").read_text().splitlines()
        assert rows == [",".join(exitlab.CSV_COLUMNS)]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["partial"] is True
        assert any("partial run" in w for w in summary["warnings"])
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_killed_worker_exits_2(self, config_file, tmp_path, capsys,
                                   worker_killed):
        # 4 batches on 2 workers; the worker of batches 0 and 2 dies
        code = main(["estimate", "--config", config_file(
            GOOD.replace("n_paths = 200", "n_paths = 400")
            + "estimator.batch_size = 100\nrun.workers = 2\n"),
            "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: the worker running batches "
                              "[0, 2] ended (signal 9")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# alpha * lambda = 1: the prefactor takes the boundary branch, whose normal
# interval probability comes from scipy.special
BOUNDARY = GOOD.replace("threshold.alpha = 1.5", "threshold.alpha = 1.0").replace(
    "sweep.epsilons = 0.3, 0.2, 0.1", "sweep.epsilons = 0.2")


@pytest.mark.parametrize("command", ["predict", "estimate"])
def test_boundary_theory_columns_are_plain_floats(config_file, tmp_path, capsys,
                                                  command):
    out_dir = tmp_path / "out"
    assert main([command, "--config", config_file(BOUNDARY),
                 "--out", str(out_dir)]) == 0
    assert "np.float64" not in capsys.readouterr().out
    assert "np.float64" not in (out_dir / "rows.csv").read_text()
    want = [(r.psi, r.phi_minus, r.phi_plus)
            for r in run_predict(parse_config(BOUNDARY)).rows]
    got = [(r["psi"], r["phi_minus"], r["phi_plus"])
           for r in load_rows(out_dir / "rows.csv")]
    assert got == want


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away, as in `exitlab estimate | head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


DIAGNOSE = GOOD + ("diagnostic.time = 0.5\n"
                   "diagnostic.n_samples = 10000\n"
                   "diagnostic.epsilon = 0.1\n")


@pytest.mark.parametrize("command, files", [
    ("predict", ("rows.csv", "summary.json")),
    ("estimate", ("rows.csv", "summary.json", "plot.csv")),
    ("flow", ("flow.json",)),
    ("diagnose", ("density.csv",)),
])
def test_out_files_are_written_before_stdout(config_file, tmp_path, monkeypatch,
                                             command, files):
    path = config_file(DIAGNOSE if command == "diagnose" else GOOD)
    assert main([command, "--config", path, "--out", str(tmp_path / "ref")]) == 0
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main([command, "--config", path, "--out", str(tmp_path / "piped")])
    monkeypatch.undo()
    assert code == 0

    def body(run, name):
        lines = (tmp_path / run / name).read_text().splitlines()
        # rows.csv differs between runs only in its last column, wall_seconds
        return [ln.rsplit(",", 1)[0] for ln in lines] if name == "rows.csv" else lines

    for name in files:
        assert body("piped", name) == body("ref", name), name


def test_stdout_closed_by_its_reader_exits_0(config_file, tmp_path):
    # 7 epsilons x 600 points print about 600 KB, far past a pipe buffer,
    # so the run is still printing when the reader closes the pipe
    points = "; ".join(repr(0.001 * k) for k in range(600))
    text = GOOD.replace("sweep.epsilons = 0.3, 0.2, 0.1",
                        "sweep.epsilons = 0.3, 0.25, 0.2, 0.15, 0.1, 0.07, 0.05")
    path = config_file(text + f"initial.points = {points}\n")
    src = str(Path(exitlab.__file__).resolve().parent.parent)
    out_dir = tmp_path / "out"
    with open(tmp_path / "stderr.txt", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "exitlab.cli", "predict", "--config", path,
             "--out", str(out_dir)],
            stdout=subprocess.PIPE, stderr=err,
            env={**os.environ, "PYTHONPATH": src})
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=300)
        err.seek(0)
        assert err.read() == ""
    assert code == 0
    assert first.startswith(b"eps=0.3  x=0.0  ")
    rows = load_rows(out_dir / "rows.csv")
    assert len(rows) == 7 * 600
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_rows"] == 7 * 600


class TestReportsCli:
    def test_flow_json(self, config_file, tmp_path, capsys):
        text = GOOD + "initial.points = 0.25\n"
        out_dir = tmp_path / "out"
        code = main(["flow", "--config", config_file(text),
                     "--out", str(out_dir)])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert len(blob["points"]) == 3
        assert (out_dir / "flow.json").exists()

    def test_diagnose(self, config_file, tmp_path, capsys):
        text = GOOD + ("diagnostic.time = 0.5\n"
                       "diagnostic.n_samples = 10000\n"
                       "diagnostic.epsilon = 0.1\n")
        out_dir = tmp_path / "out"
        code = main(["diagnose", "--config", config_file(text),
                     "--out", str(out_dir)])
        assert code == 0
        assert "l1_diff=" in capsys.readouterr().out
        body = (out_dir / "density.csv").read_text()
        assert body.splitlines()[0] == "z,empirical,reference"
        assert "mass," in body
