import json
import math

import numpy as np
import pytest

from exitlab import (
    CSV_COLUMNS,
    NoExit,
    ParseError,
    Spectrum,
    ValidationError,
    build_config,
    config_hash,
    emit_outputs,
    limit_covariance,
    load_rows,
    parse_config,
    run_estimate,
    run_predict,
    survival_prefactor,
    tail_exponent,
)
from exitlab.config import hash_echo
from exitlab.dynamics import BoxDomain
from exitlab.harness import (
    plot_csv_text,
    rows_csv_text,
    run_density_report,
    run_flow_report,
    summary_json_text,
)

MINIMAL = """
model.lambdas = 1.0
domain.lower = -1.0
domain.upper = 1.0
threshold.alpha = 1.5
sweep.epsilons = 0.2, 0.1
"""

SMALL_RUN = MINIMAL.replace(
    "sweep.epsilons = 0.2, 0.1", "sweep.epsilons = 0.3, 0.2, 0.1") + """
estimator.n_paths = 400
estimator.dt = 0.002
"""


# three splitting cells of 300 paths per level
SMALL_SPLITTING = SMALL_RUN + """
estimator.method = splitting
estimator.budget = 300
"""


def _cfg(text):
    return parse_config(text)


def _strip_wall(rows_csv: str) -> str:
    """rows.csv text without its last column, wall_seconds."""
    lines = rows_csv.splitlines()
    return "\n".join(lines[:1] + [",".join(ln.split(",")[:-1]) for ln in lines[1:]])


@pytest.fixture(scope="module")
def small_record():
    return run_estimate(_cfg(SMALL_RUN))


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = _cfg(MINIMAL)
        assert cfg.path.dt == 1e-3
        assert cfg.n_paths == 10**5
        assert cfg.method == "direct"
        assert cfg.model.spectrum.lambdas == (1.0,)
        assert cfg.epsilons == (0.2, 0.1)
        assert cfg.coords == "x"

    def test_echo_covers_every_key(self):
        cfg = _cfg(MINIMAL)
        assert "estimator.n_paths" in cfg.echo
        assert "model.variant" in cfg.echo
        assert "run.seed" in cfg.echo
        # the canonical echo is itself valid config text with the same hash
        text = "\n".join(f"{k} = {v}" for k, v in cfg.echo.items())
        assert config_hash(parse_config(text)) == config_hash(cfg)

    def test_unknown_key_is_parse_error_with_line(self):
        with pytest.raises(ParseError) as exc:
            _cfg(MINIMAL + "bogus.key = 3\n")
        assert "bogus.key" in str(exc.value)
        assert "line" in str(exc.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            _cfg(MINIMAL + "threshold.alpha = 2.0\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError):
            _cfg("model.lambdas 1.0\n")

    def test_bad_literal_rejected(self):
        with pytest.raises(ParseError) as exc:
            _cfg(MINIMAL.replace("1.5", "fast"))
        assert "threshold.alpha" in str(exc.value)

    def test_missing_required_key(self):
        with pytest.raises(ValidationError):
            _cfg("model.lambdas = 1.0\n")

    def test_increasing_spectrum_named(self):
        with pytest.raises(ValidationError) as exc:
            _cfg(MINIMAL.replace("model.lambdas = 1.0",
                                 "model.lambdas = 1.0, 2.0"))
        assert "decreasing" in str(exc.value)

    def test_epsilons_must_decrease(self):
        with pytest.raises(ValidationError):
            _cfg(MINIMAL.replace("0.2, 0.1", "0.1, 0.2"))
        with pytest.raises(ValidationError):
            _cfg(MINIMAL.replace("0.2, 0.1", "0.2, 1.5"))

    def test_box_must_straddle_origin(self):
        with pytest.raises(ValidationError):
            _cfg(MINIMAL.replace("domain.lower = -1.0", "domain.lower = 0.5"))

    def test_admissibility_warning_recorded(self):
        cfg = _cfg(MINIMAL.replace("threshold.alpha = 1.5",
                                   "threshold.alpha = 0.5")
                   + "initial.rho = 0.6\n")
        assert any("grows too fast" in w for w in cfg.warnings)
        assert not _cfg(MINIMAL).warnings

    def test_adjusted_requires_big_domain(self):
        with pytest.raises(ValidationError) as exc:
            _cfg(MINIMAL + "estimator.method = adjusted\n")
        assert "domain.big" in str(exc.value)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            _cfg(MINIMAL + "initial.points = 0.1, 0.2\n")

    def test_quadratic_radius_validated(self):
        bad = MINIMAL.replace("model.lambdas = 1.0",
                              "model.lambdas = 1.0\n"
                              "model.variant = component_quadratic\n"
                              "model.quad_coeff = 1.0\n"
                              "model.validity_radius = 0.9")
        with pytest.raises(ValidationError):
            _cfg(bad)

    def test_box_must_pull_back_inside_validity(self):
        # quadratic c=1: f range on the validity interval cannot reach 0.9
        bad = MINIMAL.replace("model.lambdas = 1.0",
                              "model.lambdas = 1.0\n"
                              "model.variant = component_quadratic\n"
                              "model.quad_coeff = 1.0")
        bad = bad.replace("domain.lower = -1.0", "domain.lower = -0.9")
        bad = bad.replace("domain.upper = 1.0", "domain.upper = 0.9")
        with pytest.raises(ValidationError):
            _cfg(bad)

    def test_inner_outer_must_come_together(self):
        with pytest.raises(ValidationError):
            _cfg(MINIMAL + "domain.inner = ball:1.5\n")

    def test_smooth_domain_specs(self):
        cfg = _cfg(MINIMAL
                   + "domain.inner = ball:1.5\ndomain.outer = ball:3.0\n"
                   + "domain.big = ellipsoid:2.0\n")
        assert cfg.inner is not None and cfg.outer is not None
        assert cfg.big is not None
        assert cfg.big.values(np.array([[1.9]]))[0] < 0.0

    def test_hash_changes_with_values(self):
        a = config_hash(_cfg(MINIMAL))
        b = config_hash(_cfg(MINIMAL.replace("1.5", "1.25")))
        assert a != b
        assert len(a) == 64

    def test_overrides_rebuild(self):
        cfg = _cfg(MINIMAL)
        cfg2 = cfg.with_overrides(seed=99, workers=3)
        assert cfg2.seed == 99
        assert cfg2.workers == 3
        assert cfg.seed != 99
        assert config_hash(cfg2) != config_hash(cfg)


# One line per key = value that a run would reject.  Each must fail at parse
# time, as a ValidationError naming the key, before any path is simulated.
REJECTED = [
    ("estimator.t_cap", "estimator.t_cap = 0.0005\n"),
    ("estimator.t_cap", "estimator.t_cap = nan\n"),
    ("estimator.t_cap", "estimator.t_cap = inf\n"),
    ("estimator.level_step", "estimator.level_step = nan\n"),
    ("diagnostic.n_samples", "diagnostic.n_samples = 500\n"),
    ("noise.sigma", "noise.sigma = nan\n"),
    ("noise.gamma", "noise.form = state_scaled\nnoise.gamma = nan\n"),
    ("domain.inner", "domain.inner = ball:inf\ndomain.outer = ball:2.0\n"),
    ("domain.outer", "domain.inner = ball:1.5\ndomain.outer = ball:inf\n"),
    ("domain.big", "domain.big = ball:nan\n"),
    ("domain.big", "domain.big = ellipsoid:nan\n"),
    ("domain.big", "domain.big = ellipsoid:2.0,inf\n"),
    ("domain.big", "domain.big = ellipsoid:1.0,2.0\n"),
    ("domain.big", "domain.big = ellipsoid:1e-300\n"),
    ("domain.big", "domain.big = ball:1e-200\n"),
    ("domain.outer", "domain.inner = ball:1.5\ndomain.outer = ball:1e200\n"),
    ("domain.inner", "domain.inner = ball:0.45\ndomain.outer = ball:2.0\n"),
    ("domain.outer", "domain.inner = ball:2.0\ndomain.outer = ball:1.0\n"),
    ("threshold.r0", "threshold.r0 = -5.0\n"),
    ("threshold.r_coeff", "threshold.r_coeff = -20.0\n"),
    ("threshold.r_coeff", "threshold.r_coeff = nan\n"),
    ("initial.points", "initial.points = nan\n"),
    ("initial.points", "initial.points = 0.5; inf\n"),
    ("diagnostic.point", "diagnostic.point = nan\n"),
    ("diagnostic.point", "diagnostic.point = 0.1; 0.7\n"),
    ("diagnostic.time", "diagnostic.time = 0\n"),
    ("diagnostic.time", "diagnostic.time = nan\n"),
    ("diagnostic.time", "diagnostic.time = inf\n"),
    ("diagnostic.halfwidth", "diagnostic.halfwidth = nan\n"),
    ("diagnostic.halfwidth", "diagnostic.halfwidth = inf\n"),
]


@pytest.mark.parametrize("key,lines", REJECTED,
                         ids=[lines.strip() for _, lines in REJECTED])
def test_rejected_value_names_its_key(key, lines):
    with pytest.raises(ValidationError) as exc:
        _cfg(MINIMAL + lines)
    # an object built from several keys of one section names the section,
    # and its own message names the field
    section, field = key.split(".")
    assert section in str(exc.value) and field in str(exc.value)


ALL_KEYS = """
model.variant = component_quadratic
model.lambdas = 1.0, 0.5
model.quad_coeff = 0.5, 0.25
model.validity_radius = 0.5
noise.sigma = 1.0, 0.2, 0.0, 0.0, 0.8, 0.1
noise.cols = 3
noise.form = state_scaled
noise.gamma = 0.1
domain.lower = -0.3, -0.25
domain.upper = 0.3, 0.35
domain.inner = ball:0.49
domain.outer = ellipsoid:0.48,0.49
domain.big = ball:0.48
threshold.alpha = 1.2
threshold.r0 = 0.1
threshold.r_coeff = 0.5
threshold.r_exponent = 0.5
initial.points = 0,0; 0.1,-0.1
initial.coords = y
initial.kappa = 1.5
initial.rho = 0.1
sweep.epsilons = 0.1, 0.05
estimator.method = adjusted
estimator.n_paths = 500
estimator.dt = 0.002
estimator.t_cap = 20.0
estimator.batch_size = 256
estimator.budget = 500
estimator.level_step = 0.5
diagnostic.time = 0.5
diagnostic.n_samples = 20000
diagnostic.point = 0.1, 0.2
diagnostic.epsilon = 0.05
diagnostic.grid_points = 41
diagnostic.halfwidth = 5.0
run.seed = 7
run.workers = 2
"""


@pytest.mark.parametrize("text,digest", [
    (MINIMAL, "3f2555f016f950d5d27836a0dd3df0f9d52c267d686dbbec98d6655f61beab3a"),
    (ALL_KEYS, "66a18953743b16b22097d67d8c3f58e61bfe91abe452fea417aa94b48571ee81"),
], ids=["minimal", "all_keys"])
def test_config_hash_is_pinned(text, digest):
    assert config_hash(_cfg(text)) == digest


def test_inner_domain_missing_a_box_boundary_sample_rejected():
    # an inner ball:0.45 misses a pulled-back boundary sample at radius 0.48;
    # travel_time_bounds would refuse it, so parsing does
    with pytest.raises(ValidationError, match="^domain: .* inner domain 'ball:0.45'"):
        _cfg(ALL_KEYS.replace("domain.inner = ball:0.49", "domain.inner = ball:0.45"))


def test_all_keys_config_sets_every_key():
    keys = {line.split("=")[0].strip() for line in ALL_KEYS.strip().splitlines()}
    assert keys == set(_cfg(ALL_KEYS).echo)


class TestRunPredict:
    def test_theory_rows(self):
        record = run_predict(_cfg(MINIMAL))
        assert record.mode == "predict"
        assert len(record.rows) == 2
        row = record.rows[0]
        assert row.method == "predict"
        assert row.p_hat is None
        assert row.beta == tail_exponent(Spectrum([1.0]), 1.5)
        assert row.psi == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
        # no travel spec: phi bounds collapse onto psi
        assert row.phi_minus == row.psi == row.phi_plus

    def test_phi_columns_with_travel_domains(self):
        text = MINIMAL.replace("domain.lower = -1.0", "domain.lower = -0.5")
        text = text.replace("domain.upper = 1.0", "domain.upper = 0.5")
        record = run_predict(_cfg(text + "domain.inner = ball:1.0\n"
                                  "domain.outer = ball:1.0\n"))
        tm, tp = record.travel_times
        assert tm == pytest.approx(math.log(2.0), abs=1e-9)
        assert tp == pytest.approx(math.log(2.0), abs=1e-9)
        row = record.rows[0]
        assert row.phi_minus == pytest.approx(row.phi_plus, rel=1e-12)
        assert row.phi_minus == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-9)

    def test_y_coordinates_initial_points(self):
        # coords = y: the point is mapped through f_inv(eps*y)/eps before psi
        text = (MINIMAL
                + "model.variant = component_quadratic\nmodel.quad_coeff = 1.0\n"
                + "initial.coords = y\ninitial.points = 0.05\n")
        text = text.replace("domain.lower = -1.0", "domain.lower = -0.15")
        text = text.replace("domain.upper = 1.0", "domain.upper = 0.15")
        record = run_predict(_cfg(text))
        spect = Spectrum([1.0])
        C0 = limit_covariance(np.array([[1.0]]), spect)
        box = BoxDomain([-0.15], [0.15])
        for row, eps in zip(record.rows, (0.2, 0.1)):
            y = 0.05
            x_eff = (2.0 * eps * y / (1.0 + math.sqrt(1.0 + 4.0 * eps * y))) / eps
            want = survival_prefactor(spect, C0, box, 0.0, 1.5,
                                      np.array([x_eff])).value
            assert row.psi == pytest.approx(want, rel=1e-12)


class TestRunEstimate:
    def test_rows_and_slope(self, small_record):
        record = small_record
        assert record.mode == "estimate"
        assert len(record.rows) == 3
        fit = record.slope_fits[0]
        assert fit is not None
        assert len(fit.points) == 3
        for row in record.rows:
            assert row.method == "direct"
            assert row.n_paths == 400
            assert 0.0 <= row.p_hat <= 1.0
            assert row.beta == tail_exponent(Spectrum([1.0]), 1.5)
            assert row.rescaled == pytest.approx(
                row.p_hat * row.epsilon ** -row.beta, rel=1e-12)

    def test_wall_times_recorded(self, small_record):
        assert all(row.wall_seconds > 0.0 for row in small_record.rows)

    def test_single_epsilon_no_fit(self):
        cfg = _cfg(SMALL_RUN.replace("sweep.epsilons = 0.3, 0.2, 0.1",
                                     "sweep.epsilons = 0.2"))
        record = run_estimate(cfg)
        assert len(record.rows) == 1
        assert record.slope_fits == (None,)

    def test_override_seed_changes_outcome_label(self, small_record):
        cfg = _cfg(SMALL_RUN)
        other = run_estimate(cfg.with_overrides(seed=1234))
        assert other.rows[0].seed == 1234
        assert other.config_hash != small_record.config_hash

    def test_adjusted_method_runs(self):
        text = SMALL_RUN.replace("sweep.epsilons = 0.3, 0.2, 0.1",
                                 "sweep.epsilons = 0.2")
        text = text.replace("domain.lower = -1.0", "domain.lower = -0.5")
        text = text.replace("domain.upper = 1.0", "domain.upper = 0.5")
        cfg = _cfg(text + "estimator.method = adjusted\ndomain.big = ball:1.0\n")
        record = run_estimate(cfg)
        assert record.rows[0].method == "adjusted"

    @pytest.mark.parametrize("error", [NoExit, RuntimeError])
    def test_partial_record_attached_on_cell_failure(self, monkeypatch, error):
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
        with pytest.raises(error) as exc:
            run_estimate(_cfg(SMALL_SPLITTING))
        partial = exc.value.partial_record
        assert partial.partial
        assert len(partial.rows) == 2
        assert any("partial run" in w for w in partial.warnings)
        assert json.loads(summary_json_text(partial))["partial"] is True

    def test_worker_failure_leaves_no_worker(self, monkeypatch):
        import os

        import exitlab.estimator as est
        parent = os.getpid()
        real = est.simulate_batch

        def fails_in_worker(model, noise, domain, X0, epsilon, *args):
            if os.getpid() != parent and epsilon == 0.1:
                raise NoExit("no exit in a worker")
            return real(model, noise, domain, X0, epsilon, *args)

        monkeypatch.setattr(est, "simulate_batch", fails_in_worker)
        with pytest.raises(NoExit, match="in a worker") as exc:
            run_estimate(_cfg(SMALL_SPLITTING + "estimator.batch_size = 200\n"
                              "run.workers = 2\n"))
        assert len(exc.value.partial_record.rows) == 2
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_splitting_method_runs(self):
        text = SMALL_RUN.replace("sweep.epsilons = 0.3, 0.2, 0.1",
                                 "sweep.epsilons = 0.2")
        cfg = _cfg(text + "estimator.method = splitting\n"
                   + "estimator.budget = 300\n")
        record = run_estimate(cfg)
        assert record.rows[0].method == "splitting"
        # T0 = 1.5*ln(5) splits into 3 levels of budget 300 each
        assert record.rows[0].n_paths == 900


# 3 epsilons x 3 start points, all direct
DIRECT_SWEEP = """
model.lambdas = 1.0, 0.5
domain.lower = -1.0
domain.upper = 1.0
threshold.alpha = 1.2
sweep.epsilons = 0.3, 0.2, 0.1
initial.points = 0,0; 0.5,0; -0.4,-0.3
estimator.n_paths = 300
estimator.dt = 0.005
"""


class TestDirectSweep:
    """A sweep's direct cells run in one call on shared path streams."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_estimate(_cfg(DIRECT_SWEEP))

    @pytest.mark.parametrize("workers, batch_size", [
        (1, 64), (1, 128), (2, 64), (2, 128), (2, 16384)])
    def test_rows_do_not_depend_on_workers_or_batches(self, serial, workers,
                                                      batch_size):
        other = run_estimate(_cfg(
            DIRECT_SWEEP + f"estimator.batch_size = {batch_size}\n"
            f"run.workers = {workers}\n"))
        assert _strip_wall(rows_csv_text(other)) == _strip_wall(
            rows_csv_text(serial))

    def test_each_cell_is_its_single_cell_estimate(self, serial):
        from exitlab import direct_tail_estimate

        cfg = _cfg(DIRECT_SWEEP)
        assert len(serial.rows) == 9
        assert len({row.p_hat for row in serial.rows}) > 1
        for row in serial.rows:
            alone = direct_tail_estimate(
                cfg.model, cfg.noise, cfg.box, [(np.array(row.x), row.epsilon)],
                cfg.threshold, cfg.n_paths, cfg.path, cfg.seed)
            assert alone == [row.estimate]

    @pytest.mark.parametrize("rows", [None, 100])
    def test_builds_one_generator_per_path(self, serial, monkeypatch, rows):
        # with rows, a call holds at most 100 rows: slices of 11 paths
        import exitlab.estimator as est

        made = []
        real = est.make_generator

        def counted(seed, path_id):
            made.append(path_id)
            return real(seed, path_id)

        monkeypatch.setattr(est, "make_generator", counted)
        if rows is not None:
            monkeypatch.setattr(est, "_DIRECT_ROWS", rows)
        record = run_estimate(_cfg(DIRECT_SWEEP + "estimator.batch_size = 128\n"))
        assert sorted(made) == list(range(300))
        assert _strip_wall(rows_csv_text(record)) == _strip_wall(
            rows_csv_text(serial))

    def test_wall_seconds_add_up_to_the_time_spent(self, monkeypatch):
        # a clock that moves only in the theory columns (1 s per cell) and
        # in the direct run (7 s for all nine cells)
        import types

        import exitlab.harness as hz
        now = [0.0]
        theory, direct = hz._theory_columns, hz.direct_tail_estimate

        def slow_theory(*args):
            now[0] += 1.0
            return theory(*args)

        def slow_direct(*args, **kwargs):
            now[0] += 7.0
            return direct(*args, **kwargs)

        monkeypatch.setattr(hz, "time", types.SimpleNamespace(
            perf_counter=lambda: now[0]))
        monkeypatch.setattr(hz, "_theory_columns", slow_theory)
        monkeypatch.setattr(hz, "direct_tail_estimate", slow_direct)
        rows = run_estimate(_cfg(DIRECT_SWEEP)).rows
        total = sum(row.estimate.path_steps for row in rows)
        for row in rows:
            assert row.wall_seconds == pytest.approx(
                1.0 + 7.0 * row.estimate.path_steps / total, rel=1e-12)
        assert sum(row.wall_seconds for row in rows) == pytest.approx(16.0, rel=1e-12)


def test_engine_results_add_up_to_the_cells_counters(monkeypatch):
    # A folding sweep (0.2, 0.1 and 0.05 from two points, 0.07 unfolded):
    # summed over every simulate_batch call, the engine's steps_used and
    # clamped equal the cells' path_steps and n_clamped, which is what
    # perfbench's traced count check compares.
    import exitlab.estimator as est

    sums = np.zeros(2, dtype=np.int64)
    real = est.simulate_batch

    def summed(*args, **kwargs):
        res = real(*args, **kwargs)
        sums[:] += res["steps_used"].sum(), res["clamped"].sum()
        return res

    monkeypatch.setattr(est, "simulate_batch", summed)
    record = run_estimate(_cfg("""
model.lambdas = 1.0
domain.lower = -1.0
domain.upper = 1.0
threshold.alpha = 1.5
sweep.epsilons = 0.2, 0.1, 0.07, 0.05
initial.points = 0; 1.5
estimator.n_paths = 300
estimator.batch_size = 128
"""))
    cells = [row.estimate for row in record.rows]
    assert len(cells) == 8 and sums[0] > 0
    assert sums.tolist() == [sum(c.path_steps for c in cells),
                             sum(c.n_clamped for c in cells)]


class TestOutputs:
    def test_csv_columns_exact(self, small_record):
        header = rows_csv_text(small_record).splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_csv_round_trip(self, small_record, tmp_path):
        record = small_record
        paths = emit_outputs(record, tmp_path)
        rows = load_rows(paths["rows"])
        assert len(rows) == len(record.rows)
        for got, row in zip(rows, record.rows):
            assert got["p_hat"] == row.p_hat
            assert got["n_survived"] == row.n_survived
            assert got["epsilon"] == row.epsilon
            assert got["x"] == (0.0,)
            # beta column re-derivable from alpha at read time
            assert got["beta"] == tail_exponent(Spectrum([1.0]), got["alpha"])

    def test_determinism_modulo_wall(self, small_record):
        again = run_estimate(_cfg(SMALL_RUN))
        assert _strip_wall(rows_csv_text(small_record)) == _strip_wall(
            rows_csv_text(again))

    def test_batching_and_workers_keep_hash_and_rows(self, small_record):
        other = run_estimate(_cfg(
            SMALL_RUN + "estimator.batch_size = 96\nrun.workers = 2\n"))
        assert other.config_echo["estimator.batch_size"] == "96"
        assert other.config_echo["run.workers"] == "2"
        assert other.config_hash == small_record.config_hash
        assert _strip_wall(rows_csv_text(other)) == _strip_wall(
            rows_csv_text(small_record))

    def test_summary_hash_matches_rehash(self, small_record):
        record = small_record
        blob = json.loads(summary_json_text(record))
        assert blob["config_hash"] == record.config_hash
        assert hash_echo(blob["config"]) == record.config_hash
        assert blob["n_rows"] == 3
        assert list(blob["csv_columns"]) == list(CSV_COLUMNS)
        assert "environment" in blob and "numpy" in blob["environment"]
        for fit in blob["slope_fits"]:
            assert set(fit) >= {"slope", "intercept", "slope_stderr"}

    def test_wall_seconds_absent_from_summary(self, small_record):
        assert "wall_seconds" not in json.dumps(
            json.loads(summary_json_text(small_record))["config"])

    def test_plot_csv_shape(self, small_record):
        lines = plot_csv_text(small_record).splitlines()
        assert lines[0] == "kind,a,b"
        kinds = [ln.split(",")[0] for ln in lines[1:]]
        assert kinds.count("point") == 3
        assert kinds.count("slope") == 1
        assert kinds.count("intercept") == 1
        assert kinds.count("fit_line") >= 2

    def test_emit_writes_three_files(self, small_record, tmp_path):
        paths = emit_outputs(small_record, tmp_path)
        assert set(paths) == {"rows", "summary", "plot"}
        for p in paths.values():
            assert p.exists() and p.stat().st_size > 0

    def test_predict_record_has_no_plot(self, tmp_path):
        record = run_predict(_cfg(MINIMAL))
        paths = emit_outputs(record, tmp_path)
        assert "plot" not in paths
        rows = load_rows(paths["rows"])
        assert rows[0]["p_hat"] is None
        assert rows[0]["psi"] == pytest.approx(2.0 / math.sqrt(math.pi),
                                               rel=1e-12)


class TestReports:
    def test_flow_report(self):
        text = MINIMAL.replace("domain.lower = -1.0", "domain.lower = -0.5")
        text = text.replace("domain.upper = 1.0", "domain.upper = 0.5")
        cfg = _cfg(text + "domain.inner = ball:1.0\ndomain.outer = ball:1.0\n"
                   + "initial.points = 0.25\n")
        rep = run_flow_report(cfg)
        assert rep["travel_times"] == pytest.approx(
            [math.log(2.0), math.log(2.0)], abs=1e-9)
        entries = rep["points"]
        assert len(entries) == 2
        # exit of the flow from eps*0.25: tau = ln(L/(eps*0.25))
        for entry, eps in zip(entries, (0.2, 0.1)):
            assert entry["epsilon"] == eps
            assert entry["exit_time"] == pytest.approx(
                math.log(0.5 / (eps * 0.25)), abs=1e-6)
        assert set(rep["transversality"]) == {"inner", "outer"}
        assert all(item["ok"] for item in rep["transversality"].values())

    def test_flow_report_origin_note(self):
        cfg = _cfg(MINIMAL)  # default initial point is the origin
        rep = run_flow_report(cfg)
        assert all(e["exit_time"] is None for e in rep["points"])
        assert all("note" in e for e in rep["points"])

    def test_density_report(self):
        cfg = _cfg(MINIMAL + "diagnostic.time = 0.5\n"
                   + "diagnostic.n_samples = 20000\n"
                   + "diagnostic.epsilon = 0.1\n")
        diag = run_density_report(cfg)
        assert diag.l1_diff < 0.05
        assert diag.mass == pytest.approx(1.0, abs=5e-3)

    def test_density_report_samples_on_run_workers(self, monkeypatch):
        from exitlab import harness

        seen = []
        sampler = harness.rescaled_fluctuation_samples

        def spy(*args, **kwargs):
            seen.append(kwargs.get("workers"))
            return sampler(*args, **kwargs)

        monkeypatch.setattr(harness, "rescaled_fluctuation_samples", spy)
        text = (MINIMAL + "diagnostic.time = 0.2\n" + "diagnostic.epsilon = 0.1\n"
                + "estimator.batch_size = 5000\n")  # 10000 samples, 2 batches
        serial = run_density_report(_cfg(text))
        fanned = run_density_report(_cfg(text + "run.workers = 2\n"))
        assert seen == [1, 2]
        assert fanned.empirical.tobytes() == serial.empirical.tobytes()
        assert fanned.sup_diff == serial.sup_diff
