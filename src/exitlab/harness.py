"""Experiment driver: prediction rows, estimation sweeps, files on disk.

A run record is a list of per-(epsilon, start point) rows holding the
measured tail probability next to every theoretical quantity needed to judge
it, plus a canonical config echo, its hash, and per-point slope fits.  The
CSV column set is fixed; predict-mode rows leave the simulation columns
empty.  Output bytes are reproducible except for the wall_seconds column.
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_hash
from .dynamics import (
    _default_t_cap,
    flow_exit_times_batch,
    transversality_check,
    travel_time_bounds,
)
from .errors import DegenerateFit, ExitlabError, NoExit, ValidationError
from .estimator import (
    DensityDiagnostic,
    SlopeFit,
    TailEstimate,
    adjusted_tail_estimate,
    density_diagnostic,
    direct_tail_estimate,
    rescaled_fluctuation_samples,
    rescaled_prefactor,
    slope_regression,
    splitting_tail_estimate,
)
from .exponents import tail_exponent
from .gaussian import (
    finite_time_covariance,
    limit_covariance,
    prefactor_bounds,
    survival_prefactor,
)

CSV_COLUMNS = (
    "epsilon", "x", "alpha", "beta", "p_hat", "stderr", "n_paths",
    "n_survived", "rescaled", "rescaled_stderr", "psi", "phi_minus",
    "phi_plus", "method", "dt", "seed", "wall_seconds",
)


@dataclass
class RunRow:
    """One (epsilon, start point) line of a run."""

    epsilon: float
    x: tuple[float, ...]
    alpha: float
    beta: float
    p_hat: float | None
    stderr: float | None
    n_paths: int | None
    n_survived: int | None
    rescaled: float | None
    rescaled_stderr: float | None
    psi: float
    phi_minus: float
    phi_plus: float
    method: str
    dt: float
    seed: int
    wall_seconds: float
    point_index: int = 0
    estimate: TailEstimate | None = None


@dataclass
class RunRecord:
    """Everything a run produced, ready for emission."""

    mode: str
    config_echo: dict[str, str]
    config_hash: str
    rows: list[RunRow]
    slope_fits: tuple[SlopeFit | None, ...]
    warnings: list[str]
    environment: dict[str, str]
    travel_times: tuple[float, float] | None = None
    partial: bool = False


def _environment_stamp() -> dict[str, str]:
    import scipy

    return {
        "exitlab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _theory_point(cfg: ExperimentConfig, point: np.ndarray,
                  epsilon: float) -> np.ndarray:
    """Start point in theory coordinates (start state = epsilon * this).

    coords = x: the configured point, scaled by the kappa * eps**-rho rule.
    coords = y: the configured point lives in linearizing coordinates; the
    start state is the pullback of its eps-scale image.
    """
    scaled = cfg.scale.value(epsilon) * point
    if cfg.coords == "x":
        return scaled
    return cfg.model.pull_batch((epsilon * scaled)[None, :])[0] / epsilon


def _travel_times(cfg: ExperimentConfig) -> tuple[float, float]:
    """The travel-time bracket of domain.inner and domain.outer, (0, 0)
    without them.

    A bracket that cannot be computed or is inverted is the config's
    fault, so either raises ValidationError, which every command reports
    as a config error.
    """
    if cfg.inner is None or cfg.outer is None:
        return 0.0, 0.0
    try:
        t_minus, t_plus = travel_time_bounds(cfg.model, cfg.box, cfg.inner,
                                             cfg.outer, dt=cfg.path.dt)
    except ExitlabError as exc:
        raise ValidationError(f"domain.inner and domain.outer: {exc}") from exc
    if t_minus > t_plus:
        raise ValidationError(
            f"domain.inner and domain.outer: the flow leaves domain.inner at "
            f"t_minus = {t_minus!r}, after it leaves domain.outer at t_plus = "
            f"{t_plus!r}; the travel-time bracket needs t_minus <= t_plus")
    return t_minus, t_plus


def _theory_columns(cfg, c0, beta, x_eff, t_minus, t_plus):
    psi = survival_prefactor(cfg.model.spectrum, c0, cfg.box,
                             cfg.threshold.r0, cfg.threshold.alpha, x_eff)
    lo, hi = prefactor_bounds(cfg.model.spectrum, c0, cfg.box,
                              cfg.threshold.r0, cfg.threshold.alpha, x_eff,
                              t_minus, t_plus)
    return psi.value, lo.value, hi.value


def _sweep(cfg: ExperimentConfig, estimate: bool = False) -> RunRecord:
    """One row per (epsilon, start point): theory columns, plus with
    estimate the Monte Carlo columns from _estimates.

    A row's wall_seconds is its theory time plus its estimate's seconds.
    If _estimates raises, whatever the exception, the rows of the cells it
    finished go on a partial record hung on it.
    """
    c0 = limit_covariance(cfg.noise.sigma0, cfg.model.spectrum)
    beta = tail_exponent(cfg.model.spectrum, cfg.threshold.alpha)
    t_minus, t_plus = _travel_times(cfg)
    rows: list[RunRow] = []

    def record(warnings=(), partial=False) -> RunRecord:
        return RunRecord(
            mode="estimate" if estimate else "predict",
            config_echo=cfg.echo, config_hash=config_hash(cfg), rows=rows,
            slope_fits=(), warnings=list(cfg.warnings) + list(warnings),
            environment=_environment_stamp(), travel_times=(t_minus, t_plus),
            partial=partial)

    cells = []  # (epsilon, point index, x_eff, theory columns, seconds)
    for epsilon in cfg.epsilons:
        for pi, point in enumerate(cfg.points):
            start = time.perf_counter()
            x_eff = _theory_point(cfg, point, epsilon)
            theory = _theory_columns(cfg, c0, beta, x_eff, t_minus, t_plus)
            cells.append((epsilon, pi, x_eff, theory,
                          time.perf_counter() - start))
    if estimate:
        results = _estimates(cfg, [(x_eff, eps) for eps, _, x_eff, _, _ in cells])
    for epsilon, pi, x_eff, (psi, phi_minus, phi_plus), seconds in cells:
        est = None
        rescaled = rescaled_se = None
        if estimate:
            try:
                est, est_seconds = next(results)
            except Exception as exc:
                # completed cells stay usable: hang them on the error so
                # the caller can still emit them
                exc.partial_record = record([
                    f"partial run: failed at epsilon={epsilon!r} "
                    f"point {pi}: {exc}"], partial=True)
                raise
            seconds += est_seconds
            rescaled, rescaled_se = rescaled_prefactor(est, epsilon, beta)
        rows.append(RunRow(
            epsilon=epsilon, x=tuple(x_eff.tolist()),
            alpha=cfg.threshold.alpha, beta=beta,
            p_hat=getattr(est, "p_hat", None),
            stderr=getattr(est, "stderr", None),
            n_paths=getattr(est, "n_paths", None),
            n_survived=getattr(est, "n_survived", None),
            rescaled=rescaled, rescaled_stderr=rescaled_se, psi=psi,
            phi_minus=phi_minus, phi_plus=phi_plus,
            method=getattr(est, "method", "predict"), dt=cfg.path.dt,
            seed=cfg.seed, wall_seconds=seconds, point_index=pi,
            estimate=est))
    return record()


def run_predict(cfg: ExperimentConfig) -> RunRecord:
    """Theory-only rows: exponent, prefactor, and travel-time bracket."""
    return _sweep(cfg)


def _estimate_one(cfg: ExperimentConfig, x_eff: np.ndarray,
                  epsilon: float) -> TailEstimate:
    """The splitting or adjusted estimate of one cell."""
    if cfg.method == "splitting":
        return splitting_tail_estimate(
            cfg.model, cfg.noise, cfg.box, x_eff, epsilon, cfg.threshold,
            cfg.budget, cfg.path, cfg.seed, workers=cfg.workers,
            batch_size=cfg.batch_size, level_step=cfg.level_step)
    result = adjusted_tail_estimate(
        cfg.model, cfg.noise, cfg.box, cfg.big, x_eff, epsilon, cfg.threshold,
        cfg.n_paths, cfg.path, cfg.seed, workers=cfg.workers,
        batch_size=cfg.batch_size)
    return result.adjusted


def _estimates(cfg: ExperimentConfig, cells):
    """(estimate, seconds) of each (x_eff, epsilon) cell, in order.

    The direct cells run in one call, on shared path streams, and each gets
    the share of its wall time that its path-steps are of the total, so the
    seconds add up to the time spent.  Path-steps count each cell's own
    grid, so a cell whose rows fold onto another cell's is charged as if
    stepped alone.  Other methods run cell by cell.
    """
    if cfg.method == "direct":
        start = time.perf_counter()
        ests = direct_tail_estimate(
            cfg.model, cfg.noise, cfg.box, cells, cfg.threshold, cfg.n_paths,
            cfg.path, cfg.seed, workers=cfg.workers, batch_size=cfg.batch_size)
        wall = time.perf_counter() - start
        total = sum(est.path_steps for est in ests)
        for est in ests:
            yield est, (wall * est.path_steps / total if total
                        else wall / len(ests))
        return
    for x_eff, epsilon in cells:
        start = time.perf_counter()
        est = _estimate_one(cfg, x_eff, epsilon)
        yield est, time.perf_counter() - start


def run_estimate(cfg: ExperimentConfig) -> RunRecord:
    """Monte Carlo sweep over epsilons and start points per the config.

    The direct cells share one fan-out; every other cell and splitting
    level fans out on its own.  Each fan-out forks its own workers, at most
    one per batch, and reaps them before it returns, also when it raises.
    """
    record = _sweep(cfg, estimate=True)
    fits: list[SlopeFit | None] = []
    for pi in range(len(cfg.points)):
        pts = [(r.epsilon, r.estimate) for r in record.rows if r.point_index == pi]
        try:
            fits.append(slope_regression(pts))
        except DegenerateFit:
            fits.append(None)
    record.slope_fits = tuple(fits)
    return record


# ---------------------------------------------------------------------------
# emission


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):  # the start point x
        return ";".join(repr(float(c)) for c in value)
    return str(value)


def _row_to_csv(row: RunRow) -> list[str]:
    # every column is the RunRow field of the same name
    return [_fmt(getattr(row, c)) for c in CSV_COLUMNS]


def rows_csv_text(record: RunRecord) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in record.rows:
        writer.writerow(_row_to_csv(row))
    return buf.getvalue()


def plot_csv_text(record: RunRecord, point_index: int = 0) -> str:
    """Plot-ready table: one point row per epsilon plus fit metadata rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("kind", "a", "b"))
    fit = (record.slope_fits[point_index]
           if point_index < len(record.slope_fits) else None)
    for row in record.rows:
        if row.point_index != point_index or row.p_hat is None:
            continue
        if row.p_hat > 0.0:
            writer.writerow(("point", repr(math.log(row.epsilon)),
                             repr(math.log(row.p_hat))))
    if fit is not None:
        for lx, _ in fit.points:
            writer.writerow(("fit_line", repr(lx),
                             repr(fit.intercept + fit.slope * lx)))
        writer.writerow(("slope", repr(fit.slope), repr(fit.slope_stderr)))
        writer.writerow(("intercept", repr(fit.intercept), ""))
    return buf.getvalue()


def _fit_to_json(fit: SlopeFit | None):
    if fit is None:
        return None
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "slope_stderr": fit.slope_stderr,
        "n_points": len(fit.points),
        "points": [list(p) for p in fit.points],
        "residuals": list(fit.residuals),
    }


def summary_json_text(record: RunRecord) -> str:
    payload = {
        "mode": record.mode,
        "config": record.config_echo,
        "config_hash": record.config_hash,
        "environment": record.environment,
        "warnings": record.warnings,
        "n_rows": len(record.rows),
        "csv_columns": list(CSV_COLUMNS),
        "slope_fits": [_fit_to_json(v) for v in record.slope_fits],
        "travel_times": (list(record.travel_times)
                         if record.travel_times is not None else None),
        "partial": record.partial,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_outputs(record: RunRecord, out_dir) -> dict[str, Path]:
    """Write rows.csv, summary.json and (for estimates) plot.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    rows_path = out / "rows.csv"
    rows_path.write_text(rows_csv_text(record), encoding="utf-8")
    paths["rows"] = rows_path
    summary_path = out / "summary.json"
    summary_path.write_text(summary_json_text(record), encoding="utf-8")
    paths["summary"] = summary_path
    if record.mode == "estimate":
        plot_path = out / "plot.csv"
        plot_path.write_text(plot_csv_text(record), encoding="utf-8")
        paths["plot"] = plot_path
    return paths


def load_rows(path) -> list[dict]:
    """Read a rows.csv back into typed dicts (x as a tuple of floats)."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError("unexpected column set in rows csv")
        for rec in reader:
            parsed = {}
            for key, value in rec.items():
                if key == "x":
                    parsed[key] = tuple(float(c) for c in value.split(";"))
                elif key == "method":
                    parsed[key] = value
                elif key in ("n_paths", "n_survived", "seed"):
                    parsed[key] = int(value) if value else None
                else:
                    parsed[key] = float(value) if value else None
            out.append(parsed)
    return out


# ---------------------------------------------------------------------------
# auxiliary CLI actions


def run_flow_report(cfg: ExperimentConfig) -> dict:
    """Deterministic exit times from each scaled start, plus travel bounds."""
    report: dict = {"points": [], "travel_times": None, "transversality": {}}
    moving, starts = [], []
    for epsilon in cfg.epsilons:
        for pi, point in enumerate(cfg.points):
            x0 = epsilon * _theory_point(cfg, point, epsilon)
            entry = {"epsilon": epsilon, "point_index": pi, "exit_time": None}
            if np.all(x0 == 0.0):
                entry["note"] = "origin is a fixed point; no exit"
            else:
                moving.append(entry)
                starts.append(x0)
            report["points"].append(entry)
    if starts:
        taus = flow_exit_times_batch(cfg.model, cfg.box, np.vstack(starts))
        if np.isnan(taus).any():
            raise NoExit(f"no exit before t = "
                         f"{_default_t_cap(cfg.model):g}")
        for entry, tau in zip(moving, taus):
            entry["exit_time"] = float(tau)
    if cfg.inner is not None and cfg.outer is not None:
        report["travel_times"] = list(_travel_times(cfg))
    for key, dom in (("inner", cfg.inner), ("outer", cfg.outer),
                     ("big", cfg.big)):
        if dom is None:
            continue
        rep = transversality_check(cfg.model, dom, n_samples=32)
        report["transversality"][key] = {
            "ok": rep.ok, "min_inner_product": rep.min_inner_product}
    return report


def run_density_report(cfg: ExperimentConfig) -> DensityDiagnostic:
    """Fluctuation samples at the diagnostic horizon vs the finite-time law."""
    samples = rescaled_fluctuation_samples(
        cfg.model, cfg.noise, cfg.diagnostic_point, cfg.diagnostic_epsilon,
        cfg.diagnostic_time, cfg.path, cfg.seed, cfg.diagnostic_n_samples,
        batch_size=cfg.batch_size, workers=cfg.workers)
    reference = finite_time_covariance(cfg.noise.sigma0, cfg.model.spectrum,
                                       cfg.diagnostic_time)
    return density_diagnostic(samples, reference,
                              grid_points=cfg.diagnostic_grid_points,
                              halfwidth_sigmas=cfg.diagnostic_halfwidth)


def density_csv_text(diag: DensityDiagnostic) -> str:
    """Grid/empirical/reference table for 1-d diagnostics (else summary only)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    grid = np.asarray(diag.grid) if not isinstance(diag.grid, (tuple, list)) else None
    if grid is not None and grid.ndim == 1:
        writer.writerow(("z", "empirical", "reference"))
        for z, e, r in zip(grid, diag.empirical, diag.reference):
            writer.writerow((repr(float(z)), repr(float(e)), repr(float(r))))
    writer.writerow(("sup_diff", repr(diag.sup_diff), ""))
    writer.writerow(("l1_diff", repr(diag.l1_diff), ""))
    writer.writerow(("mass", repr(diag.mass), ""))
    return buf.getvalue()
