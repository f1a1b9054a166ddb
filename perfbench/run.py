#!/usr/bin/env python3
"""exitlab benchmark: named sweep workloads through the public API.

Run from the root of a checkout (the directory that holds ``src/exitlab``):

    python3 perfbench/run.py --workload direct-1d --seed 1 --seconds 20 --trace 0

The workload's configs are generated from ``--seed`` (see ``workloads.py``)
and parsed once.  One sweep is ``exitlab.run_estimate`` followed by
``exitlab.emit_outputs`` for every config; sweeps repeat until ``--seconds``
of sweeping have passed (at least three), with the set-up probes run
between them.  Every sweep is checked cell by cell: the
rescaled estimate must lie within ``BAND_K`` stderr plus the criterion's
relative tolerance of psi, and each ``rows.csv`` row without
``wall_seconds`` must hash the same in every sweep and, at the default seed,
equal the digest in ``digests.json``.  Counts that only depend on the seed
must repeat exactly.

``--trace 0`` prints the end-to-end metrics (medians over sweeps).
``--trace 1`` alternates untraced and traced sweeps and prints the per-layer
metrics from the traced ones (``tracer.py``), plus ``trace.overhead_frac``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count cells over all sweeps.  Details, the machine stamp and the spans go
to ``.perfbench_out/``.

``--record-digests`` stores the default seed's row digests and output counts
in ``digests.json``; use it only when a change to the program is meant to
change its numbers.
"""

from __future__ import annotations

import os

# numpy links threaded OpenBLAS; two fork workers on two cores must not
# each start a BLAS thread pool.  Set before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
BAND_K = 3.0  # stderr multiple in the per-cell band, as criteria 6 and 8
MIN_SWEEPS = 3
MEASURE_CAP_S = 110.0  # no new sweep starts after this, so a run ends within 180 s
SETUP_RUNS = 7

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "path_steps_per_s": "1/s",
    "time_to_1pct_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.parse_s": "s",
    "sde.make_generator_calls": "count",
    "sde.make_generator_s": "s",
    "sde.normals_drawn": "count",
    "sde.noise_bytes": "bytes_computed",
    "sde.draw_s": "s",
    "sde.draw_use_ratio": "ratio",
    "sde.simulate_batch_calls": "count",
    "sde.simulate_batch_s": "s",
    "sde.path_steps": "count",
    "sde.ns_per_path_step": "ns",
    "sde.step_self_s": "s",
    "dynamics.drift_batch_s": "s",
    "dynamics.push_batch_s": "s",
    "dynamics.clamp_s": "s",
    "dynamics.outside_s": "s",
    "dynamics.step_calls": "count",
    "dynamics.flow_exit_s": "s",
    "dynamics.flow_exit_rows": "count",
    "dynamics.clamped_paths": "count",
    "gaussian.prefactor_calls": "count",
    "gaussian.prefactor_s": "s",
    "estimator.call_s": "s",
    "estimator.self_s": "s",
    "estimator.batches": "count",
    "estimator.pool_starts": "count",
    "estimator.split_levels": "count",
    "estimator.capped_paths": "count",
    "estimator.fanout_cpu_util": "ratio",
    "estimator.fanout_idle_s": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "bytes",
    "harness.self_s": "s",
    "trace.overhead_frac": "frac",
}

ESTIMATOR_SPANS = ("estimator.direct", "estimator.splitting", "estimator.adjusted")
# the fan-out helper and pool creation belong to the estimator layer
FANOUT_SPANS = ("estimator.map_batches", "estimator.pool_start")
WORKER_BUSY_SPANS = ("sde.simulate_batch", "dynamics.flow_exit_times_batch",
                     "sde.make_generator.run")

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import exitlab
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        exitlab.parse_config(fh.read())
"""


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# environment


def load_exitlab(root: Path):
    """Import exitlab from the checkout's src/, never from an installed copy."""
    src = root / "src"
    if not (src / "exitlab" / "__init__.py").is_file():
        raise UsageError(f"no src/exitlab under {root}; run from the repository root")
    sys.path.insert(0, str(src))
    import exitlab

    if Path(exitlab.__file__).resolve().parent != (src / "exitlab").resolve():
        raise UsageError(f"imported exitlab from {exitlab.__file__}, not from {src}")
    return exitlab


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "exitlab").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_bytes(level: int) -> int | None:
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if int((index / "level").read_text()) != level:
                continue
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        return int(size.rstrip("KM")) * scale
    return None


def machine_stamp(root: Path, seed: int, cfgs, exitlab) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload_seed": seed,
        "config_hashes": [exitlab.config_hash(c) for c in cfgs],
    }


def _cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class Sweep:
    traced: bool
    sweep_s: float
    cpu_s: float
    outputs: list  # per config: (record, {kind: path}) or (None, traceback text)
    parse_s: float | None = None
    records: list = field(default_factory=list)  # tracer records (traced sweeps)


def run_sweep(exitlab, cfgs, emit_dirs, tracer: Tracer | None = None,
              texts=None) -> Sweep:
    run_estimate, emit_outputs = exitlab.run_estimate, exitlab.emit_outputs
    parse_s = None
    if tracer is not None:
        t0 = time.perf_counter()
        for text in texts:
            exitlab.parse_config(text)
        parse_s = time.perf_counter() - t0
        tracer.install()
        run_estimate = tracer.wrap("harness.run_estimate", run_estimate, True)
        emit_outputs = tracer.wrap("harness.emit_outputs", emit_outputs, True)
    outputs = []
    try:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        for cfg, out_dir in zip(cfgs, emit_dirs):
            try:
                record = run_estimate(cfg)
                outputs.append((record, emit_outputs(record, out_dir)))
            except Exception:  # a failing config counts its cells as failed
                outputs.append((None, traceback.format_exc()))
        sweep_s = time.perf_counter() - t0
        cpu_s = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    sweep = Sweep(tracer is not None, sweep_s, cpu_s, outputs, parse_s)
    if tracer is not None:
        sweep.records = tracer.collect()
    return sweep


# ---------------------------------------------------------------------------
# correctness


def _row_digest(row: dict, columns) -> str:
    canon = "\x1f".join(f"{c}={row[c]}" for c in columns if c != "wall_seconds")
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class Cell:
    config: int
    index: int
    digest: str | None  # rows.csv row without wall_seconds; None if not produced
    problem: str | None  # why the cell fails the band, or why it is missing


@dataclass
class SweepCheck:
    cells: list[Cell] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)  # seed-determined, from outputs
    time_to_1pct_s: float = 0.0
    emit_bytes: int = 0


def check_sweep(sweep: Sweep, cfgs, rel_tols) -> SweepCheck:
    out = SweepCheck()
    for i, (cfg, rel_tol, (record, emitted)) in enumerate(
            zip(cfgs, rel_tols, sweep.outputs)):
        expected = len(cfg.epsilons) * len(cfg.points)
        if record is None:
            problem = f"raised {emitted.strip().splitlines()[-1]}"
        else:
            out.emit_bytes += sum(Path(p).stat().st_size for p in emitted.values())
            with open(emitted["rows"], newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                rows = list(reader)
                columns = reader.fieldnames
            problem = (None if len(rows) == expected == len(record.rows)
                       else f"{len(rows)} rows, expected {expected}")
        if problem is not None:
            out.cells.extend(Cell(i, j, None, problem) for j in range(expected))
            continue
        for j, (row, run_row) in enumerate(zip(rows, record.rows)):
            resc, se, psi = (float(row[k]) for k in ("rescaled", "rescaled_stderr", "psi"))
            p_hat, p_se = float(row["p_hat"]), float(row["stderr"])
            band = rel_tol * psi + BAND_K * se
            problem = None
            if not (p_hat > 0.0 and math.isfinite(resc) and abs(resc - psi) <= band):
                problem = (f"eps={row['epsilon']} x={row['x']}: rescaled {resc!r} "
                           f"vs psi {psi!r} outside band {band!r}")
            else:
                out.time_to_1pct_s += float(row["wall_seconds"]) * (p_se / p_hat / 0.01) ** 2
            out.cells.append(Cell(i, j, _row_digest(row, columns), problem))
            est = run_row.estimate
            out.counts["path_steps"] += est.path_steps
            out.counts["clamped_paths"] += est.n_clamped
            out.counts["capped_paths"] += est.n_capped
            if est.method == "splitting":
                out.counts["split_levels"] += est.extinct_level or est.n_paths // cfg.budget
    return out


def reference_digests(checks: list[SweepCheck], recorded: list | None) -> dict:
    """Per (config, cell): the recorded digest, else the first sweep's."""
    if recorded is not None:
        return {(i, j): d for i, cfg in enumerate(recorded) for j, d in enumerate(cfg)}
    ref = {}
    for chk in checks:
        for c in chk.cells:
            if c.digest is not None:
                ref.setdefault((c.config, c.index), c.digest)
    return ref


def grade(checks: list[SweepCheck], reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes): a cell fails in a sweep on any problem."""
    attempted = failed = 0
    notes = []
    for s, chk in enumerate(checks):
        for c in chk.cells:
            attempted += 1
            problem = c.problem
            if problem is None and c.digest != reference.get((c.config, c.index)):
                problem = (f"row digest {c.digest} != reference "
                           f"{reference.get((c.config, c.index))}")
            if problem is not None:
                failed += 1
                notes.append(f"sweep {s} config {c.config} cell {c.index}: {problem}")
    return attempted, failed, notes


def load_recorded(workload: str, seed: int) -> dict | None:
    """The default seed's recorded {"rows": digests per config, "counts": ...}."""
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if data.get("seed") != DEFAULT_SEED:
        return None
    return data.get("workloads", {}).get(workload)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced sweep

# Counts fixed by the seed; they must repeat in every traced sweep.
DETERMINISTIC = (
    "sde.make_generator_calls", "sde.normals_drawn", "sde.noise_bytes", "sde.simulate_batch_calls",
    "sde.path_steps", "dynamics.step_calls", "dynamics.flow_exit_rows",
    "dynamics.clamped_paths", "gaussian.prefactor_calls", "estimator.batches",
    "estimator.pool_starts", "estimator.split_levels", "estimator.capped_paths",
)


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def merge_records(records: list[dict]):
    by_key = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> count, total, self
    counts = Counter()
    spans = []
    for rec in records:
        for name, parent, n, total, self_s in rec["agg"]:
            a = by_key[(name, parent)]
            a[0] += n
            a[1] += total
            a[2] += self_s
        counts.update(rec["counts"])
        spans.extend(tuple(s) for s in rec["spans"])
    return by_key, counts, spans


def layer_metrics(sweep: Sweep, chk: SweepCheck, workers: int) -> dict:
    by_key, counts, spans = merge_records(sweep.records)
    by_name = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, _parent), a in by_key.items():
        b = by_name[name]
        for k in range(3):
            b[k] += a[k]

    def n(name):
        return by_name[name][0] if name in by_name else 0

    def tot(*names):
        return sum(by_name[x][1] for x in names if x in by_name)

    def self_of(*names):
        return sum(by_name[x][2] for x in names if x in by_name)

    # An estimator call's self time is its in-process self time minus the
    # part of its interval that worker spans cover.  Fan-out idle time is
    # lanes x wall minus simulate_batch time over each fan-out window (the
    # fan-out helper's calls, else whole estimator calls); lanes is the size
    # of the pool started in the window, 1 when the batches ran in-process.
    owner = os.getpid()
    covered = idle = 0.0

    def inside(a, b):
        return [s for s in spans if a <= s[3] and s[4] <= b]

    for name, _parent, pid, a, b, _info in spans:
        if name in ESTIMATOR_SPANS and pid == owner:
            covered += _union_length((s[3], s[4]) for s in inside(a, b)
                                     if s[2] != owner and s[0] in WORKER_BUSY_SPANS)
    windows = ("estimator.map_batches",) if n("estimator.map_batches") else ESTIMATOR_SPANS
    for name, _parent, pid, a, b, _info in spans:
        if pid != owner or name not in windows:
            continue
        spans_in = inside(a, b)
        lanes = max([s[5] for s in spans_in if s[0] == "estimator.pool_start"] or [1])
        idle += lanes * (b - a) - sum(s[4] - s[3] for s in spans_in
                                      if s[0] == "sde.simulate_batch")

    steps = counts["path_steps"]
    normals = counts["normals_drawn"]
    sim_s = tot("sde.simulate_batch")
    return {
        "config.parse_s": sweep.parse_s,
        "sde.make_generator_calls": n("sde.make_generator"),
        "sde.make_generator_s": tot("sde.make_generator"),
        "sde.normals_drawn": normals,
        "sde.noise_bytes": 8 * normals,
        "sde.draw_s": tot("sde.draw"),
        "sde.draw_use_ratio": counts["path_steps_x_noise"] / normals if normals else 0.0,
        "sde.simulate_batch_calls": n("sde.simulate_batch"),
        "sde.simulate_batch_s": sim_s,
        "sde.path_steps": steps,
        "sde.ns_per_path_step": 1e9 * sim_s / steps if steps else 0.0,
        "sde.step_self_s": self_of("sde.simulate_batch"),
        "dynamics.drift_batch_s": tot("dynamics.drift_batch"),
        "dynamics.push_batch_s": tot("dynamics.push_batch"),
        "dynamics.clamp_s": tot("dynamics.clamp"),
        "dynamics.outside_s": tot("dynamics.box_outside", "dynamics.smooth_outside"),
        "dynamics.step_calls": by_key[("dynamics.drift_batch", "sde.simulate_batch")][0],
        "dynamics.flow_exit_s": tot("dynamics.flow_exit_times_batch"),
        "dynamics.flow_exit_rows": counts["flow_exit_rows"],
        "dynamics.clamped_paths": counts["clamped_paths"],
        "gaussian.prefactor_calls": n("gaussian.survival_prefactor") + n("gaussian.prefactor_bounds"),
        "gaussian.prefactor_s": tot("gaussian.survival_prefactor", "gaussian.prefactor_bounds"),
        "estimator.call_s": tot(*ESTIMATOR_SPANS),
        "estimator.self_s": self_of(*ESTIMATOR_SPANS, *FANOUT_SPANS) - covered,
        # batches come from the fan-out helper when it exists, else one per engine call
        "estimator.batches": (counts["batches"] if n("estimator.map_batches")
                              else n("sde.simulate_batch")),
        "estimator.pool_starts": n("estimator.pool_start"),
        "estimator.split_levels": chk.counts["split_levels"],
        "estimator.capped_paths": chk.counts["capped_paths"],
        "estimator.fanout_cpu_util": sweep.cpu_s / (sweep.sweep_s * workers),
        "estimator.fanout_idle_s": idle,
        "harness.emit_s": tot("harness.emit_outputs"),
        "harness.emit_bytes": chk.emit_bytes,
        "harness.self_s": self_of("harness.run_estimate"),
    }


def breakdown_lines(sweep: Sweep, metrics: dict) -> list[str]:
    by_key, _counts, _spans = merge_records(sweep.records)
    lines = [f"  {'span':<34} {'parent':<34} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
    for (name, parent), (n, total, self_s) in sorted(by_key.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"  {name:<34} {parent:<34} {n:>9} {total:>9.4f} {self_s:>9.4f}")
    for name in ESTIMATOR_SPANS:
        calls = [v for (k, _), v in by_key.items() if k == name]
        if calls:
            lines.append(f"  estimator.call_s[{name.split('.')[1]}] = "
                         f"{sum(v[1] for v in calls):.4f} s over {sum(v[0] for v in calls)} calls")
    sim = metrics["sde.simulate_batch_s"]
    if sim > 0:
        inside = {k[0]: v[1] for k, v in by_key.items() if k[1] == "sde.simulate_batch"}
        parts = {"step_self": metrics["sde.step_self_s"]}
        parts.update((k.split(".", 1)[1], v) for k, v in inside.items())
        lines.append("  simulate_batch shares: " + ", ".join(
            f"{k} {100 * v / sim:.1f}%" for k, v in sorted(parts.items(), key=lambda kv: -kv[1])))
    return lines


# ---------------------------------------------------------------------------
# main


class SetupProbes:
    """Fresh-interpreter import plus parse_config of every config.

    The probes are spread over the measuring window rather than run
    back to back, so that a slow spell of the host hits only some of them.
    """

    def __init__(self, src: Path, cfg_files: list[Path], seconds: float):
        self.cmd = [sys.executable, "-c", SETUP_CODE, str(src), *map(str, cfg_files)]
        self.spacing = seconds / SETUP_RUNS
        self.times: list[float] = []
        self.problem: str | None = None

    def run(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            self.problem = f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-400:]}"

    def due(self, elapsed: float) -> bool:
        return (self.problem is None and len(self.times) < SETUP_RUNS
                and elapsed >= len(self.times) * self.spacing)

    def finish(self) -> None:
        while self.problem is None and len(self.times) < SETUP_RUNS:
            self.run()


def measure(exitlab, cfgs, emit_dirs, seconds: float, tracer, texts,
            rel_tols, probes: SetupProbes | None) -> list[tuple[Sweep, SweepCheck]]:
    """Sweeps until `seconds` of sweeping pass; with a tracer, untraced and
    traced sweeps alternate.  Set-up probes run between sweeps, off the clock.

    Each sweep is checked before the next one overwrites its outputs.
    """
    sweeps: list[tuple[Sweep, SweepCheck]] = []
    min_sweeps = 4 if tracer is not None else MIN_SWEEPS
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MEASURE_CAP_S or (elapsed >= seconds and len(sweeps) >= min_sweeps):
            break
        traced = tracer is not None and len(sweeps) % 2 == 1
        sweep = run_sweep(exitlab, cfgs, emit_dirs, tracer if traced else None, texts)
        sweeps.append((sweep, check_sweep(sweep, cfgs, rel_tols)))
        if probes is not None and probes.due(time.perf_counter() - start):
            t0 = time.perf_counter()
            probes.run()
            start += time.perf_counter() - t0
    if probes is not None:
        probes.finish()
    return sweeps


def count_problems(checks, traced_layers) -> list[str]:
    problems = []
    if len({tuple(sorted(c.counts.items())) for c in checks}) > 1:
        problems.append("seed-determined output counts differ between sweeps: "
                        + "; ".join(str(dict(c.counts)) for c in checks))
    for name in DETERMINISTIC:
        values = {m[name] for m in traced_layers}
        if len(values) > 1:
            problems.append(f"{name} differs between traced sweeps: {sorted(values)}")
    if traced_layers:
        for layer, key in (("sde.path_steps", "path_steps"),
                           ("dynamics.clamped_paths", "clamped_paths")):
            if traced_layers[0][layer] != checks[0].counts[key]:
                problems.append(f"traced {layer} {traced_layers[0][layer]} != "
                                f"untraced output count {checks[0].counts[key]}")
    return problems


def _finite(value) -> float | int:
    if isinstance(value, int):
        return value
    return float(value) if value is not None and math.isfinite(value) else 0.0


def record_digests(workload: str, checks: list[SweepCheck], n_configs: int) -> None:
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    if DIGESTS.is_file():
        data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    per_config = [[] for _ in range(n_configs)]
    for c in checks[0].cells:
        per_config[c.config].append(c.digest)
    data["workloads"][workload] = {"rows": per_config, "counts": dict(checks[0].counts)}
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests records the default seed {DEFAULT_SEED}")
    root = Path.cwd()
    try:
        exitlab = load_exitlab(root)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}"
    out_dir = root / ".perfbench_out"
    texts = workload.texts(args.seed)
    cfg_files = []
    for i, text in enumerate(texts):
        path = out_dir / "configs" / tag / f"config{i}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        cfg_files.append(path)
    cfgs = [exitlab.parse_config(t) for t in texts]
    emit_dirs = [out_dir / "emit" / tag / f"config{i}" for i in range(len(cfgs))]
    workers = max(c.workers for c in cfgs)
    stamp = machine_stamp(root, args.seed, cfgs, exitlab)
    print("stamp: " + json.dumps(stamp, sort_keys=True), flush=True)

    spool = out_dir / f"spool-{os.getpid()}"
    tracer = Tracer(spool) if args.trace else None
    probes = None if args.trace else SetupProbes(root / "src", cfg_files, args.seconds)
    try:
        measured = measure(exitlab, cfgs, emit_dirs, args.seconds, tracer, texts,
                           workload.rel_tol, probes)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    if tracer is not None and tracer.missing:
        print("trace hooks not found: " + ", ".join(tracer.missing), flush=True)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    sweeps = [s for s, _ in measured]
    checks = [c for _, c in measured]
    recorded = None if args.record_digests else load_recorded(workload.name, args.seed)
    reference = reference_digests(checks, recorded and recorded["rows"])
    attempted, failed, notes = grade(checks, reference)
    traced = [(s, c) for s, c in zip(sweeps, checks) if s.traced]
    layers = [layer_metrics(s, c, workers) for s, c in traced]
    problems = count_problems(checks, layers)
    if recorded and dict(checks[0].counts) != recorded["counts"]:
        problems.append(f"output counts {dict(checks[0].counts)} != recorded "
                        f"{recorded['counts']} at the default seed")

    untraced_s = [s.sweep_s for s in sweeps if not s.traced]
    if args.trace and not traced:
        problems.append("no traced sweep finished within the measuring cap")
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        units = PER_LAYER
    elif args.trace:
        # counts repeat exactly (checked above), so the low median is one of them
        metrics = {name: statistics.median_low(m[name] for m in layers)
                   if name in DETERMINISTIC else statistics.median(m[name] for m in layers)
                   for name in PER_LAYER if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            statistics.median(s.sweep_s for s, _ in traced) / statistics.median(untraced_s) - 1.0)
        units = PER_LAYER
    else:
        if probes.problem:
            problems.append(probes.problem)
        plain = [(s, c) for s, c in zip(sweeps, checks) if not s.traced]
        metrics = {
            "setup_s": statistics.median(probes.times),
            "sweep_s": statistics.median(untraced_s),
            "path_steps_per_s": statistics.median(
                c.counts["path_steps"] / s.sweep_s for s, c in plain),
            "time_to_1pct_s": statistics.median(c.time_to_1pct_s for _, c in plain),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = END_TO_END
    correct = failed == 0 and not problems

    if args.record_digests:
        if not correct:
            print("not recording digests: the run failed its checks", file=sys.stderr)
            return 1
        record_digests(workload.name, checks, len(cfgs))
        print(f"recorded {workload.name} digests in {DIGESTS}")

    print(f"workload {workload.name}: {len(sweeps)} sweeps "
          f"({sum(s.traced for s in sweeps)} traced), sweep_s "
          + " ".join(f"{s.sweep_s:.3f}{'t' if s.traced else ''}" for s in sweeps))
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    detail = {
        "stamp": stamp, "workload": workload.name, "seed": args.seed,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "problems": problems, "notes": notes,
        "sweeps": [{"traced": s.traced, "sweep_s": s.sweep_s, "cpu_s": s.cpu_s,
                    "time_to_1pct_s": c.time_to_1pct_s, "counts": c.counts}
                   for s, c in zip(sweeps, checks)],
        "metrics": metrics,
    }
    if traced:
        last_sweep, _ = traced[-1]
        print("traced breakdown (last traced sweep):")
        for line in breakdown_lines(last_sweep, layers[-1]):
            print(line)
        detail["layers_per_sweep"] = layers
        detail["spans_last_sweep"] = merge_records(last_sweep.records)[2]
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")
    for line in problems + notes[:20]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": _finite(v), "unit": units[name]}
                    for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
