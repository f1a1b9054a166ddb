"""In-memory span tracer that wraps exitlab's layer functions from outside.

``Tracer.install()`` replaces the module and class attributes that the
package's own code looks up at call time (``exitlab.estimator.simulate_batch``,
``ConjugateFieldModel.drift_batch``, ...) with timing wrappers, and
``uninstall()`` puts the originals back.  The package itself is not edited.

Every call is folded into an aggregate keyed by (span name, parent span
name): call count, inclusive time and self time (inclusive minus the time of
wrapped calls made inside it).  Calls that happen a few times per batch are
also kept as full span records (name, parent, pid, start, end).  Per-path
generator draws go through a duck-typed proxy that counts normals.

Pool workers are forked after ``install()``, so they inherit the wrappers and
record their own spans.  A worker appends its records to a spool file once
per batch (after each ``simulate_batch``) and forgets them; the parent reads
the spool back after the sweep.  ``time.perf_counter`` is CLOCK_MONOTONIC on
Linux, so worker and parent timestamps share one clock.
"""

from __future__ import annotations

import json
import multiprocessing.pool
import os
from pathlib import Path
from time import perf_counter

ROOT = "<root>"
WORKER_ROOT = "<worker>"


class _CountingGenerator:
    """Stands in for a numpy Generator; times and counts standard_normal."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        t0 = perf_counter()
        out = self._gen.standard_normal(*args, **kwargs)
        dur = perf_counter() - t0
        tr = self._tracer
        frame = tr.stack[-1]
        frame[0] += dur
        tr._add(("sde.draw", frame[1]), dur, dur)
        tr.counts["normals_drawn"] = tr.counts.get("normals_drawn", 0) + out.size
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset()
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        self.pid = os.getpid()
        root = ROOT if self.pid == self.owner_pid else WORKER_ROOT
        self.stack: list[list] = [[0.0, root]]  # frames: [child time, name]
        self.agg: dict[tuple[str, str], list] = {}  # -> [count, total, self]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name, parent, pid, start, end, info)
        self._gen_run: list | None = None  # [start, end] of back-to-back make_generator calls

    # -- recording -------------------------------------------------------
    def _add(self, key, total, self_time):
        a = self.agg.get(key)
        if a is None:
            a = self.agg[key] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += total
        a[2] += self_time

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def _close_gen_run(self, parent: str) -> None:
        run = self._gen_run
        if run is not None:
            self.spans.append(("sde.make_generator.run", parent, self.pid, run[0], run[1], None))
            self._gen_run = None

    def wrap(self, name: str, fn, coarse: bool = False, on_result=None, info=None):
        """Timing wrapper for fn.

        coarse: also keep a full span record, whose last field is
        info(args, kwargs) when given.  on_result(args, kwargs, result)
        sees each return value.
        """
        tr = self

        def traced(*args, **kwargs):
            parent = tr.stack[-1]
            if coarse:
                tr._close_gen_run(parent[1])
            frame = [0.0, name]
            tr.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                dur = t1 - t0
                parent[0] += dur
                tr._add((name, parent[1]), dur, dur - frame[0])
                if coarse:
                    extra = info(args, kwargs) if info is not None else None
                    tr.spans.append((name, parent[1], tr.pid, t0, t1, extra))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _wrap_make_generator(self, fn):
        tr = self

        def traced_make_generator(*args, **kwargs):
            t0 = perf_counter()
            gen = fn(*args, **kwargs)
            t1 = perf_counter()
            frame = tr.stack[-1]
            frame[0] += t1 - t0
            tr._add(("sde.make_generator", frame[1]), t1 - t0, t1 - t0)
            if tr._gen_run is None:
                tr._gen_run = [t0, t1]
            else:
                tr._gen_run[1] = t1
            return _CountingGenerator(gen, tr)

        return traced_make_generator

    # -- worker spool ----------------------------------------------------
    def _records(self) -> dict:
        self._close_gen_run(self.stack[-1][1])
        return {
            "pid": self.pid,
            "agg": [[k[0], k[1], *v] for k, v in self.agg.items()],
            "counts": self.counts,
            "spans": self.spans,
        }

    def _flush_worker(self) -> None:
        rec = self._records()
        with open(self.spool_dir / f"{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        self.agg = {}
        self.counts = {}
        self.spans = []

    def collect(self) -> list[dict]:
        """This process's records plus every worker's spooled ones; clears both."""
        out = [self._records()]
        self.agg = {}
        self.counts = {}
        self.spans = []
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()
        return out

    # -- install ---------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        from exitlab import dynamics, estimator, harness, sde

        def on_simulate(args, kwargs, res):
            noise = kwargs.get("noise", args[1] if len(args) > 1 else None)
            steps = int(res["steps_used"].sum())
            self.count("path_steps", steps)
            self.count("path_steps_x_noise", steps * int(noise.n))
            self.count("clamped_paths", int(res["clamped"].sum()))
            if self.pid != self.owner_pid:
                self._flush_worker()

        def on_flow(args, kwargs, res):
            self.count("flow_exit_rows", len(res))

        def on_map(args, kwargs, res):
            self.count("batches", kwargs.get("n_batches", args[1] if len(args) > 1 else 0))

        def pool_size(args, kwargs):
            return kwargs.get("processes", args[1] if len(args) > 1 else None) or os.cpu_count()

        def sim(f):
            return self.wrap("sde.simulate_batch", f, True, on_simulate)

        def flow(f):
            return self.wrap("dynamics.flow_exit_times_batch", f, True, on_flow)

        for mod in (estimator, sde):
            self._patch(mod, "make_generator", self._wrap_make_generator)
            self._patch(mod, "simulate_batch", sim)
        for mod in (estimator, dynamics):
            self._patch(mod, "flow_exit_times_batch", flow)
        for attr in ("drift_batch", "push_batch", "pull_batch", "clamp"):
            self._patch(dynamics.ConjugateFieldModel, attr,
                        lambda f, a=attr: self.wrap(f"dynamics.{a}", f))
        self._patch(dynamics.BoxDomain, "outside",
                    lambda f: self.wrap("dynamics.box_outside", f))
        self._patch(dynamics.SmoothDomain, "outside",
                    lambda f: self.wrap("dynamics.smooth_outside", f))
        self._patch(harness, "travel_time_bounds",
                    lambda f: self.wrap("dynamics.travel_time_bounds", f, True))
        for attr in ("survival_prefactor", "prefactor_bounds"):
            self._patch(harness, attr,
                        lambda f, a=attr: self.wrap(f"gaussian.{a}", f, True))
        for method in ("direct", "splitting", "adjusted"):
            self._patch(harness, f"{method}_tail_estimate",
                        lambda f, m=method: self.wrap(f"estimator.{m}", f, True))
        self._patch(estimator, "_map_batches",
                    lambda f: self.wrap("estimator.map_batches", f, True, on_map))
        self._patch(multiprocessing.pool.Pool, "__init__",
                    lambda f: self.wrap("estimator.pool_start", f, True, info=pool_size))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
