"""Command line interface.

Subcommands: validate, predict, estimate, sweep (alias of estimate), flow,
diagnose.  Exit codes:

- 0: success, also when stdout is closed before everything is printed
  (``exitlab predict ... | head -1``); ``--out`` files are written before
  anything is printed, so they are complete.
- 1: the config cannot be read, parsed or validated.  ``parse_config``
  leaves out the flow of the travel-time bracket of
  ``domain.inner``/``domain.outer``; a bracket that cannot be computed
  (the flow does not leave the domains) or is inverted (t_minus > t_plus)
  is a config error of every command that computes it: ``validate``,
  ``predict``, ``estimate``/``sweep`` and ``flow``.
- 2: a runtime failure, including a worker process that died, or an
  unexpected exception (the finished cells of a sweep still go to
  ``--out``), or a command-line usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from .config import parse_config
from .errors import ExitlabError, ParseError, ValidationError
from .harness import (
    _travel_times,
    density_csv_text,
    emit_outputs,
    run_density_report,
    run_estimate,
    run_flow_report,
    run_predict,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitlab",
        description="Exit-time tail predictions and Monte Carlo verification "
                    "for small-noise diffusions near a repelling equilibrium.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "parse the config and report problems"),
        ("predict", "emit theory-only rows (exponent, prefactor, bracket)"),
        ("estimate", "run the configured Monte Carlo sweep"),
        ("sweep", "alias of estimate"),
        ("flow", "deterministic exit times and travel-time bounds"),
        ("diagnose", "fluctuation density against the finite-time law"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to key=value config")
        p.add_argument("--out", default=None, help="directory for output files")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
        p.add_argument("--workers", type=int, default=None,
                       help="override run.workers")
    return parser


def _print_validate(cfg) -> None:
    print(f"config ok: d={cfg.model.spectrum.d} "
          f"variant={cfg.model.variant} method={cfg.method} "
          f"epsilons={len(cfg.epsilons)} points={len(cfg.points)}")
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _print_rows(record, paths) -> None:
    for row in record.rows:
        bits = [f"eps={row.epsilon!r}", f"x={';'.join(repr(c) for c in row.x)}",
                f"beta={row.beta!r}", f"psi={row.psi!r}",
                f"phi=[{row.phi_minus!r}, {row.phi_plus!r}]"]
        if row.p_hat is not None:
            bits += [f"p_hat={row.p_hat!r}", f"stderr={row.stderr!r}",
                     f"rescaled={row.rescaled!r}"]
        print("  ".join(bits))
    for pi, fit in enumerate(record.slope_fits):
        if fit is None:
            print(f"point {pi}: slope fit degenerate (needs >= 3 positive estimates)")
        else:
            print(f"point {pi}: slope={fit.slope!r} +- {fit.slope_stderr!r} "
                  f"intercept={fit.intercept!r}")
    for warning in record.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for kind, path in sorted(paths.items()):
        print(f"wrote {kind}: {path}")


def _run(args, cfg):
    """Run the command and write its --out files; returns its printer.

    Nothing is printed before the files are written, so a closed stdout
    cannot lose a finished run.
    """
    if args.command == "validate":
        _travel_times(cfg)
        return partial(_print_validate, cfg)
    if args.command in ("predict", "estimate", "sweep"):
        record = (run_predict(cfg) if args.command == "predict"
                  else run_estimate(cfg))
        paths = emit_outputs(record, args.out) if args.out else {}
        return partial(_print_rows, record, paths)
    if args.command == "flow":
        text = json.dumps(run_flow_report(cfg), indent=2, sort_keys=True)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "flow.json").write_text(text + "\n", encoding="utf-8")
        return partial(print, text)
    diag = run_density_report(cfg)  # diagnose
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "density.csv").write_text(density_csv_text(diag),
                                         encoding="utf-8")
    return partial(print, f"sup_diff={diag.sup_diff!r} "
                          f"l1_diff={diag.l1_diff!r} mass={diag.mass!r}")


def _discard_stdout() -> None:
    """Send what stdout still buffers to /dev/null.

    The interpreter flushes stdout once more at exit; on a closed pipe that
    would fail again and turn the exit status into 120.  A stdout without a
    file descriptor has nothing the exit flush could send anywhere.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        if args.seed is not None or args.workers is not None:
            cfg = cfg.with_overrides(seed=args.seed, workers=args.workers)
        show = _run(args, cfg)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        what = "runtime" if isinstance(exc, ExitlabError) else "unexpected"
        print(f"{what} error: {exc}", file=sys.stderr)
        partial_record = getattr(exc, "partial_record", None)
        if partial_record is not None and args.out:
            paths = emit_outputs(partial_record, args.out)
            for kind, path in sorted(paths.items()):
                print(f"wrote partial {kind}: {path}", file=sys.stderr)
        return 2
    try:
        show()
        # a reader that went away shows up here, not in the exit flush
        sys.stdout.flush()
    except BrokenPipeError:
        # the run is complete and its --out files are written
        _discard_stdout()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
