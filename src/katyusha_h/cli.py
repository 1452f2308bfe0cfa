"""Command-line harness.

Subcommands: run, sweep, verify, select-alpha, solve-ref, parse-data.
Exit codes: 0 success / all claims pass, 1 verification failure, 2 config or
usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import verification
from .analysis import feasible_alpha_interval, predict_ifo, select_alpha
from .experiment import (
    ConfigError,
    _check_seeds,
    _parse_seq,
    build_problem,
    load_config,
    run_command,
    sweep_command,
)
from .problems import DataFormatError, check_reference, read_libsvm, serialize_libsvm, write_utf8


def _load_with_flags(args):
    """The config of ``--config`` with each run/sweep flag given written over
    the key it overrides: ``--seeds`` over ``[run] seeds``, ``--out`` over
    ``[output] directory``, ``--alphas`` and ``--bs`` over ``[sweep]``."""
    cfg = load_config(args.config)
    if args.seeds is not None:  # an empty value is given, and refused
        cfg.run.seeds = _parse_seq("--seeds", args.seeds, int)
        _check_seeds("--seeds", cfg.run.seeds)
    if args.out is not None:
        cfg.output.directory = args.out
    for key, kind in (("alphas", float), ("bs", int)):
        raw = getattr(args, key, None)  # run has no grid flags
        if raw is not None:
            setattr(cfg.sweep, key, _parse_seq(f"--{key}", raw, kind))
    return cfg


def _cmd_run(args) -> int:
    for path in run_command(_load_with_flags(args)):
        print(path)
    return 0


def _cmd_sweep(args) -> int:
    rows, path = sweep_command(_load_with_flags(args))
    print("alpha      b     reached   mean_ifo        mean_final_gap")
    for r in rows:
        print(
            f"{r.alpha:<10.4g} {r.b:<5d} {r.reached_target}/{r.seeds:<7d} "
            f"{r.mean_ifo:<15.6g} {r.mean_final_gap:.6g}"
        )
    print(f"summary written to {path}")
    return 0


def _parse_fault(raw: str | None) -> float | None:
    if raw is None:
        return None
    key, _, value = raw.partition("=")
    if key.strip() != "xi" or not value:
        raise ConfigError(f"--inject-fault expects xi=<value>, got {raw!r}")
    try:
        xi = float(value)
    except ValueError:
        raise ConfigError(f"--inject-fault expects a number, got {value!r}") from None
    if not np.isfinite(xi):
        raise ConfigError(f"--inject-fault expects a finite xi, got {value!r}")
    return xi


def _cmd_verify(args) -> int:
    grid = None
    if args.alpha_step is not None:
        try:
            grid = verification.default_alpha_grid(step=args.alpha_step)
        except ValueError as exc:
            raise ConfigError(f"--alpha-step: {exc}") from None
    batch_sizes = _parse_seq("--batch-sizes", args.batch_sizes, int)
    # the certificate scan's range rules, naming the flags, before any scan
    verification.check_scan(args.t_max, batch_sizes, lambda arg: "--" + arg.replace("_", "-"))
    xi = _parse_fault(args.inject_fault)
    # The growth scans run first, so a value they refuse costs no certificate
    # scan; their claims are still reported after its claims.
    growth = []
    if args.growth_alphas:
        for alpha in _parse_seq("--growth-alphas", args.growth_alphas, float):
            try:
                growth += verification.scan_denominator_growth(alpha, t_max=args.t_max).claims
            except ValueError as exc:
                where = f"--growth-alphas {alpha:g} with --t-max {args.t_max}"
                raise ConfigError(f"{where}: {exc}") from None
    report = verification.scan_schedule(
        alpha_grid=grid, t_max=args.t_max, batch_sizes=batch_sizes, xi_override=xi
    )
    report = verification.CertificateReport(claims=list(report.claims) + growth)
    text = report.to_text()
    print(text, end="")
    if args.report:
        write_utf8(args.report, text)
    return 0 if report.passed else 1


def _cmd_select_alpha(args) -> int:
    interval = feasible_alpha_interval(args.n, args.epsilon, args.c1, args.c2)
    alpha = select_alpha(args.n, args.epsilon, args.c1, args.c2)
    print(f"alpha = {alpha:.6g}")
    print(f"interval = [{interval.delta1:.6g}, {interval.delta2:.6g}]")
    print(
        f"feasible = [{interval.feasible_lo:.6g}, {interval.feasible_hi:.6g}]"
        f" (alpha_hat = {interval.alpha_hat:.6g})"
    )
    cost = predict_ifo(alpha, 1, args.n, args.epsilon)
    print(f"predicted cost (order estimate, b=1): total ~ {cost.total:.4g}")
    for name, value in cost.terms.items():
        print(f"  {name:<18} ~ {value:.4g}")
    return 0


def _cmd_solve_ref(args) -> int:
    cfg = load_config(args.config)
    if cfg.reference is None:
        raise ConfigError("config has no [reference] section")
    if args.tol is not None:  # the [reference] tol rule, naming the flag
        check_reference(args.tol, cfg.reference.max_iterations,
                        lambda name: "--tol" if name == "tol" else f"[reference] {name}")
        cfg.reference.tol = args.tol
    problem = build_problem(cfg)
    ref = problem.reference
    assert ref is not None
    lines = [
        f"f_star = {ref.f_star!r}",
        f"gap_tolerance = {ref.gap_tolerance!r}",
        f"method = {ref.method}",
        f"iterations = {ref.iterations}",
    ]
    print("\n".join(lines))
    if args.out:
        lines.append("x_star = " + " ".join(repr(float(v)) for v in ref.x_star))
        write_utf8(args.out, "\n".join(lines) + "\n")
        print(f"reference written to {args.out}")
    return 0


def _cmd_parse_data(args) -> int:
    path = Path(args.path)
    if not path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    try:
        dataset = read_libsvm(path)
    except DataFormatError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if dataset.n == 0:
        raise ConfigError(f"{path}: no data rows")
    print(f"rows = {dataset.n}")
    print(f"dimension = {dataset.d}")
    print(f"nonzeros = {dataset.nnz}")
    print(f"label range = [{dataset.labels.min():g}, {dataset.labels.max():g}]")
    if args.out:
        write_utf8(args.out, serialize_libsvm(dataset))
        print(f"canonical form written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="katyusha-h",
        description="Single-loop accelerated variance reduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the configured solver, one trace per seed")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--seeds", default=None, help="override config seeds, e.g. 0,1,2")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run an (alpha, b) grid and summarize costs")
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", default=None, help="e.g. 0,0.5,1")
    p.add_argument("--bs", default=None, help="e.g. 1,10")
    p.add_argument("--out", default=None)
    p.add_argument("--seeds", default=None, help="override config seeds, e.g. 0,1,2")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="certify the schedule inequalities by scan")
    p.add_argument("--t-max", type=int, default=100_000)
    p.add_argument("--alpha-step", type=float, default=None)
    p.add_argument("--batch-sizes", default="1,2,10")
    p.add_argument(
        "--growth-alphas",
        default="0.5,1",
        help="exponents for the denominator growth scan ('' to skip)",
    )
    p.add_argument(
        "--inject-fault",
        default=None,
        metavar="xi=VALUE",
        help="override xi to prove the scanner can fail",
    )
    p.add_argument("--report", default=None, help="also write the report to a file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("select-alpha", help="accuracy-driven growth exponent")
    p.add_argument("n", type=int)
    p.add_argument("epsilon", type=float)
    p.add_argument("--c1", type=float, default=2.0)
    p.add_argument("--c2", type=float, default=2.0)
    p.set_defaults(func=_cmd_select_alpha)

    p = sub.add_parser("solve-ref", help="solve the configured problem to high accuracy")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve_ref)

    p = sub.add_parser("parse-data", help="validate a dataset file, optionally canonicalize")
    p.add_argument("path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_parse_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # bad configs, malformed data, domain errors and problems too large
        # to allocate all exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
