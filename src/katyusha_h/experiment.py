"""Experiment configs, trace files, and run orchestration for the CLI.

Config files are flat ``key = value`` sections (no includes) so experiment
definitions stay diffable.  Trace files are comma-separated with a ``#``
header block carrying the problem, solver, and reference provenance; gap
columns store F - F* so downstream checks are scale-free.  Writing is fully
deterministic: rerunning the same config reproduces files byte for byte.
"""

from __future__ import annotations

import configparser
import functools
import math
import os
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import optimizers
from .estimator import check_seed
from .optimizers import RunConfig, TraceRecord
from .problems import (
    CURVATURE,
    DataFormatError,
    FiniteSumProblem,
    check_reference,
    read_libsvm,
    read_utf8,
    solve_reference,
    synthesize,
    write_utf8,
)
from .proximal import Regularizer
from .schedule import compute_constants, step_size

TRACE_COLUMNS = ("t", "F_y_gap", "F_w_gap", "p_t", "ckpt_updated", "ifo_total",
                 "ifo_minibatch", "ifo_checkpoint", "lyapunov")
# Bumped whenever an unchanged config may give different trace bytes.
TRACE_FORMAT = "7"
# readable trace_format -> its columns; formats 1-5 wrote no IFO split
_FORMAT_COLUMNS = {
    **dict.fromkeys("12345", ["t", "F_y_gap", "F_w_gap", "p_t", "ckpt_updated", "ifo_total",
                              "lyapunov"]),
    **dict.fromkeys(("6", TRACE_FORMAT), list(TRACE_COLUMNS)),
}
_INT_COLUMNS = {"t", "ckpt_updated", "ifo_total", "ifo_minibatch", "ifo_checkpoint"}
# [solver] method -> the solver's name on the optimizers module
SOLVERS = {"katyusha_h": "run", "fista": "fista_run"}
# [problem] keys only synthesis reads, each named as synthesize's parameter
SYNTHESIS_KEYS = ("n", "d", "seed", "condition", "noise", "density", "consistent")
# RunConfig field -> the (section, key) it is read from; seed comes per run
# from [run] seeds, and x0 from no key.
RUN_KEYS = {
    "alpha": ("solver", "alpha"), "batch_size": ("solver", "b"),
    "cache_checkpoint_grads": ("solver", "cache_checkpoint_grads"),
    "iterations": ("run", "iterations"), "epsilon": ("run", "epsilon"),
    "eval_every": ("run", "eval_every"), "max_iterations": ("run", "max_iterations"),
    "record_every": ("output", "trace_stride"), "lyapunov": ("output", "lyapunov"),
}


class ConfigError(ValueError):
    """Bad experiment configuration; maps to CLI exit code 2."""


@dataclass
class ProblemSpec:
    family: str = "least_squares"
    n: int = 100
    d: int = 20
    seed: int = 0
    condition: float = 1.0
    noise: float = 0.1
    density: float = 1.0
    consistent: bool = False
    data: str | None = None  # libsvm-format file; overrides synthesis
    reg: str = "zero"  # zero, l1, squared_l2 or elastic_net: which weights may be set
    lam1: float = 0.0
    lam2: float = 0.0


@dataclass
class SolverSpec:
    method: str = "katyusha_h"  # a key of SOLVERS
    alpha: float = RunConfig.alpha
    b: int = RunConfig.batch_size
    cache_checkpoint_grads: bool = RunConfig.cache_checkpoint_grads


@dataclass
class RunSpec:
    iterations: int | None = RunConfig.iterations
    epsilon: float | None = RunConfig.epsilon
    seeds: tuple[int, ...] = (0,)
    eval_every: int | None = RunConfig.eval_every
    max_iterations: int = RunConfig.max_iterations


@dataclass
class OutputSpec:
    directory: str = "traces"
    trace_stride: int = RunConfig.record_every
    lyapunov: bool = RunConfig.lyapunov


@dataclass
class ReferenceSpec:
    """Its fields are named as solve_reference's and check_reference's parameters."""

    tol: float = 1e-12
    max_iterations: int = 200_000


@dataclass
class SweepSpec:
    alphas: tuple[float, ...] | None = None
    bs: tuple[int, ...] | None = None


@dataclass
class ExperimentConfig:
    """One field per config section; a section's keys are its spec's fields."""

    problem: ProblemSpec = field(default_factory=ProblemSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    run: RunSpec = field(default_factory=RunSpec)
    output: OutputSpec = field(default_factory=OutputSpec)
    reference: ReferenceSpec | None = None  # None unless the section is present
    sweep: SweepSpec = field(default_factory=SweepSpec)


@functools.cache
def _kinds(spec_type) -> dict[str, type]:
    """Each field of a dataclass and the type its config value parses as:
    X for a field typed X or ``X | None``; a ``tuple[X, ...]`` parses as a
    sequence of X."""
    kinds = {}
    for name, hint in typing.get_type_hints(spec_type).items():
        args = typing.get_args(hint)
        if type(None) in args:
            (hint,) = (a for a in args if a is not type(None))
        kinds[name] = hint
    return kinds


_SECTIONS = _kinds(ExperimentConfig)  # section name -> spec type


def _coerce(where: str, raw: str, kind):
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return kind(raw)
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"{where} = {raw!r}: expected {kind.__name__}") from None


def _apply(spec, section: str, items: dict[str, str]) -> None:
    kinds = _kinds(type(spec))
    for key, raw in items.items():
        if key not in kinds:
            raise ConfigError(f"[{section}] unknown key {key!r}")
        where, kind = f"[{section}] {key}", kinds[key]
        if typing.get_origin(kind) is tuple:
            setattr(spec, key, _parse_seq(where, raw, typing.get_args(kind)[0]))
        else:
            setattr(spec, key, _coerce(where, raw, kind))


def _parse_seq(where: str, raw: str, kind) -> tuple:
    """Comma- or space-separated distinct values of one kind; ``where``
    names the config key or command-line flag in errors."""
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{where} must not be empty")
    values = tuple(_coerce(where, p, kind) for p in parts)
    seen = set()
    for part, value in zip(parts, values):
        if value in seen:
            raise ConfigError(f"{where} = {raw!r}: {part!r} repeats a value")
        seen.add(value)
    return values


def _check_seeds(where: str, seeds) -> None:
    """Refuse any seed that is no Philox key; ``where`` names the config key
    or command-line flag."""
    for seed in seeds:
        try:
            check_seed(seed)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a flat key = value experiment config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(read_utf8(path), source=str(path))
    except DataFormatError as exc:  # a byte that is not UTF-8
        raise ConfigError(f"{path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        if getattr(cfg, section) is None:  # an optional section is on when present
            setattr(cfg, section, _SECTIONS[section]())
        _apply(getattr(cfg, section), section, dict(parser.items(section)))
    # a path's UTF-8 bytes name its file, whatever the filesystem encoding
    if cfg.problem.data is not None:
        cfg.problem.data = os.fsdecode(cfg.problem.data.encode("utf-8"))
    cfg.output.directory = os.fsdecode(cfg.output.directory.encode("utf-8"))
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Refuse, by a ConfigError naming the key, a config no run can carry out
    or whose run would leave a key unread.  The run rules are those of
    ``optimizers.check_run`` on the RunConfig ``run_single`` builds, the
    reference rules those of ``problems.check_reference``."""
    if cfg.problem.family not in CURVATURE:
        raise ConfigError(f"unknown problem family {cfg.problem.family!r}")
    _regularizer(cfg.problem)
    if cfg.solver.method not in SOLVERS:
        raise ConfigError(f"unknown solver method {cfg.solver.method!r} "
                          f"(methods: {', '.join(sorted(SOLVERS))})")
    _check_cell(cfg.solver)
    _check_seeds("[problem] seed", (cfg.problem.seed,))
    _check_seeds("[run] seeds", cfg.run.seeds)
    # A key this run does not read is an error: a baseline reads no [solver]
    # key but method, nor [output] lyapunov, a data file no synthesis key,
    # and an iteration budget neither the epsilon test's cadence nor its cap.
    # The run rules come between, so a baseline's lyapunov is refused as
    # unread, not as lacking a reference, and an out-of-range cap by its range.
    unread = []
    if cfg.solver.method != "katyusha_h":
        why = f"applies only to katyusha_h, not {cfg.solver.method}"
        unread += [("solver", f.name, why) for f in fields(SolverSpec) if f.name != "method"]
        unread.append(("output", "lyapunov", why))
    if cfg.problem.data is not None:
        why = "is not read when [problem] data is set"
        unread += [("problem", name, why) for name in SYNTHESIS_KEYS]
    _refuse_unread(cfg, unread)
    if cfg.problem.data is None:
        _check_shape(cfg.problem)
    try:
        optimizers.check_run(_run_config(cfg, cfg.run.seeds[0]), cfg.reference is not None,
                             lambda field_name: "[{}] {}".format(*RUN_KEYS[field_name]))
        if cfg.reference is not None:
            check_reference(**vars(cfg.reference), name="[reference] {}".format)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.run.iterations is not None:
        why = "is not read when [run] iterations is set"
        _refuse_unread(cfg, [("run", "eval_every", why), ("run", "max_iterations", why)])
    if cfg.problem.data is not None and not Path(cfg.problem.data).exists():
        raise ConfigError(f"dataset file not found: {cfg.problem.data}")


def _refuse_unread(cfg: ExperimentConfig, unread) -> None:
    """Refuse the first ``(section, key, why)`` set away from its default."""
    for section, name, why in unread:
        spec = getattr(cfg, section)
        if getattr(spec, name) != getattr(type(spec), name):
            raise ConfigError(f"[{section}] {name} {why}")


# Most float64 values one numpy array can hold: its byte size must fit in intp.
_MAX_VALUES = np.iinfo(np.intp).max // 8


def _check_shape(spec: ProblemSpec) -> None:
    """Refuse a synthetic n or d below 1, or an n x d array too large for
    numpy, naming the larger of the two keys; numpy's own errors name none."""
    for key in ("n", "d"):
        if getattr(spec, key) < 1:
            raise ConfigError(f"[problem] {key} must be at least 1, got {getattr(spec, key)}")
    if spec.n * spec.d > _MAX_VALUES:
        key = "n" if spec.n >= spec.d else "d"
        raise ConfigError(f"[problem] {key}: an n x d float64 array of more than "
                          f"{_MAX_VALUES} values cannot be allocated")


def _check_cell(solver: SolverSpec, where: str = "[solver]") -> None:
    """Refuse ``solver``'s alpha or b, whose schedule constants cannot be
    derived, by a ConfigError naming ``{where} alpha`` or ``{where} b``."""
    for key, batch in (("alpha", 1), ("b", solver.b)):  # alpha alone first, then with b
        try:
            compute_constants(solver.alpha, batch)
        except ValueError as exc:
            raise ConfigError(f"{where} {key}: {exc}") from None


def _regularizer(spec: ProblemSpec) -> Regularizer:
    """The regularizer of ``[problem] reg``, ``lam1`` and ``lam2``.  The label
    says which weights may be nonzero; only the weights go on."""
    kind, lam1, lam2 = spec.reg, spec.lam1, spec.lam2
    try:
        if kind not in ("zero", "l1", "squared_l2", "elastic_net"):
            raise ValueError(f"unknown regularizer kind {kind!r}")
        reg = Regularizer(lam1, lam2)
        if kind == "zero" and (lam1 != 0.0 or lam2 != 0.0):
            raise ValueError("zero regularizer takes no weights")
        if kind == "l1" and lam2 != 0.0:
            raise ValueError("l1 regularizer has no squared-l2 weight")
        if kind == "squared_l2" and lam1 != 0.0:
            raise ValueError("squared-l2 regularizer has no l1 weight")
    except ValueError as exc:
        raise ConfigError(f"[problem] {exc}") from None
    return reg


def build_problem(cfg: ExperimentConfig) -> FiniteSumProblem:
    """Materialize the problem (file or synthetic) and attach any reference."""
    spec = cfg.problem
    reg = _regularizer(spec)
    if spec.data is not None:
        try:
            dataset = read_libsvm(spec.data)
            problem = FiniteSumProblem(dataset.to_dense(), dataset.labels, spec.family, reg)
        except ValueError as exc:
            raise ConfigError(f"{spec.data}: {exc}") from exc
    else:
        _, problem = synthesize(family=spec.family, reg=reg,
                                **{key: getattr(spec, key) for key in SYNTHESIS_KEYS})
    if cfg.reference is not None:
        problem.reference = solve_reference(problem, **vars(cfg.reference))
    return problem


def _run_config(cfg: ExperimentConfig, seed: int) -> RunConfig:
    """The RunConfig of one seed's run, each field read from its RUN_KEYS key."""
    return RunConfig(seed=seed, **{field_name: getattr(getattr(cfg, section), key)
                                   for field_name, (section, key) in RUN_KEYS.items()})


def run_single(problem: FiniteSumProblem, cfg: ExperimentConfig, seed: int) -> list[TraceRecord]:
    """One solver run for one seed."""
    # Looked up at each call, so a wrapper installed on the module attribute
    # sees the run.
    return getattr(optimizers, SOLVERS[cfg.solver.method])(problem, _run_config(cfg, seed))


def _fmt(x: float) -> str:
    if math.isnan(x):
        return ""
    return repr(float(x))


def write_trace(
    path: str | Path,
    records: list[TraceRecord],
    header: dict[str, str],
    f_star: float,
) -> None:
    """Write one trace file: '# key = value' header block, then CSV rows."""
    lines = [f"# {key} = {value}" for key, value in header.items()]
    lines.append(",".join(TRACE_COLUMNS))
    for rec in records:
        lines.append(
            ",".join(
                (
                    str(rec.t),
                    _fmt(rec.f_y - f_star),
                    _fmt(rec.f_w - f_star),
                    _fmt(rec.p),
                    str(int(rec.checkpoint_updated)),
                    str(rec.ifo_total),
                    str(rec.ifo_minibatch),
                    str(rec.ifo_checkpoint),
                    _fmt(rec.lyapunov),
                )
            )
        )
    write_utf8(path, "\n".join(lines) + "\n")


def read_trace(path: str | Path) -> tuple[dict[str, str], list[dict[str, float]]]:
    """Parse a trace file back into its header and rows (round-trip safe).

    Reads every format from "1" to ``TRACE_FORMAT``, each with its own
    columns, and refuses any other.
    """
    header: dict[str, str] = {}
    rows: list[dict[str, float]] = []
    columns: list[str] | None = None
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
            continue
        if columns is None:
            version = header.get("trace_format")
            if version not in _FORMAT_COLUMNS:
                raise ValueError(f"{path}: unknown trace_format {version!r}")
            columns = line.split(",")
            if columns != _FORMAT_COLUMNS[version]:
                raise ValueError(f"{path}: unexpected trace columns {columns}")
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"{path}:{line_no}: malformed row")
        row: dict[str, float] = {}
        for col, part in zip(columns, parts):
            if part == "":
                row[col] = math.nan
            elif col in _INT_COLUMNS:
                row[col] = int(part)
            else:
                row[col] = float(part)
        rows.append(row)
    if columns is None:
        raise ValueError(f"{path}: empty trace file")
    return header, rows


def _trace_header(cfg: ExperimentConfig, problem: FiniteSumProblem, seed: int) -> dict[str, str]:
    solver = cfg.solver
    head = {
        "trace_format": TRACE_FORMAT,
        "problem": (
            f"family={cfg.problem.family} reg={cfg.problem.reg} "
            f"n={problem.n} d={problem.d}"
        ),
        "source": cfg.problem.data or f"synthetic seed={cfg.problem.seed}",
        "method": solver.method,
    }
    if solver.method == "katyusha_h":
        # every run steps at the largest allowable size, 1/((c+1)*L)
        params = compute_constants(solver.alpha, solver.b)
        head["alpha"] = repr(solver.alpha)
        head["b"] = str(solver.b)
        head["eta"] = repr(step_size(problem.L, params))
        head["c"] = repr(params.c)
        head["xi"] = repr(params.xi)
        head["L"] = repr(problem.L)
        head["cache_checkpoint_grads"] = str(solver.cache_checkpoint_grads).lower()
    head["seed"] = str(seed)
    if problem.reference is not None:
        head["f_star"] = repr(float(problem.reference.f_star))
        head["f_star_tolerance"] = repr(float(problem.reference.gap_tolerance))
        head["reference"] = problem.reference.method
        head["reference_iterations"] = str(problem.reference.iterations)
    else:
        head["f_star"] = repr(0.0)
        head["reference"] = "none (gaps are raw objective values)"
    return head


def _set_up(cfg: ExperimentConfig, cells, where: str) -> tuple[FiniteSumProblem, Path, float]:
    """The problem, output directory and F* (0 without a reference) of a
    command that runs ``cells``.  A cell's alpha and b are refused before the
    problem is built, its b > n after, naming ``{where} <key>``, and the
    directory is made last, so a refused cell makes none."""
    for cell in cells:
        _check_cell(cell, where)
    problem = build_problem(cfg)
    for cell in cells:
        if cell.b > problem.n:
            raise ConfigError(f"{where} b: need 1 <= b <= n, got b={cell.b}, n={problem.n}")
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return problem, out, problem.reference.f_star if problem.reference is not None else 0.0


def run_command(cfg: ExperimentConfig) -> list[Path]:
    """Execute the configured runs, one trace file per ``[run] seeds`` entry,
    written into ``[output] directory``.  FISTA's one run serves every seed,
    whose files differ only in their seed line."""
    problem, out, f_star = _set_up(cfg, [cfg.solver], "[solver]")
    paths, records = [], None
    for seed in cfg.run.seeds:
        if records is None or cfg.solver.method != "fista":  # FISTA reads no seed
            records = run_single(problem, cfg, seed)
        path = out / f"trace_{cfg.solver.method}_seed{seed}.csv"
        write_trace(path, records, _trace_header(cfg, problem, seed), f_star)
        paths.append(path)
    return paths


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell: seed-aggregated cost and final-gap statistics."""

    alpha: float
    b: int
    seeds: int
    reached_target: int
    mean_ifo: float
    sd_ifo: float
    mean_iterations: float
    mean_final_gap: float


def sweep_command(cfg: ExperimentConfig) -> tuple[list[SweepRow], Path]:
    """Run the grid of ``[sweep] alphas`` by ``[sweep] bs`` and aggregate
    per-cell cost over ``[run] seeds`` into ``sweep_summary.csv`` under
    ``[output] directory``.

    With an epsilon target the aggregate is IFO-to-target; with a fixed
    iteration budget it is total IFO spent.  Cells where some seed misses the
    target report how many seeds reached it.  Rows follow the grid order.
    """
    if cfg.solver.method != "katyusha_h":
        raise ConfigError("sweep supports only the katyusha_h solver")
    if not cfg.sweep.alphas or not cfg.sweep.bs:
        raise ConfigError("sweep needs alpha and b grids (flags or [sweep] section)")
    cells = [replace(cfg.solver, alpha=alpha, b=b)
             for alpha in cfg.sweep.alphas for b in cfg.sweep.bs]
    problem, out, f_star = _set_up(cfg, cells, "sweep")

    def one_cell(solver: SolverSpec) -> SweepRow:
        cell = replace(cfg, solver=solver)
        ifos, iters, gaps, reached = [], [], [], 0
        for seed in cfg.run.seeds:
            final = run_single(problem, cell, seed)[-1]
            gap = final.f_w - f_star
            gaps.append(gap)
            iters.append(final.t)
            ifos.append(final.ifo_total)
            if cfg.run.epsilon is None or gap <= cfg.run.epsilon:
                reached += 1
        return SweepRow(
            alpha=solver.alpha,
            b=solver.b,
            seeds=len(cfg.run.seeds),
            reached_target=reached,
            mean_ifo=float(np.mean(ifos)),
            sd_ifo=float(np.std(ifos, ddof=1)) if len(ifos) > 1 else 0.0,
            mean_iterations=float(np.mean(iters)),
            mean_final_gap=float(np.mean(gaps)),
        )

    rows = [one_cell(cell) for cell in cells]
    path = out / "sweep_summary.csv"
    names = [f.name for f in fields(SweepRow)]
    lines = [",".join(names)]
    lines += [",".join(repr(getattr(r, name)) for name in names) for r in rows]
    write_utf8(path, "\n".join(lines) + "\n")
    return rows, path
