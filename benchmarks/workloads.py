"""The four benchmark workloads: inputs, set-up, one timed round, checks.

Each workload mirrors one kind of real traffic (see NOTES.md for why each
exists).  A round is the workload's unit of timed work; every round of a run
repeats the same work on the same inputs, so per-round counts must repeat
exactly.  The benchmark calls the package only through module attributes
(``optimizers.run``, ``problems.synthesize``, ...) so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from katyusha_h import analysis, experiment, optimizers, problems, proximal, verification

import calibration


@dataclass
class Op:
    """Outcome of one operation: a solver run or a certificate scan.

    ``counts`` are the exact figures that must repeat between rounds and
    between the untraced and traced runs.  ``iterations`` are solver
    iterations, or schedule points checked by a scan; ``work`` is the IFO
    total of a run, or the schedule points of a scan.
    """

    label: str
    ok: bool
    detail: str = ""
    counts: tuple = ()
    iterations: int = 0
    work: int = 0
    ifo_minibatch: int = 0
    ifo_checkpoint: int = 0


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception becomes its failure detail."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # one failed operation must not end the run
        return None, f"{type(exc).__name__}: {exc}"


def _ledger_problems(rec, n: int, per_estimate: int, t_expected: int | None) -> list[str]:
    """Ledger split checks shared by the solver workloads."""
    bad = []
    if rec.ifo_minibatch != per_estimate * rec.t:
        bad.append(f"ifo_minibatch {rec.ifo_minibatch} != {per_estimate}*t ({rec.t})")
    if rec.ifo_checkpoint % n or rec.ifo_checkpoint < n:
        bad.append(f"ifo_checkpoint {rec.ifo_checkpoint} is not a positive multiple of n")
    if t_expected is not None and rec.t != t_expected:
        bad.append(f"stopped at t={rec.t}, expected {t_expected}")
    return bad


def _run_op(label: str, records, error, bad: list[str]) -> Op:
    if error is not None:
        return Op(label, False, error)
    last = records[-1]
    return Op(label, not bad, "; ".join(bad),
              counts=(last.t, last.ifo_minibatch, last.ifo_checkpoint),
              iterations=last.t, work=last.ifo_total,
              ifo_minibatch=last.ifo_minibatch, ifo_checkpoint=last.ifo_checkpoint)


class Workload:
    name = ""
    gauge = calibration.SOLVER

    def prepare(self, seed: int, toy: bool, workdir: Path) -> dict:
        """Make the inputs from the seed (untimed); returns what set-up needs."""
        raise NotImplementedError

    def setup(self, inputs: dict) -> dict:
        """Timed as setup_s: everything before the first solver step."""
        raise NotImplementedError

    def round(self, ctx: dict, tick):
        """Timed as norm_wall_s: one round of the workload's work.

        ``tick()`` is called after each operation so that the machine's
        speed can be gauged between operations.
        """
        raise NotImplementedError

    def check(self, ctx: dict, raw) -> list[Op]:
        """Untimed output checks for one round."""
        raise NotImplementedError

    def report(self, raw) -> dict:
        """Figures from the last round that are reported but not gated."""
        return {}

    def provenance(self, ctx: dict) -> dict:
        problem = ctx["problem"]
        cached = ctx.get("cache", False)
        return {
            "n": problem.n,
            "d": problem.d,
            "solver_seeds": list(ctx["seeds"]),
            "A_bytes_computed": problem.A.nbytes,
            "checkpoint_cache_bytes_computed": problem.A.nbytes if cached else 0,
        }


class SeedsLyapunov(Workload):
    """Criterion 05's shape: many short fixed-length runs on a tiny problem."""

    name = "seeds_lyapunov"

    def prepare(self, seed, toy, workdir):
        size = dict(n=30, d=5, T=20, alphas=(0.0, 1.0), bs=(1,)) if toy else \
            dict(n=100, d=20, T=1000, alphas=(0.0, 0.5, 1.0), bs=(1, 10))
        # 30 seeds per cell: check_lyapunov_bound refuses fewer.  Seed 0 gives
        # criterion 05's first 30 seeds.
        return dict(size, seeds=tuple(range(30 * seed, 30 * seed + 30)))

    def setup(self, inputs):
        _, problem = problems.synthesize(
            inputs["n"], inputs["d"], "least_squares", seed=7,
            reg=proximal.Regularizer.l1(0.02))
        problems.with_reference(problem, tol=1e-12)
        return dict(inputs, problem=problem)

    def round(self, ctx, tick):
        problem, T = ctx["problem"], ctx["T"]
        cells = []
        for alpha in ctx["alphas"]:
            for b in ctx["bs"]:
                runs = []
                for seed in ctx["seeds"]:
                    runs.append(_attempt(optimizers.run, problem, optimizers.RunConfig(
                        alpha=alpha, batch_size=b, iterations=T, seed=seed,
                        record_every=T, lyapunov=True)))
                    tick()
                traces = [records for records, error in runs if error is None]
                report = _attempt(analysis.check_lyapunov_bound, traces)
                cells.append((alpha, b, runs, report))
        return cells

    def check(self, ctx, raw):
        n, T = ctx["problem"].n, ctx["T"]
        ops = []
        for alpha, b, runs, (report, report_error) in raw:
            if report_error is not None:
                cell_bad = [f"bound check raised {report_error}"]
            elif not report.passed:
                cell_bad = [f"anytime bound failed: {report}"]
            else:
                cell_bad = []
            for seed, (records, error) in zip(ctx["seeds"], runs):
                bad = list(cell_bad)
                if error is None:
                    last = records[-1]
                    if not all(map(math.isfinite, (last.f_y, last.f_w, last.lyapunov))):
                        bad.append("non-finite final objective or Lyapunov value")
                    bad += _ledger_problems(last, n, 2 * b, T)
                ops.append(_run_op(f"alpha={alpha} b={b} seed={seed}", records, error, bad))
        return ops


class SweepCrossover(Workload):
    """Criterion 10's instance: epsilon-stopped runs across the alpha grid."""

    name = "sweep_crossover"

    def prepare(self, seed, toy, workdir):
        # The solver seeds are fixed: time to accuracy varies by about +-35%
        # between seeds, which a ten-second run cannot average away, so the
        # workload seed does not change this workload's inputs.
        if toy:
            return dict(n=200, d=10, condition=1e2, cap=5_000, eps=1e-3,
                        seeds=(0,), max_iterations=50_000)
        return dict(n=2000, d=50, condition=1e4, cap=200_000, eps=1e-5,
                    seeds=(0, 1), max_iterations=300_000)

    def setup(self, inputs):
        _, problem = problems.synthesize(
            inputs["n"], inputs["d"], "least_squares", seed=20, noise=0.1,
            condition=inputs["condition"])
        problems.with_reference(problem, tol=1e-12, max_iterations=inputs["cap"])
        return dict(inputs, problem=problem)

    def round(self, ctx, tick):
        problem, eps = ctx["problem"], ctx["eps"]
        alpha_star = analysis.select_alpha(problem.n, eps)
        out = []
        for alpha in (0.0, alpha_star, 1.0):
            for seed in ctx["seeds"]:
                out.append((alpha, seed, *_attempt(optimizers.run, problem, optimizers.RunConfig(
                    alpha=alpha, batch_size=1, epsilon=eps, seed=seed,
                    record_every=10 ** 9, eval_every=20,
                    max_iterations=ctx["max_iterations"]))))
                tick()
        return out

    def check(self, ctx, raw):
        problem, eps = ctx["problem"], ctx["eps"]
        ref = problem.reference
        ref_bad = []
        if problem.value(ref.x_star) != ref.f_star:
            ref_bad.append("F* is not the objective at the reference point")
        ops = []
        for alpha, seed, records, error in raw:
            bad = list(ref_bad)
            if error is None:
                last = records[-1]
                gap = last.f_w - ref.f_star
                if not gap <= eps:
                    bad.append(f"final gap {gap:.3e} above epsilon {eps:g}")
                if gap < -ref.gap_tolerance:
                    bad.append(f"final gap {gap:.3e} below -tolerance: F* is too high")
                if last.t >= ctx["max_iterations"]:
                    bad.append("iteration cap reached")
                bad += _ledger_problems(last, problem.n, 2, None)
            ops.append(_run_op(f"alpha={alpha:.4f} seed={seed}", records, error, bad))
        return ops

    def report(self, raw):
        """Mean IFO to accuracy per alpha; reported, not gated (statistical)."""
        by_alpha: dict[float, list[int]] = {}
        for alpha, _, records, error in raw:
            if error is None:
                by_alpha.setdefault(alpha, []).append(records[-1].ifo_total)
        means = {a: float(np.mean(v)) for a, v in sorted(by_alpha.items())}
        ordered = None
        if len(means) == 3:
            lo, star, hi = means.values()
            ordered = star < lo and star < hi
        return {"mean_ifo_by_alpha": {f"{a:.4f}": m for a, m in means.items()},
                "selected_alpha_cheapest": ordered}


class CliSparseCached(Workload):
    """The ``run`` command on a sparse text dataset with the gradient cache."""

    name = "cli_sparse_cached"

    def prepare(self, seed, toy, workdir):
        # The seed makes the data file; the solver seeds stay 0, 1, 2.  The
        # checkpoint draws depend only on the solver seeds, and with ~20
        # refreshes of n IFO per run they would move IFO per run by ~10%.
        n, d, b, T, seeds, stride = (400, 10, 20, 100, 2, 10) if toy else \
            (10_000, 100, 100, 2000, 3, 20)
        density = 0.2
        rng = np.random.Generator(np.random.Philox(key=seed))
        A = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
        w = rng.standard_normal(d) / math.sqrt(d * density)
        labels = np.where(A @ w + 0.1 * rng.standard_normal(n) >= 0.0, 1, -1)
        lines = []
        for row, label in zip(A, labels):
            nz = np.flatnonzero(row)
            lines.append(" ".join([str(label)] + [f"{j + 1}:{row[j]:.9g}" for j in nz]))
        work = workdir / "cli"
        work.mkdir(parents=True, exist_ok=True)
        data = work / "data.txt"
        data.write_text("\n".join(lines) + "\n")
        config = work / "exp.ini"
        config.write_text(
            "[problem]\nfamily = logistic\n"
            f"data = {data}\n"
            "reg = elastic_net\nlam1 = 1e-4\nlam2 = 1e-4\n"
            "[solver]\nalpha = 1\n"
            f"b = {b}\n"
            "cache_checkpoint_grads = true\n"
            f"[run]\niterations = {T}\n"
            f"seeds = {' '.join(str(k) for k in range(seeds))}\n"
            f"[output]\ndirectory = {work / 'traces'}\n"
            f"trace_stride = {stride}\n"
        )
        return dict(config=config, data_bytes=data.stat().st_size, density=density)

    def setup(self, inputs):
        cfg = experiment.load_config(inputs["config"])
        problem = experiment.build_problem(cfg)
        return dict(inputs, cfg=cfg, problem=problem, seeds=cfg.run.seeds, cache=True)

    def provenance(self, ctx):
        return {**super().provenance(ctx), "data_file_bytes": ctx["data_bytes"],
                "density": ctx["density"]}

    def round(self, ctx, tick):
        # What run_command does once the problem is built; set-up already
        # parsed the file, so the round does not parse it again.
        cfg, problem = ctx["cfg"], ctx["problem"]
        out = Path(cfg.output.directory)
        out.mkdir(parents=True, exist_ok=True)
        results = []
        for seed in cfg.run.seeds:
            path = out / f"trace_{cfg.solver.method}_seed{seed}.csv"
            records, error = _attempt(experiment.run_single, problem, cfg, seed)
            if error is None:
                _, error = _attempt(
                    experiment.write_trace, path, records,
                    experiment._trace_header(cfg, problem, seed), 0.0)
            results.append((seed, path, records, error))
            tick()
        return results

    def check(self, ctx, raw):
        cfg, problem = ctx["cfg"], ctx["problem"]
        T, stride, b = cfg.run.iterations, cfg.output.trace_stride, cfg.solver.b
        ops = []
        for seed, path, records, error in raw:
            bad = []
            if error is None:
                trace, read_error = _attempt(experiment.read_trace, path)
                header, rows = trace if read_error is None else ({}, [])
                if read_error is not None:
                    bad.append(f"trace does not read back: {read_error}")
                elif header.get("seed") != str(seed):
                    bad.append("trace header carries the wrong seed")
                if len(rows) != len(records) or len(rows) != T // stride + 1:
                    bad.append(f"trace has {len(rows)} rows, expected {T // stride + 1}")
                gaps = [r[c] for r in rows for c in ("F_y_gap", "F_w_gap")]
                if not gaps or not all(map(math.isfinite, gaps)):
                    bad.append("non-finite gap in trace")
                elif not rows[-1]["F_w_gap"] < rows[0]["F_w_gap"]:
                    bad.append("objective did not decrease")
                if rows and rows[-1]["ifo_total"] != records[-1].ifo_total:
                    bad.append("trace ifo_total differs from the run's ledger")
                bad += _ledger_problems(records[-1], problem.n, b, T)
            ops.append(_run_op(f"seed={seed}", records, error, bad))
        return ops


class VerifyScan(Workload):
    """The ``verify`` command: the certificate scan plus the fault injection."""

    name = "verify_scan"
    gauge = calibration.SCAN

    def prepare(self, seed, toy, workdir):
        # The certificate is deterministic: the seed changes nothing here.
        return dict(t_max=2000, step=0.1) if toy else dict(t_max=100_000, step=0.01)

    def setup(self, inputs):
        grid = verification.default_alpha_grid(step=inputs["step"])
        return dict(inputs, grid=grid, batch_sizes=(1, 2, 10))

    def round(self, ctx, tick):
        grid, t_max, bs = ctx["grid"], ctx["t_max"], ctx["batch_sizes"]
        scans = (
            ("certificate", True, verification.scan_schedule,
             dict(alpha_grid=grid, t_max=t_max, batch_sizes=bs)),
            ("growth alpha=0.5", True, verification.scan_denominator_growth,
             dict(alpha=0.5, t_max=t_max)),
            ("growth alpha=1", True, verification.scan_denominator_growth,
             dict(alpha=1.0, t_max=t_max)),
            ("fault xi=2", False, verification.scan_schedule,
             dict(alpha_grid=grid, t_max=t_max, batch_sizes=bs, xi_override=2.0)),
        )
        out = []
        for label, must_pass, scan, kwargs in scans:
            out.append((label, must_pass, *_attempt(scan, **kwargs)))
            tick()
        return out

    def check(self, ctx, raw):
        cells = len(ctx["grid"]) * len(ctx["batch_sizes"])
        ops = []
        for label, must_pass, report, error in raw:
            if error is not None:
                ops.append(Op(label, False, error))
                continue
            points = ctx["t_max"] * (1 if label.startswith("growth") else cells)
            ok = report.passed == must_pass
            detail = "" if ok else f"scan {'failed' if must_pass else 'passed'}"
            counts = (report.passed,) + tuple(
                (c.claim, c.min_slack, c.worst_at) for c in report.claims)
            ops.append(Op(label, ok, detail, counts=counts,
                          iterations=points, work=points))
        return ops

    def provenance(self, ctx):
        return {"alpha_grid_points": len(ctx["grid"]), "t_max": ctx["t_max"],
                "batch_sizes": list(ctx["batch_sizes"])}


WORKLOADS = {w.name: w for w in (SeedsLyapunov(), SweepCrossover(),
                                 CliSparseCached(), VerifyScan())}
