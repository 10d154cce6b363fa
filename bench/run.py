"""akscal benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload kernel-gap --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from `src/` next to
this directory, never from an installed copy.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones (`E2E`);
with `--trace 1` they are the per-layer ones (`PER_LAYER`), from a run whose
passes alternate untraced and traced.  Each run also writes
`.bench_out/<workload>/seed<n>-trace<t>.json` (machine, per-pass timings, job
outcomes) and, when traced, `.bench_out/<workload>/spans-seed<n>.json` (the
span tree).

A pass runs the workload's job list once; passes repeat while another one
is expected to end within `--seconds` (`Runner.run_for` sets the least
number).  Every timing is the median over the passes of the run.  All load
comes from this one process; `setup_s` alone spawns fresh interpreters, one
after another, to time importing akscal and building the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

CHECKS = ("kt-curvature-tables", "star-scalar-identity", "bound-values",
          "analytic-certificates", "collapsing-family", "symbol-check",
          "kernel-gap", "hessian-route-fidelity", "rearrangement",
          "property-suites")

E2E = {"setup_s": "s", "pass_s": "s", "solve_s": "s", "ok_ratio": "ratio",
       "peak_rss_mb": "MB"}

_SELF = ("grid.shift", "grid.diff", "grid.lift_axis", "grid.sample",
         "operator_lab.get_variant", "operator_lab.hessian_ops_frame",
         "operator_lab.hessian_ops_chart", "operator_lab.AdjointSystem",
         "operator_lab.apply", "operator_lab.route_difference",
         "operator_lab.normal_matrix", "operator_lab.spectral_floor.dense",
         "operator_lab.spectral_floor.sparse", "rearrange.build_plan",
         "rearrange.realize_diffeo", "rearrange.rearrange_error",
         "rearrange.min_derivative", "rearrange.derivative",
         "rearrange.feasible",
         "lie.curvature_tables", "lie.kt_spec", "lie.nabla_j_norm_sq",
         "lie.z_ratio", "exact.mat_inv", "tensor.anti_invariant_part",
         "tensor.exp_metric", "tensor.log_recover", "zbound.optimize_z_bound",
         "zbound.eval_z_bound", "zbound.certify_global", "cli.main")
_CALLS = ("grid.shift", "grid.lift_axis", "operator_lab.get_variant",
          "operator_lab.symbol_check", "rearrange.build_plan",
          "rearrange.min_derivative", "lie.curvature_tables",
          "zbound.eval_z_bound")
_COUNTS = {"operator_lab.normal_matrix.nnz": "count",
           "operator_lab.spectral_floor.dense_calls": "count",
           "operator_lab.spectral_floor.sparse_calls": "count",
           "operator_lab.spectral_floor.size_sum": "count",
           "operator_lab.spectral_floor.dense_n3_computed": "count",
           "operator_lab.spectral_floor.dense_bytes_computed": "bytes",
           "operator_lab.spectral_floor.max_residual": "norm",
           "rearrange.build_plan.arcs": "count",
           "rearrange.build_plan.refusals": "count",
           "rearrange.derivative.points": "count",
           "zbound.optimize_z_bound.iterations": "count"}
PER_LAYER = {
    **{f"{n}.self_s": "s" for n in _SELF},
    **{f"{n}.calls": "count" for n in _CALLS},
    "grid.shift.cache_hit_ratio": "ratio",
    "operator_lab.get_variant.distinct_ratio": "ratio",
    **_COUNTS,
    **{f"suite.{c}.elapsed_s": "s" for c in CHECKS},
    "bench.self_s": "s",
    "refuse_s": "s",
    "trace.overhead_ratio": "ratio",
}


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable cores; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        keep = cur.isdigit() and 0 < int(cur) <= nproc
        os.environ[var] = cur if keep else str(nproc)
    return nproc


def commit_hash() -> str:
    """HEAD of the checkout, if it is a git work tree of its own."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(nproc: int) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "akscal").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "platform": platform.platform(), "commit": commit_hash(),
            "source_sha256": digest.hexdigest()}


def time_setup(workload: str, seed: int, out: Path) -> list:
    """Wall time of fresh interpreters importing akscal and building inputs."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import workloads; workloads.build(sys.argv[3], int(sys.argv[4]), "
            "sys.argv[5])")
    argv = [sys.executable, "-c", code, str(BENCH), str(SRC), workload,
            str(seed), str(out)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs passes over one job list and keeps what they measured."""

    def __init__(self, jobs: list):
        self.jobs = jobs
        self.passes: list = []        # one dict per pass
        self.failures: list = []      # (pass, job id, detail)
        self.first_artifacts: dict = {}
        self.compared = 0             # artifact sets held against pass 0
        self.outcomes: dict = {}      # job id -> detail of its latest run
        self.attempted = 0

    def run_pass(self, tracer=None) -> None:
        number = len(self.passes)
        stats = {"pass": number, "traced": tracer is not None,
                 workloads.SOLVE: 0.0, workloads.REFUSE: 0.0, "checks": {}}
        mark = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
            for job in self.jobs:
                if tracer:
                    tracer.job_id = f"{number}:{job.id}"
                with (tracer.span("bench.job") if tracer
                      else contextlib.nullcontext()):
                    j0 = time.perf_counter()
                    try:
                        outcome = job.run()
                    except Exception:
                        outcome = workloads.Outcome(False, traceback.format_exc(), {})
                    stats[job.kind] += time.perf_counter() - j0
                    self._record(number, job, outcome, stats)
        stats["pass_s"] = time.perf_counter() - t0
        if tracer:
            stats["layers"] = tracer.aggregate(mark)
            stats["self_sum_s"] = sum(tracer.self_time[mark:])
        self.passes.append(stats)

    def _record(self, number: int, job, outcome, stats: dict) -> None:
        self.attempted += 1
        ok, detail = outcome.ok, outcome.detail
        if outcome.check is not None:
            stats["checks"][outcome.check.name] = outcome.check.elapsed
        if job.artifacts and number > 0:
            self.compared += 1
            if ok and outcome.artifacts != self.first_artifacts[job.id]:
                ok, detail = False, f"artifacts differ from pass 0: {detail}"
        self.first_artifacts.setdefault(job.id, outcome.artifacts)
        self.outcomes[job.id] = detail
        if not ok:
            self.failures.append((number, job.id, detail))

    def run_for(self, seconds: float, tracer=None) -> None:
        """Passes while the median pass so far still fits in `seconds`.

        At least one pass runs, and two when jobs write artifacts, so that
        they are compared.  With a tracer, passes alternate untraced and
        traced in ABBA blocks (P T T P P T T P ...), at least one block, so
        a drift in the machine's speed falls on both halves alike.
        """
        least = 4 if tracer else 1 + any(job.artifacts for job in self.jobs)
        t0 = time.perf_counter()
        while len(self.passes) < least or (
                time.perf_counter() - t0
                + _median(self.passes, lambda s: s["pass_s"]) <= seconds):
            if tracer and len(self.passes) % 4 in (1, 2):
                tracer.install()
                try:
                    self.run_pass(tracer)
                finally:
                    tracer.uninstall()
            else:
                self.run_pass()


def _median(passes: list, key) -> float:
    return statistics.median(key(p) for p in passes)


def e2e_metrics(runner: Runner, setup: list) -> dict:
    p = runner.passes
    return {
        "setup_s": statistics.median(setup),
        "pass_s": _median(p, lambda s: s["pass_s"]),
        "solve_s": _median(p, lambda s: s[workloads.SOLVE]),
        "ok_ratio": (runner.attempted - len(runner.failures)) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(passes: list) -> dict:
    def per_pass(stats: dict) -> dict:
        self_s, calls, counters = stats["layers"]
        out = {f"{n}.self_s": self_s.get(n, 0.0) for n in _SELF}
        out.update({f"{n}.calls": calls.get(n, 0) for n in _CALLS})
        out.update({k: counters.get(k, 0) for k in _COUNTS})
        shifts = calls.get("grid.shift", 0)
        out["grid.shift.cache_hit_ratio"] = (
            counters.get("grid.shift.repeats", 0) / shifts if shifts else 0.0)
        variants = calls.get("operator_lab.get_variant", 0)
        out["operator_lab.get_variant.distinct_ratio"] = (
            counters.get("operator_lab.get_variant.distinct", 0) / variants
            if variants else 0.0)
        out.update({f"suite.{c}.elapsed_s": stats["checks"].get(c, 0.0)
                    for c in CHECKS})
        out["bench.self_s"] = self_s.get("bench.pass", 0.0) + self_s.get("bench.job", 0.0)
        return out

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    rows = [per_pass(s) for s in traced]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["refuse_s"] = _median(plain, lambda s: s[workloads.REFUSE])
    metrics["trace.overhead_ratio"] = (_median(traced, lambda s: s["pass_s"])
                                       / _median(plain, lambda s: s["pass_s"]))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "akscal" / "__init__.py").is_file():
        print(f"error: no akscal sources at {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    import akscal
    if Path(akscal.__file__).resolve().parent != (SRC / "akscal").resolve():
        print(f"error: imported akscal from {akscal.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    info = machine(nproc)
    setup = [] if args.trace else time_setup(args.workload, args.seed, out)
    runner = Runner(workloads.build(args.workload, args.seed, out))
    record = {"machine": info, "args": vars(args), "setup_s": setup}
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        runner.run_for(args.seconds, tracer)
        values = layer_metrics(runner.passes)
        units = PER_LAYER
        (out / f"spans-seed{args.seed}.json").write_text(json.dumps(tracer.tree()))
    else:
        runner.run_for(args.seconds)
        values = e2e_metrics(runner, setup)
        units = E2E

    record["passes"] = [{k: v for k, v in p.items() if k != "layers"}
                        for p in runner.passes]
    record["artifacts_compared"] = runner.compared
    record["jobs"] = runner.outcomes
    record["failures"] = runner.failures
    record["metrics"] = values
    (out / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for job, detail in runner.outcomes.items():
        print(f"{job}: {detail.splitlines()[-1] if detail else ''}")
    for number, job, detail in runner.failures:
        print(f"FAILED pass {number} {job}: {detail}", file=sys.stderr)
    print("machine:", json.dumps(info))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
