"""The three workloads: job lists over the public akscal entry points.

A job is one call whose output is checked against a frozen target.  `solve`
jobs end in a verified result; `refuse` jobs must end in the expected named
refusal, judged by exception type or CLI exit code, never by message text.
CLI jobs write into their own directory under the run's output root, and
their artifacts are returned so the caller can hold them byte-identical
across the passes of a run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NAMES = ("kernel-gap", "assembly-algebra", "rearrange")

SOLVE, REFUSE = "solve", "refuse"


@dataclass
class Outcome:
    ok: bool
    detail: str
    artifacts: dict      # file name -> bytes, for CLI jobs
    check: object = None  # suite CheckResult, for suite jobs


@dataclass
class Job:
    id: str
    kind: str                       # SOLVE or REFUSE
    run: Callable[[], Outcome]
    artifacts: bool = False         # held byte-identical across passes


def _suite_job(check: str, seed: int) -> Job:
    def run():
        from akscal import suite
        r = getattr(suite, check)(seed)
        ok = r.passed and r.in_budget
        return Outcome(ok, f"{r.name}: passed={r.passed} in_budget="
                       f"{r.in_budget} ({r.elapsed:.3f}s of {r.cap}s)", {}, r)
    return Job(f"suite.{check}", SOLVE, run)


def _cli(argv, out: Path):
    """Run cli.main with its own output directory; returns (code, files)."""
    from akscal import cli
    out.mkdir(parents=True, exist_ok=True)
    for old in out.iterdir():
        old.unlink()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(["--out", str(out), *argv])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, files


def _rows(data: bytes) -> list:
    return list(csv.reader(io.StringIO(data.decode())))


def _cli_job(job_id: str, argv, out: Path, verify) -> Job:
    def run():
        code, files = _cli(argv, out / job_id)
        ok, detail = (False, f"exit {code}") if code != 0 else verify(files)
        return Outcome(ok, detail, files)
    return Job(job_id, SOLVE, run, artifacts=True)


def _cli_refusal(job_id: str, argv, out: Path) -> Job:
    def run():
        code, files = _cli(argv, out / job_id)
        return Outcome(code == 2, f"exit {code} (want 2)", {})
    return Job(job_id, REFUSE, run)


# -- verifiers for CLI artifacts --------------------------------------------


def _rearrange_error_below(eps: float):
    def verify(files):
        rows = _rows(files["rearrange_plan.csv"])
        err = float(next(r[1] for r in rows if r[0] == "error"))
        return err < eps, f"L2 error {err:.6g} (eps {eps})"
    return verify


def _curvature_kt(files):
    rows = {tuple(r[:4]): r[4] for r in _rows(files["curvature_kt.csv"])}
    sect = rows.get(("sectional", "1", "2", ""))
    scal = rows.get(("scalar", "", "", ""))
    return sect == "-3/4" and scal == "-1/2", f"K12 {sect}, scalar {scal}"


def _zbound_item(files, name: str, item: str) -> float:
    return float(next(r[2] for r in _rows(files[name]) if r[0] == item))


def _zbound_barlow(files):
    opt = _zbound_item(files, "zbound_barlow_sigma.csv", "optimum")
    cert = _zbound_item(files, "zbound_barlow_sigma.csv",
                        "certificate_global_bound")
    want = -12.0 * math.pi
    ok = abs(opt - want) <= 1e-6 and abs(cert - want) <= 1e-9
    return ok, f"optimum {opt!r}, certified {cert!r} (want -12 pi)"


def _zbound_cp2(files):
    val = _zbound_item(files, "zbound_cp2.csv", "eval_at_seed")
    want = 12.0 * math.sqrt(2.0) * math.pi
    return abs(val - want) <= 1e-9 * want, f"value at seed {val!r} (want 12 sqrt2 pi)"


# -- workloads ---------------------------------------------------------------


def _kernel_gap_factorized(seed: int) -> Job:
    def run():
        from akscal import operator_lab
        rep = operator_lab.kernel_gap(6, 20, variant="kt", seed=seed)
        resid = float(max(abs(r) for r in rep.residuals))
        ok = abs(rep.floor - 0.625) <= 1e-8 and resid < 1e-8
        return Outcome(ok, f"N=6,Nt=20 floor {rep.floor!r} ({rep.method}, "
                       f"{rep.size} nodes), residual {resid:.1e}", {})
    return Job("operator_lab.kernel_gap(6,20,kt)", SOLVE, run)


def build(name: str, seed: int, out: Path) -> list:
    """Job list of one workload.

    Jobs look their entry points up on the akscal modules when they run, so
    a tracer installed later sees every call.  Importing akscal is part of
    building the inputs.
    """
    import akscal.cli  # noqa: F401  (the package and every layer it uses)
    out = Path(out)
    if name == "kernel-gap":
        return [_suite_job("check_kernel_gap", seed),
                _kernel_gap_factorized(seed)]
    if name == "assembly-algebra":
        # operator assembly with no eigensolve, then the exact-algebra checks
        # and CLI jobs, the only cover of lie, exact, tensor and zbound
        jobs = [_suite_job(check, seed) for check in (
            "check_symbol", "check_hessian_routes", "check_curvature_tables",
            "check_star_scalar", "check_bound_values", "check_certificates",
            "check_collapsing", "check_property_suites")]
        jobs.append(_cli_job("cli.curvature.kt", ["curvature", "kt.spec",
                                                  "--exact"], out, _curvature_kt))
        jobs.append(_cli_job("cli.zbound.barlow_sigma",
                             ["zbound", "barlow_sigma.model", "--certify"],
                             out, _zbound_barlow))
        jobs.append(_cli_job("cli.zbound.cp2", ["zbound", "cp2.model",
                                                "--certify"], out, _zbound_cp2))
        return jobs
    if name == "rearrange":
        jobs = [_suite_job("check_rearrangement", seed)]
        for eps in ("0.2", "0.1", "0.05"):
            jobs.append(_cli_job(
                f"cli.rearrange.cos.eps{eps}",
                ["rearrange", "--f", "sin(x)", "--f1", "0.3*cos(x)",
                 "--eps", eps], out, _rearrange_error_below(float(eps))))
        jobs.append(_cli_refusal(
            "cli.rearrange.arc-cap", ["rearrange", "--f", "sin(x)", "--f1",
                                      "0.8*sin(20*x)", "--eps", "0.1"], out))
        jobs.append(_cli_refusal(
            "cli.rearrange.cyclic-order", ["rearrange", "--f", "sin(x)",
                                           "--f1", "sin(5*x)", "--eps", "0.1"],
            out))
        return jobs
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
