"""End-to-end command-line runs, in process via cli.main(argv), and in fresh
interpreters where the environment matters."""

import csv
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from akscal import cli, rearrange, zbound

SRC = Path(cli.__file__).resolve().parents[1]


def run(tmp_path, *argv):
    return cli.main(["--out", str(tmp_path), *argv])


def test_no_subcommand_fails():
    assert cli.main([]) == 2


def test_curvature_exact_csv(tmp_path, capsys):
    assert run(tmp_path, "curvature", "kt.spec", "--exact") == 0
    text = (tmp_path / "curvature_kt.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "table,i,j,k,value"
    assert "sectional,1,2,,-3/4" in lines
    assert "gamma,1,2,3,1/2" in lines
    assert "scalar,,,,-1/2" in lines
    assert "nabla_j_sq,,,,2" in lines
    out = capsys.readouterr().out
    assert "scalar = -1/2" in out


def test_curvature_decimal_mode(tmp_path):
    assert run(tmp_path, "curvature", "kt.spec") == 0
    text = (tmp_path / "curvature_kt.csv").read_text()
    assert "sectional,1,2,,-0.75" in text
    assert "/" not in text.split("\n", 1)[1].replace("-0.", "0.")


def test_curvature_missing_file(tmp_path, capsys):
    assert run(tmp_path, "curvature", "nope.spec") == 2
    assert "not found" in capsys.readouterr().err


def test_zbound_cp2(tmp_path, capsys):
    assert run(tmp_path, "zbound", "cp2.model") == 0
    out = capsys.readouterr().out
    want = 12.0 * np.sqrt(2.0) * np.pi
    got = float(out.split("value at seed = ")[1].split()[0])
    assert got == pytest.approx(want, abs=1e-9)
    rows = (tmp_path / "zbound_cp2.csv").read_text().splitlines()
    assert rows[1].startswith("eval_at_seed,1,")


def test_zbound_cp2_rows_share_one_value(tmp_path):
    assert run(tmp_path, "zbound", "cp2.model", "--certify") == 0
    rows = dict(r.split(",")[::2] for r in
                (tmp_path / "zbound_cp2.csv").read_text().splitlines())
    assert rows["eval_at_seed"] == rows["optimum"] == rows[
        "certificate_global_bound"] == "53.314595257900386"


def test_zbound_certifies_the_seed_ray(tmp_path, capsys):
    model = tmp_path / "neg.model"
    model.write_text("name neg\nn 2\nQ 1\nc1 3\nseed -1\n")
    assert run(tmp_path, "zbound", str(model), "--certify") == 0
    want = cli._fmt(zbound.eval_z_bound(
        zbound.parse_model(model.read_text()), [-1.0]))
    assert f"certified global bound {want} at (-1)" in capsys.readouterr().out
    text = (tmp_path / "zbound_neg.csv").read_text()
    assert f"certificate_global_bound,,{want}" in text
    assert "certificate_extremal_class,-1," in text


def test_zbound_start_on_the_unbounded_side_is_not_certified(tmp_path, capsys):
    start = ",".join(["3"] + ["-1"] * 8 + ["1"])
    assert run(tmp_path, "zbound", "barlow_sigma.model", "--start", start,
               "--certify") == 0
    out = capsys.readouterr().out
    assert "optimum = inf" in out and "certified" not in out
    assert "certificate,,not available for this shape" in (
        tmp_path / "zbound_barlow_sigma.csv").read_text()


def test_zbound_certificate(tmp_path):
    assert run(tmp_path, "zbound", "barlow_sigma.model", "--certify") == 0
    text = (tmp_path / "zbound_barlow_sigma.csv").read_text()
    assert "certificate_global_bound,," in text
    assert "certificate_extremal_class,-3 1 1 1 1 1 1 1 1 2," in text


def test_operator_validation(tmp_path, capsys):
    assert run(tmp_path, "operator", "--N", "40") == 2
    assert "N must lie in [4, 32]" in capsys.readouterr().err
    # a non-finite t-period is refused before any grid is built
    for d in ("-1", "inf", "nan"):
        assert run(tmp_path, "operator", "--N", "4", "--d", d,
                   "--kernel-gap", "2") == 2
        assert "need finite d > 0" in capsys.readouterr().err
    # the node count is bounded by the largest grid --N admits; only the
    # rejection is run, no oversized grid is built
    for n, nt in (("32", "33"), ("4", str(10 ** 12))):
        assert run(tmp_path, "operator", "--N", n, "--Nt", nt) == 2
        assert "32^4 = 1048576" in capsys.readouterr().err
    # the eigenpair count must lie in [1, grid size]; 0 leaves it off
    for k in ("-1", str(4 ** 4 + 1)):
        assert run(tmp_path, "operator", "--variant", "flat", "--N", "4",
                   "--kernel-gap", k) == 2
        assert "eigenpairs" in capsys.readouterr().err
    assert not list(tmp_path.glob("operator_*.csv"))


def test_operator_refuses_an_overflowing_kernel_gap(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(tmp_path, "operator", "--N", "4", "--d", "1e-150",
                   "--kernel-gap", "2")
    assert code == 2
    assert capsys.readouterr().err == (
        "error [operator]: h_t = d/nt = 2.5e-151 is too small: the normal "
        "operator's entries, of order 1/h_t^4, overflow a float\n")
    assert caught == []
    assert not list(tmp_path.glob("operator_*.csv"))


def test_operator_refuses_a_small_t_period(tmp_path, capsys):
    # with or without --kernel-gap: exit 2 naming h_t, no warning, no file
    # and no output directory
    norms = "the slot residual norms, of order 1/h_t^2"
    normal = "the normal operator's entries, of order 1/h_t^4"
    hessian = "the Hessian weights, of order 1/h_t^2"
    for d, h, what, gap_what in (("1e-150", "2.5e-151", norms, normal),
                                 ("1e-160", "2.5e-161", hessian, hessian),
                                 ("1e-200", "2.5e-201", hessian, hessian)):
        for extra, why in (((), what), (("--kernel-gap", "2"), gap_what)):
            out = tmp_path / d
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(out, "operator", "--N", "4", "--d", d, *extra)
            assert code == 2
            assert capsys.readouterr().err == (
                f"error [operator]: h_t = d/nt = {h} is too small: {why}, "
                f"overflow a float\n")
            assert caught == []
            assert not out.exists()


def test_operator_refuses_a_large_t_period(tmp_path, capsys):
    # 1/h_t^2 underflows: exit 2 naming h_t, no traceback and no file
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(out, "operator", "--N", "4", "--d", "1e200")
    assert code == 2
    assert capsys.readouterr().err == (
        "error [operator]: h_t = d/nt = 2.5e+199 is too large: the Hessian "
        "weights, of order 1/h_t^2, underflow a float\n")
    assert caught == []
    assert not out.exists()


def test_operator_artifacts(tmp_path, capsys):
    assert run(tmp_path, "operator", "--variant", "flat", "--N", "4",
               "--kernel-gap", "2") == 0
    residuals = (tmp_path / "operator_residuals_flat_N4.csv").read_text()
    assert residuals.splitlines()[0] == "field,slot,l2_residual"
    # flat constants are annihilated slot by slot
    for line in residuals.splitlines()[1:7]:
        assert line.startswith("constant,") and line.endswith(",0")
    # 6 twin orbits, each solved or pruned
    floor_line = capsys.readouterr().out.splitlines()[-1]
    solved, pruned = re.search(r"(\d+) of 16 sectors solved, (\d+) pruned\)$",
                               floor_line).groups()
    assert int(solved) + int(pruned) == 6
    spectrum = (tmp_path / "operator_spectrum_flat_N4.csv").read_text()
    floor = float(spectrum.splitlines()[1].split(",")[1])
    assert abs(floor) <= 1e-8


def test_flat_symbol_sweep_prints_no_nan(tmp_path, capsys):
    # the flat ratio is identically 1, so its deviations are 0 or rounding
    # errors and no slope is fitted; the CSV still holds every deviation
    assert run(tmp_path, "operator", "--variant", "flat", "--N", "8",
               "--symbol-sweep") == 0
    out = capsys.readouterr().out
    assert "nan" not in out.lower()
    assert ("symbol sweep: deviations at rounding level (largest 1.1e-16) "
            "over 2 modes; no slope fitted") in out
    rows = (tmp_path / "operator_symbol_flat_N8.csv").read_text().splitlines()
    assert rows[0] == "xi,abs_ratio_minus_1" and len(rows) == 3


def test_operator_artifacts_ignore_blas_threads(tmp_path):
    # fresh interpreters at one and two OpenBLAS threads write the same
    # slot residual bytes; the variable is set in the children only
    files = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "akscal.cli", "--out", str(out),
             "operator", "--N", "12", "--kernel-gap", "20"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        files.append((out / "operator_residuals_kt_N12.csv").read_bytes())
    assert files[0] == files[1]


def test_rearrange_run_and_phi(tmp_path):
    phi_path = tmp_path / "phi.csv"
    assert run(tmp_path, "rearrange", "--f", "sin(x)", "--f1", "0*x",
               "--eps", "0.2", "--emit-phi", str(phi_path)) == 0
    plan = (tmp_path / "rearrange_plan.csv").read_text()
    assert "error," in plan and "min_derivative," in plan
    header = phi_path.read_text().splitlines()[0]
    assert header == "x,phi_t25,phi_t50,phi_t75,phi_t100,derivative"
    data = np.loadtxt(str(phi_path), delimiter=",", skiprows=1)
    assert (data[:, 5] > 0).all()


def test_rearrange_unopenable_phi_path_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    phi_path = tmp_path / "nodir" / "phi.csv"
    assert cli.main(["--out", str(out), "rearrange", "--f", "sin(x)", "--f1",
                     "0.3*cos(x)", "--emit-phi", str(phi_path)]) == 2
    assert str(phi_path) in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_rearrange_artifacts_ignore_blas_threads(tmp_path):
    # fresh interpreters at one and two OpenBLAS threads write the same
    # plan and isotopy bytes; the variable is set in the children only
    files = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "akscal.cli", "--out", str(out),
             "rearrange", "--f", "sin(x)", "--f1", "0.3*cos(x)", "--eps",
             "0.1", "--emit-phi", str(out / "phi.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        files.append([(out / name).read_bytes()
                      for name in ("rearrange_plan.csv", "phi.csv")])
    assert files[0] == files[1]


def test_rearrange_csv_samples_input(tmp_path):
    xs = np.arange(64) * (2 * np.pi / 64)
    src = tmp_path / "samples.csv"
    np.savetxt(str(src), np.sin(xs), delimiter=",")
    assert run(tmp_path, "rearrange", "--f", str(src), "--f1", "0*x",
               "--eps", "0.2") == 0


def test_rearrange_infeasible(tmp_path, capsys):
    # the library's range refusal, with its L^2 bound 1 * (2 pi)^(1/2),
    # before any output directory is made
    out = tmp_path / "out"
    assert run(out, "rearrange", "--f", "sin(x)", "--f1", "2+0*x",
               "--eps", "0.1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error [rearrange]: ") and "infeasible" in err
    assert f"misses it by >= {np.sqrt(2 * np.pi):.4g} in L^2" in err
    assert not out.exists()


def test_rearrange_refuses_cyclic_order(tmp_path, capsys):
    # targets that turn more often per lap than sin exit 2 with the
    # library's cyclic-order refusal, before any directory or file is made;
    # the swing S grows with twice f1's largest step between plan samples
    out, phi = tmp_path / "out", tmp_path / "phi.csv"
    for f1, turns, swing in (("sin(5*x)", 10, "0.0546"),
                             ("0.8*sin(20*x)", 40, "0.063"),
                             ("0.5*sin(2*x)", 4, "0.0515"),
                             ("0.5*cos(2*x)", 4, "0.0515")):
        assert run(out, "rearrange", "--f", "sin(x)", "--f1", f1, "--eps",
                   "0.1", "--emit-phi", str(phi)) == 2
        assert capsys.readouterr().err == (
            f"error [rearrange]: f1 turns {turns} times per lap by more than "
            f"{swing} and f only 2 times: a circle diffeomorphism keeps "
            f"cyclic order, so no partition can give f1's arcs source "
            f"intervals in order (the obstruction is one-dimensional)\n")
    assert not out.exists() and not phi.exists()


def _reference_csv(header, rows) -> bytes:
    """What csv.writer writes for these rows, every non-string cell through
    _fmt: the rendering the rearrange artifacts are checked against."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else cli._fmt(v)
                         for v in row])
    return buf.getvalue().encode()


def test_rearrange_writer_matches_csv_reference(tmp_path):
    # the bench's three plans and one isotopy table, row by row through
    # csv.writer and _fmt, against the bytes the one-pass writer leaves
    f, f1 = cli._parse_field("sin(x)"), cli._parse_field("0.3*cos(x)")
    for eps in (0.2, 0.1, 0.05):
        out = tmp_path / str(eps)
        phi_path = out / "phi.csv"
        extra = ("--emit-phi", str(phi_path)) if eps == 0.1 else ()
        assert run(out, "rearrange", "--f", "sin(x)", "--f1", "0.3*cos(x)",
                   "--eps", str(eps), *extra) == 0
        phi, err, plan = rearrange.rearrange(f, f1, eps)
        rows = [("arc", a.lo, a.hi, a.level) for a in plan.arcs]
        rows += [("source", u, v, "") for u, v in plan.sources]
        rows += [("node", xf, yt, "")
                 for xf, yt in zip(phi.nodes_from, phi.nodes_to)]
        rows.append(("error", err, f"target {cli._fmt(eps)}", ""))
        rows.append(("min_derivative", phi.min_derivative(), "", ""))
        assert (out / "rearrange_plan.csv").read_bytes() == _reference_csv(
            ("item", "a", "b", "value"), rows)
        if extra:
            xs = np.linspace(0.0, rearrange.CIRCLE, 2049)
            cols = [xs] + [phi(xs, t) for t in (0.25, 0.5, 0.75, 1.0)] \
                + [phi.derivative(xs, 1.0)]
            assert phi_path.read_bytes() == _reference_csv(
                ("x", "phi_t25", "phi_t50", "phi_t75", "phi_t100",
                 "derivative"), zip(*cols))


def test_rearrange_refuses_non_finite_fields(tmp_path, capsys):
    out = tmp_path / "out"
    for f, f1, name in (("sin(x)", "sqrt(x - 10)", "f1"),
                        ("log(x - 10)", "0*x", "f"),
                        ("sin(x)", "1/(x - x)", "f1")):
        with np.errstate(invalid="ignore", divide="ignore"):
            assert run(out, "rearrange", "--f", f, "--f1", f1) == 2
        err = capsys.readouterr().err
        assert err == f"error [rearrange]: {name} is not finite on the circle\n"
    assert not out.exists()


def test_rearrange_domain_error_prints_only_the_refusal(tmp_path, capsys):
    # the field expressions evaluate with numpy's warnings off: the NaN is
    # refused by name, and nothing else reaches stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(tmp_path / "out", "rearrange", "--f", "sin(x)",
                   "--f1", "sqrt(x-10)", "--eps", "0.1")
    assert code == 2
    assert capsys.readouterr().err == \
        "error [rearrange]: f1 is not finite on the circle\n"
    assert caught == []


def test_rearrange_rejects_code_injection(tmp_path, capsys):
    code = run(tmp_path, "rearrange", "--f", "__import__('os').getcwd()",
               "--f1", "0*x")
    assert code == 2
    assert "unknown name" in capsys.readouterr().err


def test_field_expressions_are_whitelisted_at_parse_time():
    # each is refused by _parse_field itself, before anything is evaluated
    for expr in ("x**9**9**9", "x**65", "x**x", "x.real", "'a'", "True",
                 "x[0]", "sin(x, 1)", "sin", "pi(x)", "x if x else 1",
                 "lambda: 0", "x***2", "1" * 400 + "*x"):
        with pytest.raises(ValueError):
            cli._parse_field(expr)


def test_field_expressions_match_numpy_bytes():
    xs = np.linspace(0.0, 2.0 * np.pi, 1001)
    for expr, want in (("sin(x)", np.sin(xs)),
                       ("0.3*cos(x)", 0.3 * np.cos(xs)),
                       ("0.8*sin(20*x)", 0.8 * np.sin(20 * xs)),
                       ("sin(5*x)", np.sin(5 * xs)),
                       ("-x**2/pi + 1", -xs ** 2 / np.pi + 1)):
        assert cli._parse_field(expr)(xs).tobytes() == want.tobytes()


def test_rearrange_rejects_bad_syntax(tmp_path, capsys):
    assert run(tmp_path, "rearrange", "--f", "sin(x", "--f1", "0*x") == 2
    assert "cannot parse" in capsys.readouterr().err


def test_zbound_malformed_model_exits_2(tmp_path, capsys):
    model = tmp_path / "bad.model"
    model.write_text("name bad\nn\nQ 1\nc1 1\n")
    assert run(tmp_path, "zbound", str(model)) == 2
    assert "line 2: n needs a value" in capsys.readouterr().err


def test_rearrange_validates_parameters(tmp_path, capsys):
    assert run(tmp_path, "rearrange", "--f", "sin(x)", "--f1", "0*x",
               "--eps", "-1") == 2
    assert run(tmp_path, "rearrange", "--f", "sin(x)", "--f1", "0*x",
               "--p", "1.0") == 2
    capsys.readouterr()
    # non-finite eps or p are refused up front, each by its own name,
    # before any planning
    for flag, value, name in (("--p", "inf", "p"), ("--eps", "nan", "eps"),
                              ("--p", "nan", "p"), ("--eps", "inf", "eps")):
        assert run(tmp_path, "rearrange", "--f", "sin(x)", "--f1",
                   "0.3*cos(x)", flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [rearrange]: {name} must be ")
        assert "Traceback" not in err and "source interval" not in err
    assert not list(tmp_path.glob("rearrange_plan.csv"))


def test_rearrange_refuses_underflowing_p(tmp_path, capsys):
    for p in ("700", "3000"):
        assert run(tmp_path, "rearrange", "--f", "sin(x)", "--f1",
                   "0.3*cos(x)", "--p", p) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [rearrange]: p={p} is too large")
        assert "underflows" in err and "Traceback" not in err
    assert not list(tmp_path.glob("rearrange_plan.csv"))


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("AKSCAL_OUT", str(tmp_path / "env"))
    assert cli.main(["curvature", "kt.spec", "--exact"]) == 0
    assert (tmp_path / "env" / "curvature_kt.csv").exists()


def test_identical_runs_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["--out", str(out), "rearrange", "--f", "sin(x)",
                         "--f1", "0.3*cos(x)", "--eps", "0.1"]) == 0
    assert (a / "rearrange_plan.csv").read_bytes() == \
        (b / "rearrange_plan.csv").read_bytes()


@pytest.mark.parametrize("spec_text, message", [
    ("name bad\ndim\n", "line 2: dim needs a value"),
    ("name bad\ndim 4\nc 1 2 3 x\n", "line 3: malformed c value"),
    ("name kt\ndim 4\nc 1 2 3 1\nJ 0 0 0 1\nJ 0 0 -1 0\nJ 0 1 0 0\n"
     "J -1 0 0 0\nvol 1 1 1 nan\n", "positive and finite"),
])
def test_curvature_malformed_spec_exits_2(tmp_path, capsys, spec_text, message):
    spec = tmp_path / "bad.spec"
    spec.write_text(spec_text)
    assert run(tmp_path, "curvature", str(spec)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [curvature]: ") and message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("curvature_*.csv"))
