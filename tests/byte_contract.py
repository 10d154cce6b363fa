"""The byte contract: SHA-256 digests of the artifacts of a fixed CLI job list.

The jobs run in one fresh interpreter with the BLAS pinned to one thread, so
the digests do not depend on the machine's core count.  Regenerate the
record, tests/artifact_digests.json, after a change that moves bytes on
purpose, and declare every moved artifact:

    PYTHONPATH=src python tests/byte_contract.py
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

RECORD = Path(__file__).with_name("artifact_digests.json")
SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# job name -> argv; "{out}" is the job's own output directory
JOBS = {
    "report": ["report"],
    "paper-suite": ["paper-suite", "--seed", "3"],
    "operator-kt-N8": ["operator", "--N", "8", "--kernel-gap", "4",
                       "--symbol-sweep"],
    "operator-flat-N8": ["operator", "--variant", "flat", "--N", "8",
                         "--kernel-gap", "4", "--symbol-sweep"],
    **{f"rearrange-eps{eps}": ["rearrange", "--f", "sin(x)", "--f1",
                               "0.3*cos(x)", "--eps", eps, "--emit-phi",
                               "{out}/phi.csv"]
       for eps in ("0.2", "0.1", "0.05")},
    "curvature-kt-exact": ["curvature", "kt.spec", "--exact"],
    **{f"zbound-{m}": ["zbound", f"{m}.model", "--certify"]
       for m in ("barlow_sigma", "cp2", "r8_sigma")},
}
# jobs whose artifacts are exact rationals, the same on any platform
EXACT_JOBS = ("curvature-kt-exact",)


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if unreadable."""
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, name):
                fn = getattr(handle, name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _run_jobs() -> dict:
    """{"job/file": sha256} over every file the job list writes."""
    from akscal import cli
    digests = {}
    with tempfile.TemporaryDirectory() as root:
        for job, argv in JOBS.items():
            out = Path(root, job)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--out", str(out),
                                 *(a.format(out=out) for a in argv)])
            if code != 0:
                raise RuntimeError(f"job {job} exited {code}")
            for path in sorted(out.iterdir()):
                digests[f"{job}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return digests


def record() -> dict:
    """Environment and digests from a fresh interpreter at one BLAS thread."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, "1"),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, __file__, "--print"], env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return json.loads(proc.stdout)


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps({"environment": environment(),
                          "digests": _run_jobs()}))
    else:
        RECORD.write_text(json.dumps(record(), indent=2, sort_keys=True)
                          + "\n")
        print(f"wrote {RECORD}")
