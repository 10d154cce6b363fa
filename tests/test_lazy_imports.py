"""The package resolves its public names on first use, and only the commands
that need the operator lab import it (and SciPy)."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import akscal

SRC = Path(akscal.__file__).resolve().parents[1]
HEAVY = ("scipy.sparse", "akscal.grid", "akscal.operator_lab")


def _loaded_after(tmp_path, *commands):
    """HEAVY modules present after cli.main ran `commands` in a fresh
    interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
            "from akscal import cli\n"
            f"for argv in {list(commands)!r}:\n"
            f"    assert cli.main(['--out', {str(tmp_path)!r}, *argv]) == 0\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_numpy_commands_never_import_scipy(tmp_path):
    assert _loaded_after(
        tmp_path,
        ["rearrange", "--f", "sin(x)", "--f1", "0.3*cos(x)", "--eps", "0.2"],
        ["zbound", "cp2.model"],
        ["curvature", "kt.spec"]) == []


def test_operator_command_loads_the_lab(tmp_path):
    assert _loaded_after(tmp_path, ["operator", "--N", "4"]) == list(HEAVY)


def test_public_names_resolve_to_their_submodules():
    assert len(akscal.__all__) == len(set(akscal.__all__))
    for name in akscal.__all__:
        module = importlib.import_module(f"akscal.{akscal._SOURCE[name]}")
        assert getattr(akscal, name) is getattr(module, name)
    assert set(akscal.__all__) <= set(dir(akscal))
    assert "__version__" in dir(akscal)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        akscal.no_such_name
    assert not hasattr(akscal, "check_plan_parameters")
