"""The package resolves its public names on first use, only the commands
that need the operator lab import it (and SciPy), and every public name has
a caller inside the package."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import akscal

SRC = Path(akscal.__file__).resolve().parents[1]
HEAVY = ("scipy.sparse", "akscal.grid", "akscal.operator_lab")

# public names the package itself need not call, each with its reason
UNCALLED_BY_DESIGN = {
    "serialize_frame_spec": "writes the FORMATS.md frame-spec format; the "
                            "round-trip property tests read it back",
    "serialize_model": "writes the FORMATS.md model format; the round-trip "
                       "property tests read it back",
}


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


def _referenced_in_package(name, home):
    """Whether any Name or Attribute node under akscal/ spells `name`, outside
    the top-level definition of `name` in its own module `home`.  The
    export table holds strings, not names, so it never counts."""
    for path in sorted((SRC / "akscal").glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = set()
        if path.stem == home:
            for node in tree.body:
                if getattr(node, "name", None) == name:
                    skip = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name):
                return True
    return False


def test_every_public_name_has_a_caller_in_the_package():
    unused = [f"{module}.{name}" for module, names in akscal._EXPORTS.items()
              for name in names if name not in UNCALLED_BY_DESIGN
              and not _referenced_in_package(name, module)]
    assert unused == []
    for name in UNCALLED_BY_DESIGN:
        assert name in akscal.__all__
