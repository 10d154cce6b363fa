"""The package resolves its public names on first use, only the commands
that need the operator lab import it (and SciPy), and every definition has
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

# definitions the package itself need not call, each with its reason
UNCALLED_BY_DESIGN = {
    "serialize_frame_spec": "writes the FORMATS.md frame-spec format; the "
                            "round-trip property tests read it back",
    "serialize_model": "writes the FORMATS.md model format; the round-trip "
                       "property tests read it back",
    "__getattr__": "PEP 562 module hook: Python calls it for akscal.<name>",
    "__dir__": "PEP 562 module hook: dir(akscal) calls it",
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


def _definitions_and_references():
    """Every module-level function and class and every method under akscal/
    but the protocol dunders a class defines, as (module, qualified name,
    ids of the nodes inside it, ids of the nodes that may call it); each
    file is parsed once.  A module-level name is called by a Name or an
    Attribute node that spells it, a method by an Attribute node alone, so
    a local variable that shares a method's name calls nothing.  The export
    table holds strings, not names, so it never counts."""
    found, names, attrs = [], {}, {}
    trees = []                         # kept alive, so no node id is reused
    for path in sorted((SRC / "akscal").glob("*.py")):
        trees.append(tree := ast.parse(path.read_text()))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, set()).add(id(node))
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            found.append((path.stem, top.name, top, False))
            if isinstance(top, ast.ClassDef):
                found += [(path.stem, f"{top.name}.{m.name}", m, True)
                          for m in top.body if isinstance(m, ast.FunctionDef)
                          and not (m.name.startswith("__")
                                   and m.name.endswith("__"))]
    return [(module, qual, {id(n) for n in ast.walk(node)},
             attrs.get(node.name, set())
             | (set() if method else names.get(node.name, set())))
            for module, qual, node, method in found]


def test_every_definition_has_a_caller_in_the_package():
    uncalled = {qual.rpartition(".")[2]: f"{module}.{qual}"
                for module, qual, inside, callers
                in _definitions_and_references() if not callers - inside}
    assert {name: where for name, where in uncalled.items()
            if name not in UNCALLED_BY_DESIGN} == {}
    # every allowance is still needed
    assert set(UNCALLED_BY_DESIGN) <= set(uncalled)
