"""Every name a fourfold module exports exists, the package root exports
exactly the four calls of the README's Library example, no module imports
another's private names, `linalg.kernel` is the one way into
elimination, `QuasiMorphism.rows` the one way into the stage map, word
dicts the one cochain form of the model build and one `sullivan` function
the one place a guard trip is decided, which the carry of a
construction step never reaches."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fourfold

MODULES = ["fourfold"] + [
    f"fourfold.{info.name}"
    for info in pkgutil.iter_modules(fourfold.__path__)
    if info.name != "__main__"  # importing it runs the command line
]


def star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    del namespace["__builtins__"]
    return namespace


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    assert set(exported) <= set(star_import(name))


def test_modules_are_discovered():
    assert {"fourfold.cli", "fourfold.forms", "fourfold.gca", "fourfold.linalg",
            "fourfold.sullivan"} <= set(MODULES)


def test_package_root_exports_the_readme_library_names():
    assert sorted(star_import("fourfold")) == [
        "build", "closed_form_ranks", "cohomology_algebra", "make_form"
    ]
    assert fourfold.__version__ == "0.1.0"


def private_imports(source):
    """Each `from <fourfold module> import _name` in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "fourfold"
        ):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    assert private_imports("from .linalg import _eliminate, kernel") == ["_eliminate"]
    assert private_imports("from fourfold.gca import _odd") == ["_odd"]
    assert private_imports("from __future__ import annotations") == []
    sources = sorted(Path(fourfold.__file__).parent.glob("*.py"))
    assert len(sources) >= 6
    found = {path.name: private_imports(path.read_text()) for path in sources}
    assert {name: names for name, names in found.items() if names} == {}


def scopes(source, match):
    """The function, by qualified name, around each node of `source` that
    `match` accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif match(child):
                found.append(scope or "<module>")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def is_name(node, names):
    """Whether `node` reads one of `names`, as a bare name or as an attribute."""
    return (isinstance(node, ast.Name) and node.id in names) or (
        isinstance(node, ast.Attribute) and node.attr in names
    )


def uses(source, name):
    """The function around each read of `name` in `source`."""
    return scopes(source, lambda node: is_name(node, {name}))


def test_only_kernel_reaches_the_elimination():
    sample = (
        "def f(x):\n    return g(_eliminate(x))\n"
        "class C:\n    def m(self):\n        run = linalg._eliminate\n"
        "h = _eliminate\n"
    )
    assert uses(sample, "_eliminate") == ["f", "C.m", "<module>"]
    sources = sorted(Path(fourfold.__file__).parent.glob("*.py"))
    found = {path.name: uses(path.read_text(), "_eliminate") for path in sources}
    assert {name: where for name, where in found.items() if where} == {
        "linalg.py": ["kernel"]
    }


def test_one_stage_map_route():
    # The stage map goes into kernel as rows; the column route, the
    # per-polynomial map and the Poly-wrapped H^n live in the tests only.
    from fourfold import linalg, sullivan

    assert not hasattr(linalg, "column_kernel")
    assert not hasattr(sullivan.QuasiMorphism, "on_poly")
    sources = sorted(Path(fourfold.__file__).parent.glob("*.py"))
    for name in ("column_kernel", "on_poly", "stage_cohomology"):
        found = {path.name: uses(path.read_text(), name) for path in sources}
        assert {where: used for where, used in found.items() if used} == {}


def test_the_model_build_reads_no_poly():
    # A generator's differential is a word dict, like every other cochain
    # of the build; Poly stays the algebra's API for products and tests.
    from fourfold import gca

    assert not hasattr(gca.Derivation, "image")
    assert not hasattr(gca.Poly, "zero") and "__rmul__" not in vars(gca.Poly)
    assert "format_mono" not in gca.__all__
    root = Path(fourfold.__file__).parent
    for name in ("sullivan.py", "cli.py"):
        assert uses((root / name).read_text(), "Poly") == [], name


LIMITS = {"guard", "limit", "DEFAULT_GUARD"}


def raises_too_large(node):
    """A `raise BasisTooLarge(...)`, or one without the call."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return is_name(exc, {"BasisTooLarge"})


def compares_with_the_limit(node):
    """A comparison of a guard limit with something other than a constant."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(is_name(x, LIMITS) for x in operands) and not any(
        isinstance(x, ast.Constant) for x in operands
    )


def test_one_function_decides_a_guard_trip():
    # gca counts and enumerates; one sullivan function compares a size with
    # the limit and raises BasisTooLarge.  A check of --guard's sign is no trip.
    sample = (
        "def f(n, limit):\n    if n > limit:\n        raise BasisTooLarge(1, limit, n)\n"
        "def g(args):\n    if args.guard < 0:\n        raise InputError\n"
        "class C:\n    def m(self, size):\n        return size <= self.guard\n"
        "def h():\n    raise BasisTooLarge\n"
    )
    assert scopes(sample, raises_too_large) == ["f", "h"]
    assert scopes(sample, compares_with_the_limit) == ["f", "C.m"]
    sources = sorted(Path(fourfold.__file__).parent.glob("*.py"))
    for match in (raises_too_large, compares_with_the_limit):
        found = {path.name: scopes(path.read_text(), match) for path in sources}
        assert {name: where for name, where in found.items() if where} == {
            "sullivan.py": ["_guarded"]
        }
    gca = (Path(fourfold.__file__).parent / "gca.py").read_text()
    assert scopes(gca, lambda node: is_name(node, LIMITS | {"BasisTooLarge"})) == []
    assert scopes(gca, lambda node: isinstance(node, ast.arg) and node.arg in LIMITS) == []


def test_the_carry_reads_no_guard():
    # A step carries degrees it has already eliminated, so the guard bounds
    # only the bases _diff_data builds and build's degree-2 generators.
    source = (Path(fourfold.__file__).parent / "sullivan.py").read_text()
    for name in ("basis_count", "_guarded", "BasisTooLarge", "suppress"):
        assert "extend_stage" not in uses(source, name), name
    assert sorted(set(uses(source, "_guarded"))) == ["_diff_data", "build"]


def test_elimination_divides_only_in_its_final_normalization():
    # _reduce keeps every row integral; _eliminate divides each kept row by
    # its pivot once, after back-substitution, through exact.
    source = (Path(fourfold.__file__).parent / "linalg.py").read_text()
    for name in ("Fraction", "exact"):
        assert "_reduce" not in uses(source, name), name
    assert "_eliminate" in uses(source, "exact")
