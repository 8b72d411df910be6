"""Every name a fourfold module exports exists, and the package root exports
exactly the four calls of the README's Library example."""

import importlib
import pkgutil

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
