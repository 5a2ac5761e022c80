"""The public names: each layer's `__all__`, the package API the README
documents, and what the demos and the README import through the package.

bench/tracing.py builds its spans from the layers' `__all__`: a stale name
would crash a traced run, and a name re-exported from another module would
drop out of the trace without a word.  Demos and README code are parsed,
not run.
"""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import mbfem

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYERS = ("geometry", "discretization", "assembly", "stepper", "problems", "analysis", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_are_its_own(layer):
    mod = importlib.import_module(f"mbfem.{layer}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"mbfem.{layer}.__all__ names missing {name!r}"
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == mod.__name__, f"{name!r} is re-exported from {obj.__module__}"


def readme() -> str:
    return (ROOT / "README.md").read_text()


def test_package_exports_what_the_readme_lists():
    library = readme().split("## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for line in library.splitlines():
        if line.startswith("- `"):
            listed += re.findall(r"`(\w+)", line.split(" - ", 1)[0])
    assert sorted(listed) == sorted(mbfem.__all__)
    assert len(set(mbfem.__all__)) == len(mbfem.__all__) == 11


def package_imports(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "mbfem" and node.level == 0:
            yield from (alias.name for alias in node.names)


def sources() -> dict:
    """Each demo's and each README python block's text, by where it is."""
    found = {path.name: path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))}
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme(), re.S)):
        found[f"README python block {i}"] = block
    return found


SOURCES = sources()


def test_readme_has_python_blocks():
    assert any(where.startswith("README") for where in SOURCES)


@pytest.mark.parametrize("where", list(SOURCES))
def test_package_imports_are_exported(where):
    missing = [name for name in package_imports(SOURCES[where]) if name not in mbfem.__all__]
    assert not missing, f"{where} imports {missing} from mbfem"
