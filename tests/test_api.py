"""The public names: each layer's `__all__`, the package API the README
documents, what the demos and the README import from the package and its
layers, and the names bench/tracing.py patches.

bench/tracing.py builds its spans from the layers' `__all__`: a stale name
would crash a traced run, and a name re-exported from another module would
drop out of the trace without a word.  Demos and README code are parsed,
the quick demos and the README python blocks also run in child
processes, and one cell of the condensation crossover demo is timed.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
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


def readme_section(title: str) -> str:
    return readme().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_package_exports_what_the_readme_lists():
    library = readme_section("Library")
    listed = []
    for line in library.splitlines():
        if line.startswith("- `"):
            listed += re.findall(r"`(\w+)", line.split(" - ", 1)[0])
    assert sorted(listed) == sorted(mbfem.__all__)
    assert len(set(mbfem.__all__)) == len(mbfem.__all__) == 11


def test_readme_signatures_are_the_exports_signatures():
    # a Library bullet `name(params)` must list the export's parameters in
    # order, so a stale signature fails here instead of reaching users
    documented = {}
    for line in readme_section("Library").splitlines():
        if line.startswith("- `"):
            for name, params in re.findall(r"`(\w+)\((.*?)\)`", line.split(" - ", 1)[0]):
                documented[name] = [p.split("=")[0].strip() for p in params.split(",") if p.strip()]
    assert len(documented) == 9
    for name, params in documented.items():
        assert params == list(inspect.signature(getattr(mbfem, name)).parameters), name


def test_readme_documents_every_config_key():
    # a key the parser accepts but no README line names is a knob no one can find
    from mbfem import cli

    problem_keys = cli._PROBLEM_KEYS.union(*cli._MOTION_KEYS.values(), {"diffusion1", "initial1", "forcing1"})
    missing = [
        (section, key)
        for section, keys in (("Command line", cli._RUN_KEYS), ("Problem files", problem_keys))
        for key in sorted(keys)
        if not re.search(rf"(?<!\w){key}=", readme_section(section))
    ]
    assert not missing


def imports_from(source: str, module: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == module and node.level == 0:
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
    missing = [name for name in imports_from(SOURCES[where], "mbfem") if name not in mbfem.__all__]
    assert not missing, f"{where} imports {missing} from mbfem"


@pytest.mark.parametrize("where", list(SOURCES))
def test_layer_imports_exist(where):
    for layer in LAYERS:
        mod = importlib.import_module(f"mbfem.{layer}")
        missing = [name for name in imports_from(SOURCES[where], f"mbfem.{layer}") if not hasattr(mod, name)]
        assert not missing, f"{where} imports {missing} from mbfem.{layer}"


def run_in_child(tmp_path, args):
    """`python <args>` in a child process that imports the same mbfem as
    this process, with its temporary files in tmp_path."""
    src = os.path.dirname(os.path.dirname(mbfem.__file__))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "TMPDIR": str(tmp_path),
    }
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )


# convergence_orders.py takes about 20 s and stays out
QUICK_DEMOS = ["custom_problem_cli.py", "expanding_benchmark.py", "spline_decay.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_quick_demo_runs(tmp_path, demo):
    proc = run_in_child(tmp_path, [str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("where", [where for where in SOURCES if where.startswith("README")])
def test_readme_python_block_runs(tmp_path, where):
    proc = run_in_child(tmp_path, ["-c", SOURCES[where]])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_condensation_crossover_times_a_cell_on_both_paths():
    # the full table takes minutes, so only one small cell is timed here,
    # through the demo's own helpers, to keep them in step with StepKernel
    spec = importlib.util.spec_from_file_location("condensation_crossover", ROOT / "demos" / "condensation_crossover.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    banded, condensed = demo.cell(2, 32, 2, np.random.default_rng(0), repeats=1)
    assert 0.0 < banded < math.inf and 0.0 < condensed < math.inf


def load_bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def mbfem_bindings() -> dict:
    """Every name bound in an mbfem module, and every method of its classes."""
    layers = {name: importlib.import_module(f"mbfem.{name}") for name in LAYERS}
    found = {}
    for modname, mod in [("mbfem", mbfem), *layers.items()]:
        for name, value in vars(mod).items():
            found[(modname, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("mbfem"):
                found.update({(modname, name, attr): v for attr, v in vars(value).items()})
    return found


def test_bench_instrumentation_installs_and_undoes():
    # the bench patches these names on the current sources; a deleted one
    # would fail only when the benchmark runs
    tracing = load_bench_tracing()
    layers = {name: importlib.import_module(f"mbfem.{name}") for name in LAYERS}
    for name in ("initialize", "advance", "bootstrap_first_step"):
        assert callable(getattr(layers["stepper"], name))
    assert callable(layers["analysis"].build_space)
    for layer, classes in tracing.METHODS.items():
        for cls, methods in classes.items():
            for meth in methods:
                assert callable(getattr(getattr(layers[layer], cls), meth)), f"{layer}.{cls}.{meth}"
    for layer, names in tracing.EXTRA_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(layers[layer], name)), f"{layer}.{name}"

    before = mbfem_bindings()

    def rebound():
        after = mbfem_bindings()
        assert after.keys() == before.keys()
        return [key for key, value in after.items() if value is not before[key]]

    for instrument in (tracing.StepTimer(), tracing.Tracer()):
        patches = tracing.Patches()
        try:
            instrument.install(patches, mbfem)
            assert rebound()
        finally:
            patches.undo()
        assert rebound() == []
