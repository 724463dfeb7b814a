"""What ``import gptkit`` and each CLI subcommand load, and the public API
that the package namespace re-exports from its submodules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gptkit
from gptkit import bell, spaces

# Names ``gptkit`` exported when its __init__ imported everything eagerly,
# by home module; ``errors`` and ``geometry`` came along as submodules.
OLD_EXPORTS = {
    "bell": ["ProbTable222", "chsh", "classical_membership",
             "deterministic_tables", "expectation", "is_nonsignalling",
             "maximize_chsh_quantum", "pr_box", "quantum_table",
             "singlet_setup", "table_from_composite_state"],
    "composites": ["effect_cone_generators", "enumerate_vertices",
                   "max_tensor", "min_tensor", "product_state",
                   "reduced_state"],
    "distinguish": ["capacity", "perfectly_distinguishable"],
    "spaces": ["Effect", "LinearMap", "Measurement", "StateSpace",
               "are_equivalent", "contains_state", "is_effect", "is_pure",
               "is_reversible_transformation", "is_transformation",
               "make_ball", "make_classical", "make_gbit", "make_polytopic",
               "make_quantum"],
}
OLD_SUBMODULES = ["bell", "bloch", "composites", "distinguish", "errors",
                  "geometry", "interference", "lp", "spaces"]
OLD_NAMES = OLD_SUBMODULES + [n for names in OLD_EXPORTS.values() for n in names]
# Submodules the namespace has listed since: the one operator check.
SUBMODULES = OLD_SUBMODULES + ["operators"]
NAMES = OLD_NAMES + ["operators"]

# Runs the CLI as ``python -m gptkit.cli`` would, with the arguments given,
# and prints the gptkit submodules loaded by the end to stderr.  (``-X
# importtime`` would miss those loaded through the package __getattr__.)
# The command ends by os._exit, which runs no atexit hook, so the list is
# printed from a wrapper around it.
MODULES_PROBE = """
import os, runpy, sys
def exit_listing_modules(code, _exit=os._exit):
    print(*sorted(m for m in sys.modules if m.startswith("gptkit.")),
          file=sys.stderr, flush=True)
    _exit(code)
os._exit = exit_listing_modules
sys.argv[0] = "gptkit"
runpy.run_module("gptkit.cli", run_name="__main__")
"""


def _env():
    src = str(Path(gptkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _loaded(argv, cwd):
    res = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv],
                         capture_output=True, text=True, env=_env(), cwd=cwd)
    assert res.returncode == 0, res.stderr
    return {m.removeprefix("gptkit.") for m in res.stderr.split()}


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "table.json").write_text(bell.table_to_json(bell.pr_box()))
    (tmp_path / "gbit.json").write_text(spaces.space_to_json(spaces.make_gbit()))
    third = [[1 / 3, 0.0]] * 3
    unit = [[[1.0, 0.0] if i == j else [0, 0] for j in range(3)]
            for i in range(3)]
    (tmp_path / "exp.json").write_text(
        json.dumps({"M": 3, "rho": [third] * 3, "Q": unit}))
    return tmp_path


BELL_ONLY = {"spaces", "composites", "distinguish", "interference", "bloch"}


@pytest.mark.parametrize("argv, present, absent", [
    (["prbox"], "bell", BELL_ONLY),
    (["chsh", "--table", "table.json"], "bell", BELL_ONLY),
    (["tsirelson", "--iters", "5"], "bell", BELL_ONLY),
    (["sorkin", "--exp", "exp.json"], "interference", {"spaces", "bell"}),
    (["bloch", "--op", "roundtrip"], "bloch", {"spaces"}),
    (["compose", "--a", "gbit.json", "--b", "gbit.json", "--kind", "max"],
     "composites", {"distinguish", "bell", "interference", "bloch"}),
], ids=["prbox", "chsh", "tsirelson", "sorkin", "bloch", "compose"])
def test_subcommand_loads_only_its_modules(inputs, argv, present, absent):
    loaded = _loaded(argv, inputs)
    assert present in loaded
    assert not loaded & absent


def test_import_gptkit_loads_no_numpy():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, gptkit; print('numpy' in sys.modules, "
         "*sorted(m for m in sys.modules if m.startswith('gptkit.')))"],
        capture_output=True, text=True, env=_env(), check=True)
    assert res.stdout.split() == ["False"]


@pytest.mark.parametrize("home, name", [
    (home, name) for home, names in OLD_EXPORTS.items() for name in names])
def test_reexported_name_is_the_home_modules(home, name):
    module = importlib.import_module(f"gptkit.{home}")
    assert getattr(gptkit, name) is getattr(module, name)
    namespace = {}
    exec(f"from gptkit import {name}", namespace)
    assert namespace[name] is getattr(module, name)


def test_submodules_resolve():
    for name in SUBMODULES:
        assert getattr(gptkit, name) is importlib.import_module(f"gptkit.{name}")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves_in_a_fresh_interpreter(name):
    # there no other module has imported it yet, so dir() must list it and
    # the package's __getattr__ must resolve it
    res = subprocess.run(
        [sys.executable, "-c",
         f"import gptkit; print({name!r} in dir(gptkit), gptkit.{name}.__name__)"],
        capture_output=True, text=True, env=_env(), check=True)
    assert res.stdout.split() == ["True", f"gptkit.{name}"]


def test_namespace_lists_the_old_names():
    assert set(NAMES) <= set(dir(gptkit))
    namespace = {}
    exec("from gptkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gptkit.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from gptkit import no_such_name", {})
