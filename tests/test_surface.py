"""The public surface: what `crestwave` exports is documented and covers
what the benchmark reaches."""

import ast
import pathlib

import crestwave as cw

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_export_imports_and_is_documented():
    readme = (ROOT / "README.md").read_text()
    for name in cw.__all__:
        getattr(cw, name)
        assert f"`{name}`" in readme or f"crestwave.{name}`" in readme, name


def test_benchmark_names_are_exported():
    used = set()
    for path in (ROOT / "benchmarks").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cw"
            ):
                used.add(node.attr)
    assert {
        "make_grid", "make_state", "PairRunSpec", "StepperConfig", "cfl_bound", "co_step",
        "compute_derived", "energy_delta", "energy_sigma", "f_delta_norm", "step_rk4",
        "load_checkpoint", "save_checkpoint", "CrestwaveError", "HolomorphicityError", "pair",
    } <= used
    assert used <= set(cw.__all__), sorted(used - set(cw.__all__))


def test_star_import_binds_every_export_once():
    # a name deleted from a module but left in __all__ fails the star import
    assert len(cw.__all__) == len(set(cw.__all__))
    namespace = {}
    exec("from crestwave import *", namespace)
    assert {name: namespace[name] for name in cw.__all__} == {
        name: getattr(cw, name) for name in cw.__all__
    }
