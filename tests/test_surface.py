"""The public surface: what `crestwave` exports is documented and covers
what the benchmark reaches, and every function of the package is reached
from the package or the benchmark."""

import ast
import collections
import os
import pathlib
import re
import subprocess
import sys

import crestwave as cw

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_export_imports_and_is_documented():
    readme = (ROOT / "README.md").read_text()
    for name in cw.__all__:
        getattr(cw, name)
        assert f"`{name}`" in readme or f"crestwave.{name}`" in readme, name


def test_import_loads_only_numpy_and_the_standard_library():
    # numpy is the one dependency; scipy or hypothesis may be installed, so
    # a stray import of either would pass every other test.  A fresh
    # interpreter compares its modules before and after the import, since
    # start-up may load site packages of its own through .pth files
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import crestwave, crestwave.cli\n"
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    assert {"crestwave", "numpy"} <= added
    assert added - set(sys.stdlib_module_names) - {"numpy", "crestwave"} == set()


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


# functions no run, CLI command or benchmark workload reaches, kept anyway
UNREACHED_ALLOWED = {
    "commutator_bracket": "paper operator, certified by acceptance criterion 8",
    "hcal_apply": "paper operator, certified by acceptance criterion 8",
    "project": "paper operator (P_H, P_A), certified by acceptance criterion 8",
    "linf_norm": "paper norm, certified by acceptance criterion 8",
    "a1_route_gap": "A1 route-gap column a run's health report is to carry",
    "theta_route_gap": "Theta route-gap column a run's health report is to carry",
}


def _reads(node):
    """How often each name is read in node: as a name or an attribute."""
    reads = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
    return reads


def unreached_functions(package, readers):
    """(file name, function name) of every function, method and property
    defined under package whose name is read nowhere in package or readers
    outside its own definition."""
    trees = {path: ast.parse(path.read_text()) for d in (package, *readers)
             for path in sorted(d.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    return [
        (path.name, node.name)
        for path, tree in trees.items() if path.parent == package
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and reads[node.name] == _reads(node)[node.name]
    ]


def test_every_package_function_is_reached():
    unreached = unreached_functions(ROOT / "src" / "crestwave", [ROOT / "benchmarks"])
    left = [(path, name) for path, name in unreached if name not in UNREACHED_ALLOWED
            and not (name.startswith("__") and name.endswith("__"))]
    assert left == []
    # each allowed name is still defined and unreached, so the list stays current
    assert set(UNREACHED_ALLOWED) <= {name for _, name in unreached}


# the one numpy.fft name a module reads itself, for the grid's wavenumbers;
# every transform goes through the four entry points of spectral, which
# alone call numpy's pocketfft gufuncs, so tests/test_fft_rounds.py counts
# them all there
FFT_NAMES_ALLOWED = {"fftfreq"}
TRANSFORM_ENTRIES = {"_fft", "_ifft", "_rfft", "_irfft"}


def test_every_transform_goes_through_the_entry_points_of_spectral():
    package = ROOT / "src" / "crestwave"
    imports = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fft"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")
            ):
                assert node.attr in FFT_NAMES_ALLOWED, (path.name, node.attr)
            elif isinstance(node, ast.Import):
                imports += [(path.name, a.name, a.asname) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports += [(path.name, f"{node.module}.{a.name}", a.asname) for a in node.names]
    imports = [i for i in imports if i[1].startswith("numpy.fft")]
    assert imports == [("spectral.py", "numpy.fft._pocketfft_umath", "_pocketfft")]
    tree = ast.parse((package / "spectral.py").read_text())
    reads = {
        node.name: _reads(node)["_pocketfft"]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in TRANSFORM_ENTRIES
    }
    assert reads == dict.fromkeys(TRANSFORM_ENTRIES, 1)
    assert _reads(tree)["_pocketfft"] == len(TRANSFORM_ENTRIES)


# the fields of a state, whose rows in a step's stack evolution alone lays out
STATE_FIELDS = ("Zdev", "Zp", "Zt", "Z_ap", "Z_t", "Zbar_t")


def test_spectral_names_no_state_field_and_no_module_imports_its_transforms():
    # spectral holds grid operators only; and a transform imported by name
    # would be bound before tests/test_fft_rounds.py patches spectral's
    # attributes, so its calls would go uncounted
    text = (ROOT / "src" / "crestwave" / "spectral.py").read_text()
    assert re.findall(r"\b(?:%s)\b" % "|".join(STATE_FIELDS), text) == []
    imported = [
        (path.name, a.name)
        for d in ("src/crestwave", "benchmarks", "tests") for path in sorted((ROOT / d).glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "spectral"
        for a in node.names if a.name in TRANSFORM_ENTRIES
    ]
    assert imported == []


# each output format has one writer in cli.py: the CSV schema line is spelled
# once in the package, and only the two writers dump JSON or make the output
# directory (the checkpoint's json.dumps header is a format of its own)
WRITER_CALLS = [("cli.py", "_write_report", "json.dump"), ("cli.py", "write_csv", "os.makedirs")]


def test_each_output_format_has_one_writer():
    package = ROOT / "src" / "crestwave"
    texts = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert sum(text.count("crestwave-csv v1") for text in texts.values()) == 1
    assert "crestwave-csv v1" in texts["cli.py"]
    calls = [
        (name, func.name, ast.unparse(node.func))
        for name, text in texts.items()
        for func in ast.walk(ast.parse(text)) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.dump", "os.makedirs")
    ]
    assert sorted(calls) == WRITER_CALLS
    assert sum(text.count("json.dump(") + text.count("makedirs(") for text in texts.values()) == 2
