"""The public surface: what `crestwave` exports is documented and covers
what the benchmark reaches, and every function of the package is reached
from the package or the benchmark."""

import ast
import collections
import dataclasses
import os
import pathlib
import re
import subprocess
import sys

import numpy as np

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


def _function_reads(node, fields):
    """How often each function name is read in node, by the way a read can
    reach a function: ("name", x) a loaded name x, ("attr", x) any
    attribute x, and ("call", x) an attribute x that is no field name (an
    annotated class attribute) or is called, as grid.deriv(f) is and the
    field spec.dealias is not."""
    called = {id(sub.func) for sub in ast.walk(node) if isinstance(sub, ast.Call)}
    reads = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads["attr", sub.attr] += 1
            if sub.attr not in fields or id(sub) in called:
                reads["call", sub.attr] += 1
    return reads


def unreached_functions(package, readers):
    """(file name, function name) of every function, method and property
    defined under package, dunder methods aside, that nothing in package or
    readers reads outside its own definition and the definitions of the
    other unreached functions.  A property counts every attribute read of
    its name, a method the attribute reads that may be its own (not those
    of a same-named field), and a function those and the loaded names."""
    trees = {path: ast.parse(path.read_text()) for d in (package, *readers)
             for path in sorted(d.glob("*.py"))}
    fields = {
        stmt.target.id
        for tree in trees.values() for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    # (file name, definition, the definitions around it, the reads that reach it)
    defs, stack = [], [(tree, path.name, (), False) for path, tree in trees.items()
                       if path.parent == package]
    while stack:
        node, name, outer, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(ast.unparse(d).endswith("property") for d in child.decorator_list):
                    ways = (("attr", child.name),)
                elif in_class:
                    ways = (("call", child.name),)
                else:
                    ways = (("name", child.name), ("call", child.name))
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    defs.append((name, child, set(outer), ways))
                stack.append((child, name, (*outer, child), False))
            else:
                stack.append((child, name, outer, isinstance(child, ast.ClassDef)))
    total = sum((_function_reads(t, fields) for t in trees.values()), collections.Counter())
    inside = {node: _function_reads(node, fields) for _, node, _, _ in defs}
    outer_of = {node: outer for _, node, outer, _ in defs}
    unreached = set()
    while True:
        found = set()
        for _, node, _, ways in defs:
            if node in unreached:
                continue
            # the reads in the outermost of node and the unreached functions
            skipped = unreached | {node}
            skipped = [d for d in skipped if not outer_of[d] & skipped]
            if sum(total[w] - sum(inside[d][w] for d in skipped) for w in ways) == 0:
                found.add(node)
        if not found:
            return sorted((name, node.name) for name, node, _, _ in defs if node in unreached)
        unreached |= found


def test_every_package_function_is_reached():
    unreached = unreached_functions(ROOT / "src" / "crestwave", [ROOT / "benchmarks"])
    assert [(path, name) for path, name in unreached if name not in UNREACHED_ALLOWED] == []
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


def _functions_reading(path, names):
    """{top-level function of the file: its reads of names}, for the
    functions that read any of names."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            reads = {name: count for name, count in _reads(node).items() if name in names}
            if reads:
                out[node.name] = reads
    return out


def test_a_grid_keeps_its_nodes_and_wavenumbers_and_no_symbol():
    # each fixed symbol is defined once, as a row kind of spectral's symbol
    # tables; a grid keeps no symbol array of its own
    grid = cw.make_grid(64, 3.0, 0.5)
    arrays = {name for name, value in vars(grid).items() if isinstance(value, np.ndarray)}
    assert arrays == {"nodes", "k_int", "k"}
    assert not any(np.iscomplexobj(value) for value in vars(grid).values())


def test_only_the_finish_of_a_step_reads_the_transform_entries_in_evolution():
    # the derive's two rounds are multiply_symbol calls with a symbol table
    path = ROOT / "src" / "crestwave" / "evolution.py"
    assert _functions_reading(path, {"_fft", "_ifft"}) == {"_finish": {"_fft": 1, "_ifft": 1}}
    assert _functions_reading(path, {"multiply_symbol"}) == {"_derive": {"multiply_symbol": 2}}


def test_the_data_crest_keys_are_mapped_to_a_crest_spec_once():
    # cli._crest_spec maps the [data] crest keys, for a single run and for
    # every PairRunSpec; a CrestSpec built elsewhere outside initial_data.py
    # copies the fields of its own names, CrestSpec(**{f.name: getattr(x,
    # f.name) for f in fields(CrestSpec)})
    package = ROOT / "src" / "crestwave"
    mapped, copied = [], []
    for path in sorted(package.glob("*.py")):
        if path.name == "initial_data.py":
            continue
        for func in ast.parse(path.read_text()).body:
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "CrestSpec":
                    named = node.args or any(kw.arg is not None for kw in node.keywords)
                    (mapped if named else copied).append((path.name, func.name))
                    if not named:
                        (spread,) = node.keywords
                        assert "for f in fields(CrestSpec)" in ast.unparse(spread.value)
    assert mapped == [("cli.py", "_crest_spec")]
    assert copied == [("pair.py", "build_pair")]
    cli = package / "cli.py"
    assert _functions_reading(cli, {"vel_amp_re", "vel_amp_im"}) == {
        "_crest_spec": {"vel_amp_re": 1, "vel_amp_im": 1}
    }


def _memo_keys(tree):
    """The keys, as source text, of each use of a _memo attribute in tree: a
    subscript, a method call such as pop or get, or an `in` test; None for
    any other use."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    keys = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "_memo"):
            continue
        up = parents[node]
        key = None
        if isinstance(up, ast.Subscript) and up.value is node:
            key = ast.unparse(up.slice)
        elif isinstance(up, ast.Attribute) and isinstance(parents[up], ast.Call):
            key = ast.unparse(parents[up].args[0])
        elif isinstance(up, ast.Compare) and up.comparators == [node]:
            key = ast.unparse(up.left)
        keys.append(key)
    return keys


def test_each_kept_result_has_one_owner():
    # a state keeps its derived fields (evolution) and its energy blocks and
    # families (energies); a pair keeps htilde and its record pass in its
    # instance dict, and no module but evolution names the derived key
    package = ROOT / "src" / "crestwave"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    owners = {(name, key) for name, tree in trees.items() for key in _memo_keys(tree)}
    assert owners == {
        ("evolution.py", "'derived'"), ("evolution.py", "'min_abs_Zp'"),
        ("energies.py", "'energy_blocks'"), ("energies.py", "'energy_' + name"),
    }
    assert "_memo" not in {f.name for f in dataclasses.fields(cw.PairState)}
    naming = {
        name for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "derived"
    }
    assert naming == {"evolution.py"}


def test_every_import_is_read():
    # a name a module imports is read in it, or exported by __init__.py
    unused = []
    for path in sorted((ROOT / "src" / "crestwave").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [
            (a.asname or a.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for a in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(cw.__all__)
        unused += [(path.name, name) for name in imported if name not in read]
    assert unused == []
