"""perf/gate.py, the gate of a change's numbers, on a small crest pair: the
hash of a run repeats and moves with one ulp of Re Z_t, hashing leaves the
record totals as they are, a tree passes the rounding gate against its own
reference and totals raised by 100 ulps do not; and the benchmark's record
calls are written once in perf/, in gate.record."""

import ast
import hashlib
import importlib.util
import json
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crestwave.evolution import StepperConfig, cfl_bound
from crestwave.pair import PairRunSpec, build_pair, init_pair

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("gate", ROOT / "perf" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _small_run():
    """A small crest pair, its config and a dt below its CFL bound."""
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.5, velocity_amplitude=0.05j,
                                  n_points=64))
    return pair, StepperConfig(), 0.3 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))


def _digest(pair, cfg, dt):
    """The digest of three co_steps of pair, recorded every second step."""
    h = hashlib.sha256()
    gate.pair_run(h, pair, cfg, dt, 3, 2)
    return h.hexdigest()


def test_pair_run_digest_repeats_and_moves_with_one_ulp_of_re_z_t():
    pair, cfg, dt = _small_run()
    digest = _digest(pair, cfg, dt)
    # the second run reads the fields the first kept on the initial pair
    assert _digest(pair, cfg, dt) == digest
    a = pair.state_a
    Zt = a.Zt.copy()
    Zt.real = np.nextafter(Zt.real, np.inf)
    assert _digest(init_pair(replace(a, Zt=Zt), pair.state_b), cfg, dt) != digest


def test_pair_run_totals_are_the_same_hashed_or_not():
    # the digest run of the gate gives the totals the rounding gate compares
    pair, cfg, dt = _small_run()
    hashed = gate.pair_run(hashlib.sha256(), pair, cfg, dt, 3, 2)
    assert list(hashed) == list(gate.TOTALS)
    assert [len(values) for values in hashed.values()] == [3, 3, 3]
    pair, cfg, dt = _small_run()
    assert gate.pair_run(None, pair, cfg, dt, 3, 2) == hashed


def test_a_tree_passes_against_its_own_reference_and_100_ulps_do_not():
    # a pair whose one-ulp envelopes are all below 50 ulps relative
    # (measured 16 to 18), the least relative move of a total raised 100
    # ulps
    workload = replace(gate.WORKLOADS["pair_eps05"], n=128, epsilon=0.5, sigma=0.5 ** 1.5)
    ref = gate.reference({"small": workload})
    envelopes = ref["small"]["envelopes"]
    eps = np.finfo(float).eps
    assert [t for t in gate.TOTALS
            if not 0.0 < max(envelopes["re"][t], envelopes["im"][t]) < 50 * eps] == []
    totals = gate.record_totals(workload)
    own = gate.compare(ref, {"small": totals})
    assert [(t, move, within) for _, t, move, _, _, within in own] == [
        (t, 0.0, True) for t in gate.TOTALS
    ]
    for t, values in totals.items():
        for _ in range(100):
            values = np.nextafter(values, np.inf)
        totals[t] = values.tolist()
    rows = gate.compare(ref, {"small": totals})
    assert [(t, within) for _, t, _, _, _, within in rows] == [
        (t, False) for t in gate.TOTALS
    ]


def test_largest_move_is_relative_and_refuses_another_record_count():
    assert gate.largest_move([1.0, 2.5, 0.0], [1.0, 2.0, 0.0]) == 0.25
    assert gate.largest_move([1e-300], [0.0]) == float("inf")
    with pytest.raises(ValueError, match="1 records against 2 in the reference"):
        gate.largest_move([1.0], [1.0, 2.0])


def test_the_committed_reference_covers_both_pair_workloads():
    ref = json.loads(gate.REFERENCE.read_text())
    assert sorted(ref["workloads"]) == sorted(gate.PAIR_WORKLOADS) == [
        "pair_eps05", "pair_record_n2048"
    ]
    for name, entry in ref["workloads"].items():
        workload = gate.WORKLOADS[name]
        for t in gate.TOTALS:
            assert len(entry["totals"][t]) == workload.expected_records
            for bump in gate.BUMPS:
                assert entry["envelopes"][bump][t] > 0.0


@pytest.mark.parametrize("key, value", [("numpy", "1.26.4"), ("machine", "arm64")])
def test_a_reference_of_another_numpy_or_machine_exits_2(tmp_path, monkeypatch, capsys, key,
                                                          value):
    # the envelopes hold for the numpy and the machine that wrote them; the
    # digests, which need no reference, are still printed
    here = {"numpy": np.__version__, "machine": platform.machine()}
    path = tmp_path / "envelope_reference.json"
    path.write_text(json.dumps({**json.loads(gate.REFERENCE.read_text()), **here, key: value}))
    monkeypatch.setattr(gate, "REFERENCE", path)
    monkeypatch.setattr(gate, "workload_digests", lambda: ({"all": "0" * 64}, {}))
    assert gate.main([]) == 2
    out, err = capsys.readouterr()
    assert out == "0" * 64 + "  all\n"
    assert err == (f"the envelopes of envelope_reference.json do not apply: "
                   f"{key} {value} in the reference, {here[key]} here\n")


@pytest.mark.parametrize("argv", [["--write", "ref.json"], ["--label", "abc1234"]],
                         ids=["write-alone", "label-alone"])
def test_write_and_label_only_go_together(tmp_path, monkeypatch, capsys, argv):
    # a reference without the commit it is of would print as "reference  (numpy ...)"
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        gate.main(argv)
    assert exit_.value.code == 2
    assert "--write FILE and --label COMMIT go together" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


ENERGIES = ("energy_delta", "f_delta_norm", "energy_sigma")


def _reads(node, names):
    """The reads of names in node, as names or attributes, in source
    order."""
    reads = [(n.lineno, n.col_offset, n.id if isinstance(n, ast.Name) else n.attr)
             for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
    return [name for _, _, name in sorted(reads) if name in names]


def _function(tree, name):
    (func,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
    return func


def test_only_gate_record_makes_the_record_calls_in_perf():
    # the benchmark's record calls are written once in perf/, in gate.record,
    # which the gate's runs and layer_split's record table call, and in the
    # order of the benchmark's own record
    perf = ROOT / "perf"
    record = _function(ast.parse((perf / "gate.py").read_text()), "record")
    readers = {path.name: _reads(ast.parse(path.read_text()), ENERGIES)
               for path in sorted(perf.glob("*.py"))}
    assert {name: reads for name, reads in readers.items() if reads} == {
        "gate.py": _reads(record, ENERGIES)
    }
    calls = ("compute_derived", *ENERGIES)
    workloads = ast.parse((ROOT / "benchmarks" / "workloads.py").read_text())
    assert _reads(record, calls) == _reads(_function(workloads, "record"), calls) == [
        "compute_derived", "compute_derived", "energy_delta", "f_delta_norm", "energy_sigma"
    ]
