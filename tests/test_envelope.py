"""perf/envelope.py, the rounding gate of the record totals: on a small
crest pair, a tree passes against its own reference, and totals raised by
100 ulps are reported above the one-ulp envelopes."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("envelope", ROOT / "perf" / "envelope.py")
envelope = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(envelope)


def test_a_tree_passes_against_its_own_reference_and_100_ulps_do_not():
    # a pair whose one-ulp envelopes are all below 50 ulps relative
    # (measured 16 to 18), the least relative move of a total raised 100
    # ulps
    workload = replace(envelope.WORKLOADS["pair_eps05"], n=128, epsilon=0.5, sigma=0.5 ** 1.5)
    ref = envelope.reference({"small": workload})
    envelopes = ref["small"]["envelopes"]
    eps = np.finfo(float).eps
    assert [t for t in envelope.TOTALS
            if not 0.0 < max(envelopes["re"][t], envelopes["im"][t]) < 50 * eps] == []
    totals = envelope.record_totals(workload)
    own = envelope.compare(ref, {"small": totals})
    assert [(t, move, within) for _, t, move, _, _, within in own] == [
        (t, 0.0, True) for t in envelope.TOTALS
    ]
    for t, values in totals.items():
        for _ in range(100):
            values = np.nextafter(values, np.inf)
        totals[t] = values.tolist()
    rows = envelope.compare(ref, {"small": totals})
    assert [(t, within) for _, t, _, _, _, within in rows] == [
        (t, False) for t in envelope.TOTALS
    ]


def test_largest_move_is_relative_and_refuses_another_record_count():
    assert envelope.largest_move([1.0, 2.5, 0.0], [1.0, 2.0, 0.0]) == 0.25
    assert envelope.largest_move([1e-300], [0.0]) == float("inf")
    with pytest.raises(ValueError, match="1 records against 2 in the reference"):
        envelope.largest_move([1.0], [1.0, 2.0])


def test_the_committed_reference_covers_both_pair_workloads():
    ref = json.loads(envelope.REFERENCE.read_text())
    assert sorted(ref["workloads"]) == sorted(envelope.WORKLOAD_NAMES)
    for name, entry in ref["workloads"].items():
        workload = envelope.WORKLOADS[name]
        for t in envelope.TOTALS:
            assert len(entry["totals"][t]) == workload.expected_records
            for bump in envelope.BUMPS:
                assert entry["envelopes"][bump][t] > 0.0
