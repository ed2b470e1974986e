"""The serial edge-collapse kernel reproduces its committed golden digests.

``tests/data/collapse_golden.json`` records, per case and per level, the
digests of the output mesh, fields and lineage arrays plus the collapse
and queue counts (see ``tests/data/make_collapse_golden.py``). Any change
to the collapse sequence — merge order, triangle order, tie-breaking,
skip handling, queue bookkeeping — changes a digest here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_DATA = Path(__file__).with_name("data")
_spec = importlib.util.spec_from_file_location(
    "make_collapse_golden", _DATA / "make_collapse_golden.py"
)
golden_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_gen)

GOLDEN = json.loads((_DATA / "collapse_golden.json").read_text())
CASES = golden_gen.cases()


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(case["name"] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_serial_kernel_matches_golden(case):
    assert golden_gen.run_case(case) == GOLDEN[case["name"]]


def test_matrix_exercises_skips_exhaustion_and_strict_raise():
    levels = [lvl for runs in GOLDEN.values() for lvl in runs]
    assert any(lvl.get("skipped", 0) > 0 for lvl in levels)
    assert GOLDEN["islands-exhaust-lenient"][0]["exhausted"]
    assert "queue exhausted" in GOLDEN["islands-exhaust-strict"][0]["error"]
    assert any(lvl.get("queue_stats", {}).get("stale_pops", 0) > 0
               for lvl in levels)
