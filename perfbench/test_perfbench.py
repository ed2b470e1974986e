"""The benchmark's own test, at reduced size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

It shows that every workload runs to its end with no failed operation,
that every correctness check rejects an output perturbed beyond its
bound, that the traced pass splits work between layers as designed, and
that the command refuses to run where there is no program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import common

common.bootstrap()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.api import Session, get_restored_cache  # noqa: E402

SIZE = workloads.SMALL


def _run(name: str, tmp_path, tracer=None):
    workload = workloads.WORKLOADS[name](7, SIZE, tmp_path / name)
    workload.setup(0)
    return workload, workload.run_pass(0.5, tracer, min_ops=3)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A small cold_analysis workload with its dataset written."""
    workload = workloads.ColdAnalysis(7, SIZE, tmp_path_factory.mktemp("cold"))
    workload.setup(0)
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_without_failures(name, tmp_path):
    _, result = _run(name, tmp_path)
    assert result.ops and result.rounds >= 1
    assert [op.reason for op in result.ops if op.failed] == []
    assert sum(result.round_walls) > 0 and result.sim_s > 0
    assert result.io_bytes > 0 and result.field_bytes > 0
    assert 0 < result.errors.nrmse < SIZE.levels * SIZE.rel_tol


def test_traced_pass_splits_work_between_layers(tmp_path):
    spans = {}
    for name in sorted(workloads.WORKLOADS):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _run(name, tmp_path, tracer)
        finally:
            tracer.uninstall()
        assert tracer.unmeasured == []
        spans[name] = tracer
    for name, tracer in spans.items():
        writes = tracer.calls("mesh.decimate") + tracer.calls("compress.encode")
        assert (writes > 0) == (name == "ingest"), name
        assert (tracer.calls("service.node") > 0) == (name == "service_mix"), name
        assert (tracer.calls("compress.decode") > 0) == (name != "ingest"), name


def test_wrappers_reach_names_bound_by_from_import():
    import repro.core.decoder as decoder
    import repro.core.delta as delta

    original = delta.apply_delta
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert decoder.apply_delta is delta.apply_delta
        assert decoder.apply_delta is not original
    finally:
        tracer.uninstall()
    assert decoder.apply_delta is original and delta.apply_delta is original


def test_error_bound_rejects_perturbed_field(cold):
    with Session(cold.h, workers=2) as session:
        field = session.open("analysis").restore("dpot", level=0).field
    raw, bound = cold.fields["dpot"], cold.bounds["dpot"]
    assert checks.error_bound(field, raw, bound) is None
    bad = field.copy()
    bad[0, 3] += 2 * bound
    assert checks.error_bound(bad, raw, bound)


def test_region_check_rejects_perturbed_region(cold):
    with Session(cold.h, workers=2) as session:
        full = session.open("analysis").restore("dpot", level=0).field
    mask = np.zeros(full.shape[-1], dtype=bool)
    mask[:50] = True
    assert checks.region_equal(full.copy(), full, mask) is None
    bad = full.copy()
    bad[0, 10] = np.nextafter(bad[0, 10], np.inf)
    assert checks.region_equal(bad, full, mask)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "restore(level=0, region=box) reads only the chunks that intersect the "
    "box at every level, so in-box vertices whose coarse parents lie in "
    "other chunks keep estimates; see FOUND in CHANGES.md"))
def test_region_restore_equals_full_restore_on_region(cold):
    vertices = cold.mesh.vertices
    rng = np.random.default_rng(3)
    with Session(cold.h, workers=2) as session:
        handle = session.open("analysis")
        full = handle.restore("dpot", level=0).field
        for _ in range(10):
            box = workloads._box(vertices, rng, 0.2)
            region = handle.restore("dpot", level=0, region=box).field
            assert checks.region_equal(region, full,
                                       workloads._in_box(vertices, box)) is None


def test_level_sizes_rejects_perturbed_counts(cold):
    counts = cold.counts["dpot"]
    assert checks.level_sizes(counts) is None
    assert checks.level_sizes(counts[:-1] + [int(counts[-1] * 1.2)])


def test_tolerance_stop_rejects_other_level(cold):
    ladder = cold.ladders["dpot"]
    h = workloads._hierarchy(cold.root)
    want = workloads._stop_level(h, "analysis", "dpot", ladder[-1])
    with Session(h, workers=2) as session:
        got = session.open("analysis").restore("dpot", tolerance=ladder[-1]).level
    assert checks.tolerance_stop(got, want) is None
    assert checks.tolerance_stop(got + 1, want)


def test_stats_check_rejects_perturbed_stats(cold):
    raw, bound = cold.fields["dpot"], cold.bounds["dpot"]
    box = cold.plans[0]["stats_box"]
    mask = workloads._in_box(cold.mesh.vertices, box)
    with Session(cold.h, workers=2) as session:
        handle = session.open("analysis")
        whole = handle.query_stats("dpot")
        windowed = handle.query_stats("dpot", region=box)
    assert checks.stats_match(whole, raw, None, bound) is None
    assert checks.stats_match(windowed, raw, mask, bound) is None
    bad = json.loads(json.dumps(whole))
    bad["stats"]["mean"] += 2 * bound
    assert checks.stats_match(bad, raw, None, bound)
    bad = json.loads(json.dumps(windowed))
    bad["stats"]["vmax"] = float(raw[..., mask].max()) - 2 * bound
    assert checks.stats_match(bad, raw, mask, bound)


def test_blob_screen_rejects_perturbed_answers(cold):
    raw, bound = cold.fields["dpot"][0], cold.bounds["dpot"]
    low, high = 0.5 * raw.max(), 1.1 * raw.max()
    with Session(cold.h, workers=2) as session:
        handle = session.open("analysis")
        found = handle.query_blobs("dpot", threshold=low)
        none = handle.query_blobs("dpot", threshold=high)
    assert checks.blob_screen(found, raw, low, bound) is None
    assert checks.blob_screen(none, raw, high, bound) is None
    assert found["count"] > 0 and none["count"] == 0
    assert checks.blob_screen({**found, "count": 0, "blobs": []}, raw, low, bound)
    assert checks.blob_screen({**none, "count": 1, "blobs": [{}]}, raw, high, bound)


def test_payload_check_rejects_changed_payload():
    a = np.linspace(0.0, 1.0, 11)
    b = a.copy()
    b[4] = np.nextafter(b[4], 2.0)
    assert checks.payload_identical(a.copy(), a) is None
    assert checks.payload_identical(b, a)
    assert checks.payload_identical(a.astype(np.float32), a)
    assert checks.payload_identical({"plan": 1}, {"plan": 2})


def test_command_refuses_without_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def teardown_module():
    get_restored_cache().clear()
