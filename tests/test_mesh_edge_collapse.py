"""Tests for Algorithm 1 (edge-collapse decimation) and its edge queue."""

import numpy as np
import pytest

from repro.errors import DecimationError
from repro.mesh import TriangleMesh, decimate
from repro.mesh.generators import annulus, disk, structured_rectangle
from repro.mesh.metrics import decimation_ratio


def _islands(count: int) -> TriangleMesh:
    """``count`` disjoint disks: no collapse can join two of them."""
    parts = [disk(40, seed=i) for i in range(count)]
    vertices = np.concatenate(
        [p.vertices + [3.0 * i, 0.0] for i, p in enumerate(parts)]
    )
    offsets = np.cumsum([0] + [p.num_vertices for p in parts[:-1]])
    triangles = np.concatenate(
        [p.triangles + off for p, off in zip(parts, offsets)]
    )
    return TriangleMesh(vertices, triangles)


class TestEdgePriorityQueue:
    """The kernel's inline lazy-deletion edge heap, seen through decimate()."""

    def test_push_pop_order(self):
        # Initial edges pop in (priority, (u, v)) order; edges created by a
        # collapse are pushed last (huge priority) and merged endpoints'
        # edges pop stale, so the merges follow a greedy scan of that order.
        mesh = structured_rectangle(8, 8)
        n0 = mesh.num_vertices

        def prio(u, v):
            return float((u + v) // 3) if v < n0 else 1e9

        res = decimate(mesh, ratio=1.25, priority=prio, record_lineage=True)
        assert res.skipped == 0
        merged, expected = set(), []
        for u, v in sorted(map(tuple, mesh.edges.tolist()),
                           key=lambda e: (prio(*e), e)):
            if u not in merged and v not in merged:
                merged.update((u, v))
                expected.append((u, v))
        lin = res.lineage
        got = list(zip(lin.src_u.tolist(), lin.src_v.tolist()))
        assert got == expected[: res.collapses]
        assert set(lin.dst.tolist()) == set(range(n0, n0 + res.collapses))

    def test_pop_empty_raises(self):
        # A drained queue ends the pass: lenient returns, strict raises.
        mesh = _islands(4)
        res = decimate(mesh, ratio=1000.0)
        assert res.exhausted and res.mesh.num_vertices == 4
        assert res.queue_stats["live"] == res.queue_stats["heap_size"] == 0
        with pytest.raises(DecimationError, match="queue exhausted"):
            decimate(mesh, ratio=1000.0, strict=True)

    def test_update_priority(self):
        # A link-skipped edge is re-queued: its priority is asked for again.
        calls = []

        def prio(u, v):
            calls.append((u, v))
            return float((u * 7919 + v * 104729) % 211)

        res = decimate(disk(300, seed=11), ratio=2, priority=prio)
        assert res.skipped > 0
        assert len(calls) > len(set(calls))
        assert res.mesh.num_vertices == 150

    def test_discard(self):
        # Merging drops every edge of both endpoints from the queue, and
        # every surviving edge stays queued exactly once.
        res = decimate(disk(400, seed=7), ratio=2)
        assert res.skipped == 0
        assert res.queue_stats["live"] == res.mesh.num_edges

    def test_len_and_contains(self):
        # Every push is popped live (collapse or skip), popped stale, or
        # still in the heap.
        res = decimate(annulus(20, 60), ratio=3)
        stats = res.queue_stats
        assert stats["pushes"] == (
            res.collapses + res.skipped + stats["stale_pops"]
            + stats["heap_size"]
        )
        assert stats["heap_size"] >= stats["live"]

    def test_edge_key_canonical(self):
        # Popped edges are canonical (min, max) keys: u < v in every merge.
        res = decimate(disk(500, seed=2), ratio=4, record_lineage=True)
        assert np.all(res.lineage.src_u < res.lineage.src_v)

    def test_stats_track_stale(self):
        mesh = disk(300, seed=14)
        idle = decimate(mesh, ratio=1.0)
        assert idle.queue_stats["stale_pops"] == 0
        assert idle.queue_stats["heap_size"] == idle.queue_stats["pushes"]
        assert decimate(mesh, ratio=2).queue_stats["stale_pops"] > 0

    def test_init_from_items(self):
        # Every initial edge is queued, in mesh.edges order for a callable.
        mesh = disk(200, seed=3)
        calls = []

        def prio(u, v):
            calls.append((u, v))
            return float(u)

        idle = decimate(mesh, ratio=1.0, priority=prio)
        stats = idle.queue_stats
        assert stats["pushes"] == stats["live"] == mesh.num_edges
        assert calls == list(map(tuple, mesh.edges.tolist()))


class TestDecimation:
    def test_reaches_target_ratio(self):
        mesh = disk(1000, seed=0)
        res = decimate(mesh, ratio=2)
        assert res.mesh.num_vertices == 500
        assert res.achieved_ratio == pytest.approx(2.0)

    def test_ratio_four(self):
        mesh = disk(1000, seed=0)
        res = decimate(mesh, ratio=4)
        assert res.mesh.num_vertices == 250

    def test_collapses_equal_removed_vertices(self):
        mesh = disk(600, seed=1)
        res = decimate(mesh, ratio=2)
        assert res.collapses == mesh.num_vertices - res.mesh.num_vertices

    def test_field_decimated_alongside(self):
        mesh = disk(500, seed=2)
        field = mesh.vertices[:, 0] ** 2
        res = decimate(mesh, field, ratio=2)
        out = res.fields["data"]
        assert len(out) == res.mesh.num_vertices
        # Means preserved approximately: decimated values are local averages.
        assert abs(out.mean() - field.mean()) < 0.1 * max(1e-9, abs(field.mean()) + field.std())

    def test_field_range_never_expands(self):
        # NewData is a mean, so decimated values stay inside the original range.
        mesh = disk(800, seed=3)
        field = np.sin(mesh.vertices[:, 0] * 7)
        res = decimate(mesh, field, ratio=4)
        out = res.fields["data"]
        assert out.min() >= field.min() - 1e-12
        assert out.max() <= field.max() + 1e-12

    def test_multiple_fields(self):
        mesh = disk(300, seed=4)
        fields = {"a": mesh.vertices[:, 0], "b": mesh.vertices[:, 1]}
        res = decimate(mesh, fields, ratio=2)
        assert set(res.fields) == {"a", "b"}
        assert all(len(v) == res.mesh.num_vertices for v in res.fields.values())

    def test_field_length_mismatch_raises(self):
        mesh = disk(100, seed=5)
        with pytest.raises(DecimationError):
            decimate(mesh, np.zeros(7), ratio=2)

    def test_bad_ratio_raises(self):
        mesh = disk(100, seed=5)
        with pytest.raises(DecimationError):
            decimate(mesh, ratio=0.5)

    def test_ratio_one_is_identity_size(self):
        mesh = disk(100, seed=6)
        res = decimate(mesh, ratio=1.0)
        assert res.mesh.num_vertices == mesh.num_vertices
        assert res.collapses == 0

    def test_output_mesh_valid(self):
        mesh = annulus(20, 60)
        res = decimate(mesh, ratio=2)
        out = res.mesh
        # Re-validate topology through the strict constructor.
        TriangleMesh(out.vertices, out.triangles, validate=True)
        assert (out.triangle_areas() > 0).all()

    def test_no_dangling_vertices(self):
        mesh = disk(400, seed=7)
        res = decimate(mesh, ratio=2)
        used = np.unique(res.mesh.triangles.ravel())
        assert len(used) == res.mesh.num_vertices

    def test_area_roughly_preserved(self):
        mesh = disk(2000, seed=8)
        res = decimate(mesh, ratio=2)
        assert res.mesh.total_area() == pytest.approx(mesh.total_area(), rel=0.1)

    def test_progressive_chain(self):
        """Repeated 2x decimation matches a paper-style level progression."""
        mesh = disk(1600, seed=9)
        field = np.cos(mesh.vertices[:, 0] * 5)
        meshes = [mesh]
        for _ in range(3):
            res = decimate(meshes[-1], field, ratio=2)
            field = res.fields["data"]
            meshes.append(res.mesh)
        for lvl in range(1, 4):
            d = decimation_ratio(meshes[0], meshes[lvl])
            assert d == pytest.approx(2.0**lvl, rel=0.02)

    def test_data_aware_priority(self):
        mesh = disk(500, seed=10)
        # Sharp front at x=0.
        field = np.tanh(mesh.vertices[:, 0] * 50)
        res = decimate(mesh, field, ratio=2, priority="data_aware")
        assert res.mesh.num_vertices == 250

    def test_callable_priority(self):
        mesh = disk(300, seed=11)
        calls = []

        def prio(u, v):
            calls.append((u, v))
            return float(u + v)

        res = decimate(mesh, ratio=2, priority=prio)
        assert res.mesh.num_vertices == 150
        assert calls

    def test_unknown_priority_name(self):
        mesh = disk(50, seed=12)
        with pytest.raises(DecimationError):
            decimate(mesh, ratio=2, priority="nope")

    def test_structured_mesh_decimation(self):
        mesh = structured_rectangle(30, 30)
        res = decimate(mesh, ratio=2)
        assert res.mesh.num_vertices == 450

    def test_annulus_keeps_some_hole(self):
        """Decimating an annulus should not collapse its topology to a disk."""
        mesh = annulus(30, 90)
        res = decimate(mesh, ratio=2)
        assert res.mesh.euler_characteristic() <= 1

    def test_high_ratio(self):
        mesh = disk(4096, seed=13)
        res = decimate(mesh, ratio=32)
        assert res.mesh.num_vertices == 128

    def test_queue_stats_exposed(self):
        mesh = disk(200, seed=14)
        res = decimate(mesh, ratio=2)
        assert res.queue_stats["pushes"] > 0

    def test_endpoint_placement_subsets_vertices(self):
        """Endpoint placement keeps coarse vertices at original sample
        positions with original values."""
        mesh = disk(400, seed=15)
        field = np.sin(5 * mesh.vertices[:, 0])
        res = decimate(mesh, field, ratio=2, placement="endpoint")
        # Every coarse vertex coincides with some fine vertex...
        from scipy.spatial import cKDTree

        d, idx = cKDTree(mesh.vertices).query(res.mesh.vertices)
        assert d.max() < 1e-12
        # ...and carries that vertex's exact value.
        assert np.allclose(res.fields["data"], field[idx], atol=1e-12)

    def test_collector_state_restored(self):
        import gc

        mesh = disk(100, seed=17)
        assert gc.isenabled()
        decimate(mesh, ratio=2)
        assert gc.isenabled()
        gc.disable()
        try:
            decimate(mesh, ratio=2)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_concurrent_passes_leave_collector_on(self):
        import gc
        import sys
        import threading

        mesh = disk(150, seed=18)
        want = decimate(mesh, ratio=2).mesh.triangles
        results, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: results.extend(
                    decimate(mesh, ratio=2).mesh.triangles for _ in range(5)
                ))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert gc.isenabled()
        assert len(results) == 30
        assert all(np.array_equal(r, want) for r in results)

    def test_unknown_placement(self):
        mesh = disk(50, seed=16)
        with pytest.raises(DecimationError):
            decimate(mesh, ratio=2, placement="centroid")
