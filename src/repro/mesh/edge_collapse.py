"""Mesh decimation by shortest-edge collapse (paper Algorithm 1).

The paper decimates level *l* into level *l+1* by repeatedly collapsing
the shortest edge: the edge's endpoints are removed, a new vertex is
placed at their midpoint (``NewVertex(Vi, Vj) = (Vi + Vj)/2``), the data
value at the new vertex is the mean of the endpoint values
(``NewData(Li, Lj)``), and new edges connecting the merged vertex to the
old neighborhoods are (re)inserted into the priority queue. Collapsing
stops once the requested decimation ratio ``d = |V^l| / |V^{l+1}|`` is
reached.

This implementation adds two standard robustness guards that the paper's
pseudocode leaves implicit:

* the *link condition* — an interior edge is collapsible only when its
  endpoints share exactly the two opposite vertices of its incident
  triangles (a boundary edge: exactly one). Violations would create
  non-manifold fins; such edges are retried later with an inflated
  priority rather than corrupting the mesh.
* duplicate-triangle suppression after index remapping.

The queue is a lazy-deletion binary heap owned by the loop, giving the
O(log N) insert the paper cites as the dominant cost. Priorities are
computed in vectorized batches: all initial edges at once, then each
collapse's new edges at once.

Decimation is local (no cross-rank communication), matching the paper's
observation that refactoring is embarrassingly parallel; see
:mod:`repro.perfmodel` for how per-core cost is scaled to job sizes.
"""

from __future__ import annotations

import gc
import heapq
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.errors import DecimationError
from repro.mesh.lineage import CollapseLineage
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace

__all__ = ["decimate", "DecimationResult", "KERNELS"]

#: Registered decimation kernels (see also :mod:`repro.mesh.batch_collapse`).
KERNELS = ("serial", "batched")

# An edge skipped this many times for link-condition violations is dropped
# permanently; its neighborhood is evidently stuck non-manifold.
_MAX_SKIPS = 8
# Multiplier applied to a skipped edge's priority so it is retried after
# its neighborhood has had a chance to change.
_SKIP_PENALTY = 1.5

PriorityFn = Callable[[int, int], float]

_GC_LOCK = threading.Lock()


@dataclass
class DecimationResult:
    """Outcome of one decimation pass (level l → level l+1).

    Attributes
    ----------
    mesh:
        The decimated, compacted mesh.
    fields:
        Decimated per-vertex fields, aligned with ``mesh.vertices``.
    achieved_ratio:
        ``|V^l| / |V^{l+1}|`` actually reached.
    collapses:
        Number of edge collapses performed (== vertices removed).
    skipped:
        Number of pops rejected by the link condition.
    exhausted:
        True when the queue ran dry before the target ratio was reached.
    lineage:
        The replayable collapse record (present when the pass ran with
        ``record_lineage=True``); see
        :class:`~repro.mesh.lineage.CollapseLineage`.
    """

    mesh: TriangleMesh
    fields: dict[str, np.ndarray]
    achieved_ratio: float
    collapses: int
    skipped: int
    exhausted: bool = False
    queue_stats: dict[str, int] = field(default_factory=dict)
    lineage: CollapseLineage | None = None


def decimate(
    mesh: TriangleMesh,
    fields: Mapping[str, np.ndarray] | np.ndarray | None = None,
    ratio: float = 2.0,
    *,
    priority: str | PriorityFn = "length",
    placement: str = "midpoint",
    strict: bool = False,
    method: str = "serial",
    record_lineage: bool = False,
) -> DecimationResult:
    """Decimate ``mesh`` by edge collapse until ``|V'| <= |V| / ratio``.

    Parameters
    ----------
    mesh:
        Input level-*l* mesh.
    fields:
        Per-vertex data: a single array, a name→array mapping, or None.
    ratio:
        Target decimation ratio between this level and the next,
        ``d = |V^l| / |V^{l+1}|`` (the paper uses 2 per step).
    priority:
        ``"length"`` (paper default), ``"data_aware"``, or a callable
        ``(u, v) -> float``.
    placement:
        Where the merged vertex goes: ``"midpoint"`` (the paper's
        ``NewVertex = (Vi + Vj)/2``) or ``"endpoint"`` — keep the first
        endpoint's position and value, so the coarse vertex set is a
        strict subset of the fine one (useful when downstream tools
        require original sample locations).
    strict:
        When true, raise :class:`DecimationError` if the queue is
        exhausted before the target ratio; otherwise return what was
        achieved with ``exhausted=True``.
    method:
        ``"serial"`` — Algorithm 1's heap loop (this function);
        ``"batched"`` — the round-based vectorized kernel
        (:func:`repro.mesh.batch_collapse.decimate_batched`).
    record_lineage:
        When true, the result carries a
        :class:`~repro.mesh.lineage.CollapseLineage` that replays the
        collapse sequence on new fields bit-identically.

    Notes
    -----
    Vertex/field arrays in the result are compacted (indices renumbered);
    the mapping from fine to coarse is *positional* and recovered later by
    point location (see :mod:`repro.core.mapping`), exactly as the paper
    stores the vertex→triangle mapping in ADIOS metadata.
    """
    if method not in KERNELS:
        raise DecimationError(
            f"unknown decimation method {method!r}; expected one of {KERNELS}"
        )
    if method == "batched":
        from repro.mesh.batch_collapse import decimate_batched

        return decimate_batched(
            mesh, fields, ratio, priority=priority, placement=placement,
            strict=strict, record_lineage=record_lineage,
        )
    if ratio < 1.0:
        raise DecimationError(f"decimation ratio must be >= 1, got {ratio}")
    if placement not in ("midpoint", "endpoint"):
        raise DecimationError(f"unknown placement {placement!r}")
    if isinstance(fields, np.ndarray):
        field_map: dict[str, np.ndarray] = {"data": fields}
    elif fields is None:
        field_map = {}
    else:
        field_map = dict(fields)
    for name, arr in field_map.items():
        if len(arr) != mesh.num_vertices:
            raise DecimationError(
                f"field {name!r} has {len(arr)} values for "
                f"{mesh.num_vertices} vertices"
            )

    with _gc_paused():
        return _collapse_serial(
            mesh, field_map, ratio, priority, placement, strict,
            record_lineage,
        )


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector around the serial loop.

    The loop allocates a few hundred thousand tuples and sets that form
    no reference cycles, so the collector's generational passes (which
    re-walk the whole heap and adjacency) can free nothing, yet took
    20-40 % of a full XGC1 plane's decimation. Reference counting still
    frees everything; the collector is re-enabled only if it was on.
    """
    # The lock makes check-and-disable atomic against another thread's
    # re-enable, so concurrent passes can never leave the collector off.
    with _GC_LOCK:
        enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            with _GC_LOCK:
                gc.enable()


def _collapse_serial(
    mesh: TriangleMesh,
    field_map: dict[str, np.ndarray],
    ratio: float,
    priority: str | PriorityFn,
    placement: str,
    strict: bool,
    record_lineage: bool,
) -> DecimationResult:
    """Algorithm 1's heap loop (arguments already validated)."""
    n0 = mesh.num_vertices
    target_vertices = max(3, int(np.ceil(n0 / ratio)))
    target_cuts = n0 - target_vertices
    if not callable(priority) and priority not in ("length", "data_aware"):
        raise DecimationError(f"unknown priority strategy: {priority!r}")
    user_priority = priority if callable(priority) else None
    data_aware = priority == "data_aware"
    columns = [np.asarray(arr, dtype=np.float64) for arr in field_map.values()]
    data_scale = 0.0
    for arr in columns:
        if arr.size:
            data_scale = max(data_scale, float(arr.max() - arr.min()))
    scale = data_scale if data_scale > 0 else 1.0

    def priorities(dx, dy, diffs) -> list[float]:
        """Built-in priorities of edges with coordinate deltas ``dx``/``dy``
        and per-field value deltas ``diffs`` (arrays or lists alike).

        ``"length"`` is the paper's choice (shortest edge first). The
        paper leaves the priority "application dependent"; ``"data_aware"``
        is our ablation: edge length inflated by the normalized field jump
        across the edge, so edges crossing sharp features go last.
        """
        prio = np.hypot(dx, dy)
        if data_aware:
            jump = 0.0  # fmax, like max(), lets no NaN jump win
            for diff in diffs:
                jump = np.fmax(jump, np.abs(diff) / scale)
            prio = prio * (1.0 + jump)
        return prio.tolist()

    # --- dynamic mesh state, indexed by vertex id (merged ids: None) ----
    px = mesh.vertices[:, 0].tolist()
    py = mesh.vertices[:, 1].tolist()
    data = [arr.tolist() for arr in columns]
    tri_table: dict[int, tuple[int, int, int]] = dict(
        enumerate(map(tuple, mesh.triangles.tolist()))
    )
    nbr: list[set[int] | None] = [set() for _ in range(n0)]
    vert_tris: list[set[int] | None] = [set() for _ in range(n0)]
    for t, (a, b, c) in tri_table.items():
        nbr[a].update((b, c))
        nbr[b].update((a, c))
        nbr[c].update((a, b))
        vert_tris[a].add(t)
        vert_tris[b].add(t)
        vert_tris[c].add(t)

    # --- lazy-deletion edge heap ---------------------------------------
    # ``prio_of`` maps each live edge (u < v) to its current priority;
    # heap entries whose priority disagrees are stale and skipped at pop.
    # Pops follow the total order on (priority, key), so one heapify of
    # the initial edges pops exactly as one push per edge would.
    eu, ev = mesh.edges[:, 0], mesh.edges[:, 1]
    keys = list(zip(eu.tolist(), ev.tolist()))
    if user_priority is not None:
        prios = [user_priority(u, v) for u, v in keys]
    else:
        verts = mesh.vertices
        prios = priorities(
            verts[eu, 0] - verts[ev, 0], verts[eu, 1] - verts[ev, 1],
            [col[eu] - col[ev] for col in columns] if data_aware else (),
        )
    prio_of: dict[tuple[int, int], float] = dict(zip(keys, prios))
    heap = list(zip(prios, keys))
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    pushes = len(heap)
    stale_pops = 0

    def edge_priorities(a: int, ws) -> list[float]:
        """Priorities of edges ``(a, w)`` for ``w`` in ``ws``."""
        if user_priority is not None:
            return [user_priority(a, w) for w in ws]
        xa, ya = px[a], py[a]
        return priorities(
            [xa - px[w] for w in ws], [ya - py[w] for w in ws],
            [[col[a] - col[w] for w in ws] for col in data] if data_aware
            else (),
        )

    midpoint = placement == "midpoint"
    next_tri = len(tri_table)
    vertices_cut = 0
    skipped = 0
    skip_count: dict[tuple[int, int], int] = {}
    exhausted = False
    merges: list[tuple[int, int, int]] = []

    # Paper's loop condition: continue while
    #   1 - vertices_cut / |V^{l+1}| < 1 - 1/d   ⇔   vertices remaining >
    #   |V^l|/d. We use the equivalent integer form below.
    while vertices_cut < target_cuts:
        if not heap:
            exhausted = True
            break
        prio, key = heappop(heap)
        if prio_of.get(key) != prio:
            stale_pops += 1
            continue
        del prio_of[key]
        # ``prio_of`` holds exactly the mesh's live edges, so both
        # endpoints are alive and adjacent here.
        u, v = key
        nu, nv = nbr[u], nbr[v]
        vtu, vtv = vert_tris[u], vert_tris[v]
        shared_tris = vtu & vtv
        # Link condition: common neighbors must be exactly the apexes of
        # the triangles sharing edge (u, v).
        if len(nu & nv) != len(shared_tris):
            skipped += 1
            count = skip_count.get(key, 0) + 1
            skip_count[key] = count
            if count < _MAX_SKIPS:
                prio = edge_priorities(u, (v,))[0] * _SKIP_PENALTY ** count
                prio_of[key] = prio
                heappush(heap, (prio, key))
                pushes += 1
            continue

        # --- perform the collapse -----------------------------------------
        k = len(px)
        if record_lineage:
            merges.append((u, v, k))
        if midpoint:
            px.append((px[u] + px[v]) / 2.0)  # NewVertex: midpoint
            py.append((py[u] + py[v]) / 2.0)
            for col in data:
                col.append((col[u] + col[v]) / 2.0)  # NewData
        else:  # endpoint: subset placement keeps u's sample
            px.append(px[u])
            py.append(py[u])
            for col in data:
                col.append(col[u])

        # Remove triangles incident to the collapsed edge.
        for t in shared_tris:
            a, b, c = tri_table.pop(t)
            vert_tris[a].discard(t)
            vert_tris[b].discard(t)
            vert_tris[c].discard(t)

        # Remap surviving triangles of u and v onto k. Each holds exactly
        # one of u, v (the shared ones are gone), so every remapped
        # triangle contains the fresh id k: it can only duplicate another
        # remapped triangle, which is identified by its two other corners.
        vtk: set[int] = set()
        existing: set[tuple[int, int]] = set()
        for t in vtu | vtv:
            a, b, c = tri_table.pop(t)
            if a == u or a == v:
                tri, o1, o2 = (k, b, c), b, c
            elif b == u or b == v:
                tri, o1, o2 = (a, k, c), a, c
            else:
                tri, o1, o2 = (a, b, k), a, b
            vt1, vt2 = vert_tris[o1], vert_tris[o2]
            vt1.discard(t)
            vt2.discard(t)
            pair = (o1, o2) if o1 < o2 else (o2, o1)
            if pair in existing:
                continue
            existing.add(pair)
            tri_table[next_tri] = tri
            vtk.add(next_tri)
            vt1.add(next_tri)
            vt2.add(next_tri)
            next_tri += 1

        # Rewire adjacency and the queue.
        new_nbrs = (nu | nv) - {u, v}
        for w in nu:
            nbr[w].discard(u)
            prio_of.pop((u, w) if u < w else (w, u), None)
        for w in nv:
            nbr[w].discard(v)
            prio_of.pop((v, w) if v < w else (w, v), None)
        nbr[u] = nbr[v] = vert_tris[u] = vert_tris[v] = None
        nbr.append(new_nbrs)
        vert_tris.append(vtk)
        for w in new_nbrs:
            nbr[w].add(k)
        # k is the largest id, so (w, k) is each new edge's key.
        for w, prio in zip(new_nbrs, edge_priorities(k, new_nbrs)):
            prio_of[w, k] = prio
            heappush(heap, (prio, (w, k)))
        pushes += len(new_nbrs)

        vertices_cut += 1

    if exhausted and strict:
        raise DecimationError(
            f"queue exhausted after {vertices_cut}/{target_cuts} collapses"
        )

    # --- compact into arrays ------------------------------------------------
    alive = np.array(
        [i for i, adj in enumerate(nbr) if adj is not None], dtype=np.int64
    )
    remap = np.empty(len(nbr), dtype=np.int64)
    remap[alive] = np.arange(len(alive))
    vertices = np.column_stack((
        np.array(px, dtype=np.float64)[alive],
        np.array(py, dtype=np.float64)[alive],
    ))
    triangles = remap[
        np.array(list(tri_table.values()), dtype=np.int64).reshape(-1, 3)
    ]
    out_fields = {
        name: np.array(col, dtype=np.float64)[alive]
        for name, col in zip(field_map, data)
    }
    out_mesh = TriangleMesh(vertices, triangles, validate=False)
    achieved = n0 / max(1, out_mesh.num_vertices)
    lineage = None
    if record_lineage:
        lineage = CollapseLineage.from_sequence(
            n0, merges, alive, placement=placement,
        )
    queue_stats = {
        "pushes": pushes,
        "stale_pops": stale_pops,
        "live": len(prio_of),
        "heap_size": len(heap),
    }
    _record_queue_metrics(queue_stats, skipped)
    return DecimationResult(
        mesh=out_mesh,
        fields=out_fields,
        achieved_ratio=achieved,
        collapses=vertices_cut,
        skipped=skipped,
        exhausted=exhausted,
        queue_stats=queue_stats,
        lineage=lineage,
    )


def _record_queue_metrics(stats: Mapping[str, int], skipped: int) -> None:
    """Surface queue churn on the active tracer's metrics registry.

    ``repro trace`` (and any :func:`repro.obs.trace_session` wrapped
    around an encode) then reports heap traffic next to the span
    timings; when no tracer is installed this is one global read.
    """
    tracer = trace.get_tracer()
    if tracer is None:
        return
    metrics = tracer.metrics
    metrics.counter("decimate.queue.pushes").inc(stats["pushes"])
    metrics.counter("decimate.queue.stale_pops").inc(stats["stale_pops"])
    metrics.counter("decimate.queue.link_skips").inc(skipped)
    metrics.gauge("decimate.queue.heap_size").set(stats["heap_size"])
