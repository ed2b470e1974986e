"""Timestep campaigns: write once per step, analyze many times.

The paper's target workload is a production run that "outputs a smaller
data volume called f0 … more frequently" and whose results "need to be
written once but analyzed a number of times (e.g., for parameter
sensitivity studies)". A :class:`CampaignWriter` Canopus-encodes a
*series* of timesteps of one variable:

* the mesh hierarchy and the vertex→triangle mappings depend only on
  the mesh, which is static across steps for these codes — so geometry
  is refactored and stored **once**, in a shared geometry dataset;
* each timestep stores only its base + delta payloads, reusing the
  shared geometry (both for delta calculation at write time and for
  restoration at read time).

The reader side restores any (step, level) pair and amortizes geometry
I/O across the whole campaign — the quantitative justification for the
one-time ``setup_seconds`` accounting in the analysis pipelines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compress import decode_auto, get_codec
from repro.core.decimation_plan import (
    build_plan,
    get_plan_cache,
    plan_eligible,
)
from repro.core.decoder import LevelData, PhaseTimings
from repro.core.delta import apply_delta
from repro.core.encode_scheduler import BufferArena, fused_step_products
from repro.core.mapping import LevelMapping
from repro.core.notation import (
    GEOM_VAR as _GEOM_VAR,
    LevelScheme,
    mapping_key,
    mesh_key,
    step_key as _step_key,
)
from repro.core.plan import plan_placement
from repro.errors import CanopusError, RestorationError
from repro.io.dataset import BPDataset
from repro.io.query import ChunkStats
from repro.mesh.edge_collapse import KERNELS
from repro.mesh.io import mesh_from_bytes, mesh_to_bytes
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["CampaignWriter", "CampaignReader", "StepReport"]


@dataclass
class StepReport:
    """Per-timestep write measurements."""

    step: int
    compressed_bytes: int
    original_bytes: int
    refactor_seconds: float
    compress_seconds: float
    io_seconds: float

    @property
    def reduction(self) -> float:
        return self.original_bytes / max(1, self.compressed_bytes)


class CampaignWriter:
    """Writes a timestep series of one variable through Canopus.

    Parameters mirror :class:`~repro.core.encoder.CanopusEncoder`; the
    decimated mesh chain is computed from the first timestep's mesh and
    reused for every subsequent step (meshes are static across steps).

    Geometry work goes through a
    :class:`~repro.core.decimation_plan.DecimationPlan` — consulted
    from the process-wide plan cache for geometry-determined priorities
    — so a second campaign over the same mesh skips decimation
    entirely, and every ``write_step`` coarsens its field by replaying
    the recorded collapse sequence (bit-identical to re-running it).
    With ``workers > 1``, per-level delta computation and codec encodes
    overlap on a thread pool. ``placement="cost"`` defers product
    placement to close time, where the cost-based
    :class:`~repro.storage.placement.PlacementEngine` bins the whole
    campaign at once instead of walking fastest-first per write.
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        name: str,
        var: str,
        mesh: TriangleMesh,
        scheme: LevelScheme,
        *,
        codec: str = "zfp",
        codec_params: dict | None = None,
        estimator: str = "mean",
        priority: str = "length",
        method: str = "serial",
        workers: int | None = None,
        use_plan_cache: bool = True,
        placement: str = "walk",
    ) -> None:
        if method not in KERNELS:
            raise CanopusError(
                f"unknown decimation method {method!r}; "
                f"expected one of {KERNELS}"
            )
        if workers is not None and workers < 1:
            raise CanopusError("workers must be >= 1")
        self.hierarchy = hierarchy
        self.name = name
        self.var = var
        self.scheme = scheme
        self.codec_name = codec
        self.codec_params = dict(codec_params or {})
        self._codec = get_codec(codec, **self.codec_params)
        self._plan = plan_placement(scheme, len(hierarchy))
        self.workers = workers
        self._steps: list[int] = []
        self._closed = False
        # Scratch pool for the fused serial encode path: after the
        # first step every replay/delta buffer is a pool hit.
        self._arena = BufferArena()

        # --- one-time geometry refactoring (plan-cached) ----------------
        t0 = time.perf_counter()
        if use_plan_cache and plan_eligible(priority):
            self._geom_plan = get_plan_cache().get_or_build(
                mesh, scheme, method=method, priority=priority,
                estimator=estimator,
            )
        else:
            # Data-dependent priorities degenerate to geometry-only here
            # (there is no field yet at campaign-setup time), matching
            # the historical fields=None decimation; build uncached.
            self._geom_plan = build_plan(
                mesh, scheme, method=method, priority=priority,
                estimator=estimator,
            )
        self.meshes: list[TriangleMesh] = self._geom_plan.meshes
        self.mappings: list[LevelMapping] = self._geom_plan.mappings
        self.geometry_seconds = time.perf_counter() - t0

        # --- persist geometry once --------------------------------------
        self._dataset = BPDataset.create(name, hierarchy, placement=placement)
        self._dataset.catalog.attrs["campaign"] = {
            "var": var,
            "num_levels": scheme.num_levels,
            "step_ratio": scheme.step_ratio,
            "codec": codec,
            "counts": [m.num_vertices for m in self.meshes],
            "steps": [],
        }
        for lvl, m in enumerate(self.meshes):
            tier = (
                self._plan.base_tier
                if lvl == scheme.base_level
                else self._plan.preferred_tier_for_delta(lvl)
            )
            self._dataset.write(
                mesh_key(_GEOM_VAR, lvl), mesh_to_bytes(m),
                kind="mesh", level=lvl, preferred_tier=tier,
            )
        for lvl, mapping in enumerate(self.mappings):
            self._dataset.write(
                mapping_key(_GEOM_VAR, lvl), mapping.to_bytes(),
                kind="mapping", level=lvl,
                preferred_tier=self._plan.preferred_tier_for_delta(lvl),
            )

    # ------------------------------------------------------------------
    def write_step(self, step: int, data: np.ndarray) -> StepReport:
        """Refactor + compress + place one timestep's field."""
        if self._closed:
            raise CanopusError("campaign already closed")
        if step in self._steps:
            raise CanopusError(f"step {step} already written")
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.shape[-1] != self.meshes[0].num_vertices:
            raise CanopusError(
                f"step {step}: field shape {data.shape} does not match mesh"
            )

        base_level = self.scheme.base_level
        if self.workers and self.workers > 1:
            # Thread-overlapped staged path: replay the recorded
            # collapse sequence (bit-identical to re-running Algorithm 1
            # on this step's values), compute per-level deltas on a
            # thread pool, then overlap the codec encodes.
            t0 = time.perf_counter()
            with trace.span(
                "campaign.refactor", "refactor",
                {"step": step, "workers": self.workers},
            ):
                levels = self._geom_plan.coarsen(data)
                deltas = self._geom_plan.deltas_for(
                    levels, workers=self.workers
                )
            refactor_seconds = time.perf_counter() - t0

            t0 = time.perf_counter()
            arrays: list[tuple[str, np.ndarray, str, int, int]] = [
                (
                    _step_key(self.var, step, base_level, "base"),
                    levels[-1],
                    "base",
                    base_level,
                    self._plan.base_tier,
                )
            ]
            for lvl in self.scheme.delta_levels():
                arrays.append(
                    (
                        _step_key(self.var, step, lvl, "delta"),
                        deltas[lvl],
                        "delta",
                        lvl,
                        self._plan.preferred_tier_for_delta(lvl),
                    )
                )
            with trace.span(
                "campaign.compress", "compress",
                {"step": step, "payloads": len(arrays),
                 "workers": self.workers},
            ):
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(
                    max_workers=min(self.workers, len(arrays))
                ) as pool:
                    blobs = list(
                        pool.map(self._codec.encode, (a for _, a, *_ in arrays))
                    )
            # Summaries describe the pre-compression values (the bounds
            # the retrieval planner prunes against), so compute them
            # from the staged arrays before they are dropped.
            payloads = [
                (key, blob, kind, lvl, tier, ChunkStats.of(arr).as_dict())
                for (key, arr, kind, lvl, tier), blob in zip(arrays, blobs)
            ]
            compress_seconds = time.perf_counter() - t0
        else:
            # Fused serial path: one level in flight at a time through
            # pooled scratch (same kernel the multiprocess scheduler's
            # workers run), bit-identical to the staged path.
            with trace.span(
                "campaign.fused_encode", "refactor", {"step": step}
            ):
                summaries: dict = {}
                products, fstats = fused_step_products(
                    self._geom_plan, data, self._codec, arena=self._arena,
                    summaries=summaries,
                )
            refactor_seconds = (
                fstats["replay_seconds"] + fstats["delta_seconds"]
            )
            compress_seconds = fstats["compress_seconds"]
            payloads = [
                (
                    _step_key(self.var, step, base_level, "base"),
                    products["base"],
                    "base",
                    base_level,
                    self._plan.base_tier,
                    summaries.get("base"),
                )
            ]
            for lvl in self.scheme.delta_levels():
                payloads.append(
                    (
                        _step_key(self.var, step, lvl, "delta"),
                        products[f"delta{lvl}"],
                        "delta",
                        lvl,
                        self._plan.preferred_tier_for_delta(lvl),
                        summaries.get(f"delta{lvl}"),
                    )
                )

        clock = self.hierarchy.clock
        before = clock.elapsed
        total = 0
        for key, blob, kind, lvl, tier, summary in payloads:
            rec = self._dataset.write(
                key, blob, kind=kind, level=lvl,
                codec=self.codec_name, preferred_tier=tier,
            )
            if summary is not None:
                rec.attrs["stats"] = summary
            total += len(blob)
        io_seconds = clock.elapsed - before  # buffered; realized at close

        self._steps.append(step)
        self._dataset.catalog.attrs["campaign"]["steps"] = sorted(self._steps)
        return StepReport(
            step=step,
            compressed_bytes=total,
            original_bytes=data.nbytes,
            refactor_seconds=refactor_seconds,
            compress_seconds=compress_seconds,
            io_seconds=io_seconds,
        )

    def close(self) -> float:
        """Flush subfiles + catalog; returns the realized write I/O time.

        Writes are buffered per tier until close (one subfile per tier),
        so per-step ``io_seconds`` are ~0 and the campaign's write cost
        lands here.
        """
        if self._closed:
            return 0.0
        clock = self.hierarchy.clock
        before = clock.elapsed
        self._dataset.close()
        self._closed = True
        return clock.elapsed - before

    def __enter__(self) -> "CampaignWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CampaignReader:
    """Restores any (step, level) of a campaign with shared geometry."""

    def __init__(self, hierarchy: StorageHierarchy, name: str) -> None:
        self.dataset = BPDataset.open(name, hierarchy)
        self._clock = hierarchy.clock
        meta = self.dataset.catalog.attrs.get("campaign")
        if not meta:
            raise RestorationError(f"{name!r} is not a campaign dataset")
        self.var: str = meta["var"]
        self.scheme = LevelScheme(int(meta["num_levels"]), float(meta["step_ratio"]))
        self.steps: list[int] = list(meta["steps"])
        self._counts: list[int] = [int(c) for c in meta["counts"]]
        self._meshes: dict[int, TriangleMesh] = {}
        self._mappings: dict[int, LevelMapping] = {}
        self.geometry_timings = PhaseTimings()

    # ------------------------------------------------------------------
    def prefetch_geometry(self) -> PhaseTimings:
        """Read the shared mesh/mapping products once for the campaign.

        All geometry keys are fetched as one overlapped engine batch, so
        the one-time setup pays the batched (not per-product) I/O charge.
        """
        keys = [mesh_key(_GEOM_VAR, lvl) for lvl in self.scheme.levels()]
        keys += [mapping_key(_GEOM_VAR, lvl) for lvl in self.scheme.delta_levels()]
        before = self._clock.elapsed
        self.dataset.read_many(keys, label=f"{self.var}:geometry")
        self.geometry_timings.io_seconds += self._clock.elapsed - before
        for lvl in self.scheme.levels():
            self._mesh(lvl)
        for lvl in self.scheme.delta_levels():
            self._mapping(lvl)
        return self.geometry_timings

    def _mesh(self, level: int) -> TriangleMesh:
        if level not in self._meshes:
            before = self._clock.elapsed
            blob = self.dataset.read(mesh_key(_GEOM_VAR, level))
            self.geometry_timings.io_seconds += self._clock.elapsed - before
            self._meshes[level] = mesh_from_bytes(blob)
        return self._meshes[level]

    def _mapping(self, level: int) -> LevelMapping:
        if level not in self._mappings:
            before = self._clock.elapsed
            blob = self.dataset.read(mapping_key(_GEOM_VAR, level))
            self.geometry_timings.io_seconds += self._clock.elapsed - before
            self._mappings[level] = LevelMapping.from_bytes(blob)
        return self._mappings[level]

    # ------------------------------------------------------------------
    def restore(self, step: int, target_level: int = 0) -> LevelData:
        """Restore one timestep to the requested accuracy level."""
        if step not in self.steps:
            raise RestorationError(
                f"step {step} not in campaign (has {self.steps})"
            )
        self.scheme.validate_level(target_level)
        timings = PhaseTimings()

        base_level = self.scheme.base_level
        before = self._clock.elapsed
        blob = self.dataset.read(_step_key(self.var, step, base_level, "base"))
        timings.io_seconds += self._clock.elapsed - before
        t0 = time.perf_counter()
        field_ = decode_auto(blob)
        timings.decompress_seconds += time.perf_counter() - t0
        # Multi-plane steps are stored raveled; the plane count is the
        # base length over the base level's vertex count.
        planes, rem = divmod(field_.size, self._counts[base_level])
        if rem or not planes:
            raise RestorationError(
                f"base has {field_.size} values; level {base_level} has "
                f"{self._counts[base_level]} vertices"
            )
        if planes > 1:
            field_ = field_.reshape(planes, -1)

        level = base_level
        while level > target_level:
            level -= 1
            mapping = self._mapping(level)
            before = self._clock.elapsed
            blob = self.dataset.read(_step_key(self.var, step, level, "delta"))
            timings.io_seconds += self._clock.elapsed - before
            t0 = time.perf_counter()
            delta = decode_auto(blob)
            timings.decompress_seconds += time.perf_counter() - t0
            if planes > 1:
                delta = delta.reshape(planes, -1)
            t0 = time.perf_counter()
            field_ = apply_delta(field_, delta, mapping)
            timings.restore_seconds += time.perf_counter() - t0

        return LevelData(
            var=self.var,
            level=target_level,
            mesh=self._mesh(target_level),
            field=field_,
            timings=timings,
        )

    def restore_many(
        self, steps=None, target_level: int = 0, *, workers: int = 4
    ) -> dict[int, LevelData]:
        """Restore several timesteps concurrently; ``{step: LevelData}``.

        Bit-identical to serial :meth:`restore` calls. Geometry is
        decoded once up front (single-threaded, so the shared caches see
        no concurrent mutation) and every step's base/delta ranges are
        hinted to the retrieval engine as one overlapped batch before
        the fan-out — the simulated I/O charge is deterministic and the
        workers overlap decompression with each other's fetches.
        """
        if workers < 1:
            raise RestorationError("restore_many workers must be >= 1")
        steps = list(self.steps if steps is None else steps)
        for step in steps:
            if step not in self.steps:
                raise RestorationError(
                    f"step {step} not in campaign (has {self.steps})"
                )
        self.scheme.validate_level(target_level)
        if not steps:
            return {}
        with trace.span(
            "decode.restore_many", "restore",
            {"steps": len(steps), "level": target_level, "workers": workers},
        ):
            self.prefetch_geometry()
            keys = []
            for step in steps:
                keys.append(
                    _step_key(self.var, step, self.scheme.base_level, "base")
                )
                for lvl in range(self.scheme.base_level - 1, target_level - 1, -1):
                    keys.append(_step_key(self.var, step, lvl, "delta"))
            self.dataset.prefetch(keys, label=f"{self.var}:restore_many")
            if workers > 1 and len(steps) > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(
                    max_workers=min(workers, len(steps)),
                    thread_name_prefix="repro-campaign",
                ) as pool:
                    results = list(
                        pool.map(lambda s: self.restore(s, target_level), steps)
                    )
            else:
                results = [self.restore(s, target_level) for s in steps]
        return dict(zip(steps, results))

    def time_series(self, target_level: int, steps=None):
        """Yield ``(step, LevelData)`` across the campaign at one level."""
        for step in steps if steps is not None else self.steps:
            yield step, self.restore(step, target_level)
