"""The three workloads: ``ingest``, ``cold_analysis`` and ``service_mix``.

Every workload is a closed loop from one process and runs in *rounds*:
a round is a fixed list of operations on fixed inputs, and a pass
repeats whole rounds until its time is up. Process-wide caches are
cleared through their public ``clear()`` at the start of every round
(ingest, service_mix) or every session (cold_analysis), so each round
does the same work and per-op figures that depend only on the work
(simulated I/O, bytes, error) repeat exactly from run to run.

Inputs come from ``--seed`` only. Code paths are warmed during set-up
on throwaway data, so the timed pass starts with cold data caches but
warm code.
"""

from __future__ import annotations

import asyncio
import gc
import json
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from common import pool_width

from repro.api import (
    BPDataset,
    CampaignWriter,
    CanopusDecoder,
    CanopusEncoder,
    LevelScheme,
    ProgressiveReader,
    Session,
    get_geometry_cache,
    get_restored_cache,
    two_tier_titan,
)
from repro.compress import decode_auto
from repro.core.decimation_plan import get_plan_cache
from repro.core.delta import apply_delta
from repro.core.mapping import LevelMapping
from repro.core.notation import GEOM_VAR, mapping_key, step_key
from repro.harness.experiment import stack_planes
from repro.service import CanopusService
from repro.service.client import ServiceClient
from repro.service.loadgen import ServiceThread
from repro.simulations import make_xgc1

VARIABLES = ("dpot", "apar", "dden")


@dataclass(frozen=True)
class Size:
    scale: float = 1.0          # 1.0 = the paper's 20,664-vertex XGC1 plane
    levels: int = 4
    rel_tol: float = 1e-4       # zfp tolerance, relative to the variable's range
    ingest_planes: int = 8
    ingest_steps: int = 40      # write_step calls per round (one campaign)
    ingest_fields: int = 20     # distinct timestep fields, cycled
    read_planes: int = 4
    chunks: int = 16            # spatial chunks per delta level
    sessions: int = 3           # cold_analysis sessions per round
    cycles: int = 120           # service_mix cycles per client per round (k·3·levels)
    warm_scale: float = 0.02    # throwaway data that warms code paths


FULL = Size()
SMALL = Size(scale=0.05, levels=3, ingest_planes=2, ingest_steps=4,
             ingest_fields=2, read_planes=2, chunks=4, sessions=2, cycles=9,
             warm_scale=0.02)


@dataclass
class Op:
    """One timed operation and what the checks made of it."""

    round: int
    index: int
    kind: str
    latency_s: float
    failed: bool = False
    reason: str = ""


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    rounds: int = 0
    round_walls: list = field(default_factory=list)  # timed wall time per round
    sim_s: float = 0.0          # SimClock advance during the timed parts
    io_bytes: int = 0           # bytes through the tiers (writes for ingest)
    field_bytes: int = 0        # raw bytes written (ingest) or got back (reads)
    errors: checks.ErrorTally = field(default_factory=checks.ErrorTally)
    counters: dict = field(default_factory=dict)

    def timed(self, seconds: float) -> None:
        self.round_walls[-1] += seconds

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def count_tiers(self, clock, since: int = 0) -> None:
        """Add simulated seconds and bytes per (op, tier) of ``clock.events[since:]``."""
        for e in clock.events[since:]:
            self.count(f"sim_{e.op}_s.{e.tier}", e.seconds)
            self.count(f"bytes_{e.op}.{e.tier}", e.nbytes)


@contextmanager
def traced(tracer):
    """Turn the tracer on for a timed region (a no-op when untraced)."""
    if tracer is not None:
        tracer.enabled = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.enabled = False


class CacheCounters:
    """Hit/miss deltas of the process-wide caches over timed regions."""

    def __init__(self, result: PassResult) -> None:
        self.result = result
        self._before: dict = {}

    @staticmethod
    def _now() -> dict:
        plan = get_plan_cache().stats
        restored = get_restored_cache().stats()
        geometry = get_geometry_cache().stats()
        return {
            "plan_cache_hits": plan["hits"], "plan_cache_misses": plan["misses"],
            "restored_cache_hits": restored["hits"],
            "restored_cache_misses": restored["misses"],
            "geometry_cache_hits": geometry["hits"],
            "geometry_cache_misses": geometry["misses"],
        }

    def __enter__(self):
        self._before = self._now()
        return self

    def __exit__(self, *exc) -> None:
        for key, value in self._now().items():
            self.result.count(key, value - self._before[key])


def clear_read_caches() -> None:
    get_restored_cache().clear()
    get_geometry_cache().clear()


def clear_process_caches() -> None:
    """Cleared once before the first set-up of a run.

    Later set-ups keep the decimation plan, as any second dataset on
    the same mesh would; ingest clears the plan cache per round itself.
    """
    get_plan_cache().clear()
    clear_read_caches()


def _hierarchy(root: Path):
    return two_tier_titan(root)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _read_fields(seed: int, size: Size, stream: int) -> tuple[object, dict]:
    """A multi-variable, multi-plane XGC1 dataset made from the seed."""
    src = make_xgc1(scale=size.scale, seed=int(_rng(seed, stream, 0).integers(1 << 30)))
    base = stack_planes(src, size.read_planes, seed=int(_rng(seed, stream, 1).integers(1 << 30)))
    noise = _rng(seed, stream, 2).standard_normal(base.shape)
    fields = {
        "dpot": base,
        "apar": 0.5 * base + 0.05 * noise,
        "dden": np.abs(base) + 0.01,
    }
    return src.mesh, fields


def _write_dataset(h, name: str, mesh, fields: dict, size: Size) -> None:
    """Write a multi-variable, spatially chunked dataset with library defaults."""
    encoder = CanopusEncoder(
        h, codec="zfp",
        codec_params={"tolerance": size.rel_tol, "mode": "relative"},
        chunks=size.chunks,
    )
    dataset = BPDataset.create(name, h)
    for var, values in fields.items():
        encoder.encode(name, var, mesh, values, LevelScheme(size.levels),
                       dataset=dataset, close=False)
    dataset.close()


def _box(vertices: np.ndarray, rng: np.random.Generator, half: float):
    centre = vertices[int(rng.integers(len(vertices)))]
    return centre - half, centre + half


def _in_box(vertices: np.ndarray, box) -> np.ndarray:
    lo, hi = box
    return np.all((vertices >= lo) & (vertices <= hi), axis=1)


def _ladder(h, name: str, var: str) -> list[float]:
    """Two tolerances from the certified RMS ladder: coarse and full accuracy.

    Just above the first delta's RMS, refinement stops after that delta;
    below every level's RMS it runs to level 0. Tolerances between the
    two would stop at a level that depends on the data, so the work of
    an op would change with the seed.
    """
    with Session(h, workers=pool_width()) as session:
        plan = session.open(name).plan(var, tolerance=1e-12)
    rms = plan.level_rms
    return [rms[max(rms)] * 1.01, min(rms.values()) * 0.5]


def _stop_level(h, name: str, var: str, tolerance: float) -> int:
    """Where ``ProgressiveReader.refine_until`` stops for this tolerance."""
    dataset = BPDataset.open(name, h)
    try:
        reader = ProgressiveReader(CanopusDecoder(dataset), var)
        return int(reader.refine_until(rms_tolerance=tolerance).level)
    finally:
        dataset.close()


# ---------------------------------------------------------------------------
class Workload:
    name = ""

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.widths = {"pool": pool_width()}

    def setup(self, rep: int) -> None:
        """One complete set-up: inputs, stored data, warmed code paths."""
        raise NotImplementedError

    def run_pass(self, seconds: float, tracer=None, record=None,
                 min_ops: int = 0) -> PassResult:
        """Whole rounds until ``seconds`` have passed and ``min_ops`` ops ran."""
        result = PassResult()
        start = time.perf_counter()
        while (result.rounds == 0 or len(result.ops) < min_ops
               or time.perf_counter() - start < seconds):
            result.round_walls.append(0.0)
            self.round(result, tracer)
            result.rounds += 1
            gc.collect()  # at a fixed point, outside the timed region
        self.finish(result)
        if record is not None:
            for op in result.ops:
                record.step(round=op.round, op=op.index, kind=op.kind,
                            latency_ms=round(op.latency_s * 1e3, 4),
                            failed=op.failed, reason=op.reason)
        return result

    def round(self, result: PassResult, tracer) -> None:
        raise NotImplementedError

    def finish(self, result: PassResult) -> None:
        """Checks that run after the whole pass."""


# ---------------------------------------------------------------------------
class Ingest(Workload):
    """A full-scale campaign written step by step with library defaults."""

    name = "ingest"

    def setup(self, rep: int) -> None:
        size = self.size
        clear_read_caches()
        # One XGC1 source per distinct step (its own blobs), so a run
        # averages over as many independent fields as it writes.
        sources = [make_xgc1(scale=size.scale,
                             seed=int(_rng(self.seed, 0, k).integers(1 << 30)))
                   for k in range(size.ingest_fields)]
        self.mesh = sources[0].mesh
        self.fields = [
            stack_planes(src, size.ingest_planes,
                         seed=int(_rng(self.seed, 1, k).integers(1 << 30)))
            for k, src in enumerate(sources)
        ]
        self.bounds = [checks.certified_bound(f, size.levels, size.rel_tol)
                       for f in self.fields]
        self.codec_params = {"tolerance": size.rel_tol, "mode": "relative"}
        # Warm the write and read paths on a throwaway campaign.
        warm = make_xgc1(scale=size.warm_scale, seed=1)
        root = self.workdir / f"warm{rep}"
        h = _hierarchy(root)
        with CampaignWriter(h, "warm", "dpot", warm.mesh, LevelScheme(size.levels),
                            codec_params=self.codec_params) as writer:
            for k in range(2):
                writer.write_step(k, stack_planes(warm, 2, seed=k))
        dataset = BPDataset.open("warm", _hierarchy(root))
        _restore_step(dataset, "dpot", 1, 2)
        dataset.close()
        shutil.rmtree(root)
        clear_read_caches()
        self._stores: list[Path] = []

    def round(self, result: PassResult, tracer) -> None:
        size = self.size
        root = self.workdir / f"ingest-r{len(self._stores)}"
        h = _hierarchy(root)
        get_plan_cache().clear()
        with CacheCounters(result), traced(tracer):
            t0 = time.perf_counter()
            writer = CampaignWriter(h, "campaign", "dpot", self.mesh,
                                    LevelScheme(size.levels),
                                    codec_params=self.codec_params)
            for k in range(size.ingest_steps):
                t = time.perf_counter()
                writer.write_step(k, self.fields[k % size.ingest_fields])
                result.ops.append(Op(result.rounds, k, "write_step",
                                     time.perf_counter() - t))
            writer.close()
            result.timed(time.perf_counter() - t0)
        result.sim_s += h.clock.elapsed
        result.io_bytes += h.clock.bytes_moved(op="write")
        result.count_tiers(h.clock)
        result.field_bytes += sum(
            self.fields[k % size.ingest_fields].nbytes for k in range(size.ingest_steps))
        self._stores.append(root)

    def finish(self, result: PassResult) -> None:
        """Restore every written step from storage and check it."""
        size = self.size
        by_round: dict = {}
        for op in result.ops:
            by_round.setdefault(op.round, []).append(op)
        for r, root in enumerate(self._stores):
            dataset = BPDataset.open("campaign", _hierarchy(root))
            counts = dataset.catalog.attrs["campaign"]["counts"]
            sizes = checks.level_sizes(counts)
            for op in by_round[r]:
                raw = self.fields[op.index % size.ingest_fields]
                restored = _restore_step(dataset, "dpot", op.index, size.ingest_planes)
                reason = sizes or checks.error_bound(
                    restored, raw, self.bounds[op.index % size.ingest_fields])
                result.errors.add(restored, raw)
                if reason:
                    op.failed, op.reason = True, reason
            dataset.close()
            shutil.rmtree(root)
        self._stores = []


def _restore_step(dataset, var: str, step: int, planes: int) -> np.ndarray:
    """Level-0 field of one campaign step, decoded from the stored products.

    The campaign catalog does not record the plane count, so the
    benchmark, which made the input, supplies it.
    """
    meta = dataset.catalog.attrs["campaign"]
    level = int(meta["num_levels"]) - 1
    values = decode_auto(dataset.read(step_key(var, step, level, "base")))
    values = values.reshape(planes, -1)
    while level > 0:
        level -= 1
        mapping = LevelMapping.from_bytes(dataset.read(mapping_key(GEOM_VAR, level)))
        delta = decode_auto(dataset.read(step_key(var, step, level, "delta")))
        values = apply_delta(values, delta.reshape(planes, -1), mapping)
    return values


# ---------------------------------------------------------------------------
class ColdAnalysis(Workload):
    """Analyst sessions that each start cold against a written dataset."""

    name = "cold_analysis"

    def setup(self, rep: int) -> None:
        size = self.size
        clear_read_caches()
        self.mesh, self.fields = _read_fields(self.seed, size, 0)
        self.bounds = {v: checks.certified_bound(f, size.levels, size.rel_tol)
                       for v, f in self.fields.items()}
        self.root = self.workdir / "analysis"
        if self.root.exists():
            shutil.rmtree(self.root)
        self.h = _hierarchy(self.root)
        _write_dataset(self.h, "analysis", self.mesh, self.fields, size)
        self._warm(rep)
        self.ladders = {v: _ladder(_hierarchy(self.root), "analysis", v)
                        for v in VARIABLES}
        dataset = BPDataset.open("analysis", _hierarchy(self.root))
        self.counts = {v: dataset.catalog.attrs["variables"][v]["counts"]
                       for v in VARIABLES}
        dataset.close()
        # Seeded per-session choices; every session runs the same steps.
        vertices = self.mesh.vertices
        self.plans = []
        for i in range(size.sessions):
            rng = _rng(self.seed, 2, i)
            roles = list(np.roll(VARIABLES, i))
            raw0 = self.fields[roles[0]][0]
            self.plans.append({
                "ladder_var": roles[0],
                "full_vars": roles[1:],
                "stats_box": _box(vertices, rng, 0.2),
                "blob_threshold": float(0.6 * raw0.max()),
                "empty_threshold": float(1.1 * raw0.max()),
            })
        self._stops: dict = {}
        clear_read_caches()

    def _warm(self, rep: int) -> None:
        size = Size(scale=self.size.warm_scale, levels=self.size.levels,
                    read_planes=2, chunks=4)
        mesh, fields = _read_fields(self.seed, size, 9)
        root = self.workdir / f"warm{rep}"
        h = _hierarchy(root)
        _write_dataset(h, "warm", mesh, fields, size)
        with Session(h, workers=pool_width()) as session:
            self._session(session.open("warm"), {
                "ladder_var": "dpot", "full_vars": ["apar"],
                "stats_box": (mesh.vertices.min(0), mesh.vertices.max(0)),
                "blob_threshold": 0.5, "empty_threshold": 1e9,
            }, [1.0, 0.1])
        _stop_level(h, "warm", "dpot", 0.1)
        shutil.rmtree(root)

    def _session(self, campaign, plan: dict, ladder) -> dict:
        """The four steps of one analyst session."""
        out = {}
        out["base"] = campaign.restore_many(VARIABLES, level=self.size.levels - 1)
        out["ladder"] = [campaign.restore(plan["ladder_var"], tolerance=t)
                         for t in ladder]
        out["full"] = {v: campaign.restore(v, level=0) for v in plan["full_vars"]}
        var = plan["ladder_var"]
        out["stats_all"] = campaign.query_stats(var)
        out["stats_box"] = campaign.query_stats(var, region=plan["stats_box"])
        out["blobs"] = campaign.query_blobs(var, threshold=plan["blob_threshold"])
        out["no_blobs"] = campaign.query_blobs(var, threshold=plan["empty_threshold"])
        return out

    def round(self, result: PassResult, tracer) -> None:
        clock = self.h.clock
        for i, plan in enumerate(self.plans):
            clear_read_caches()
            ladder = self.ladders[plan["ladder_var"]]
            sim0 = clock.elapsed
            events0 = len(clock.events)
            with CacheCounters(result), traced(tracer):
                t0 = time.perf_counter()
                session = Session(self.h, workers=pool_width())
                out = self._session(session.open("analysis"), plan, ladder)
                engine = session.stats()["analysis"]
                session.close()
                latency = time.perf_counter() - t0
            result.count("range_cache_hits", engine["hits"])
            result.count("range_cache_misses", engine["misses"])
            result.timed(latency)
            result.sim_s += clock.elapsed - sim0
            result.io_bytes += sum(e.nbytes for e in clock.events[events0:]
                                   if e.op == "read")
            result.count_tiers(clock, events0)
            op = Op(result.rounds, i, "session", latency)
            result.ops.append(op)
            reason = self._check(plan, ladder, out, result)
            if reason:
                op.failed, op.reason = True, reason

    def _check(self, plan: dict, ladder, out: dict, result: PassResult) -> str | None:
        reasons = []
        for var, state in out["base"].items():
            result.field_bytes += state.field.nbytes
            reasons.append(checks.level_sizes(self.counts[var]))
            if state.mesh.num_vertices != self.counts[var][-1]:
                reasons.append(f"{var}: base mesh size differs from the catalog")
        var = plan["ladder_var"]
        for tol, state in zip(ladder, out["ladder"]):
            result.field_bytes += state.field.nbytes
            key = (var, tol)
            if key not in self._stops:
                self._stops[key] = _stop_level(_hierarchy(self.root), "analysis", var, tol)
            reasons.append(checks.tolerance_stop(state.level, self._stops[key]))
            if state.level == 0:
                reasons.append(checks.error_bound(state.field, self.fields[var],
                                                  self.bounds[var]))
                result.errors.add(state.field, self.fields[var])
        for v, state in out["full"].items():
            result.field_bytes += state.field.nbytes
            reasons.append(checks.error_bound(state.field, self.fields[v], self.bounds[v]))
            if state.mesh.num_vertices != self.counts[v][0]:
                reasons.append(f"{v}: level-0 mesh size differs from the catalog")
            result.errors.add(state.field, self.fields[v])
        raw = self.fields[var]
        reasons.append(checks.stats_match(out["stats_all"], raw, None, self.bounds[var]))
        reasons.append(checks.stats_match(
            out["stats_box"], raw, _in_box(self.mesh.vertices, plan["stats_box"]),
            self.bounds[var]))
        for key, threshold in (("blobs", plan["blob_threshold"]),
                               ("no_blobs", plan["empty_threshold"])):
            reasons.append(checks.blob_screen(out[key], raw[0], threshold,
                                              self.bounds[var]))
        return "; ".join(r for r in reasons if r)



# ---------------------------------------------------------------------------
class ServiceMix(Workload):
    """A newly started data node driven over HTTP by nproc keep-alive clients."""

    name = "service_mix"

    def setup(self, rep: int) -> None:
        size = self.size
        clear_read_caches()
        width = pool_width()
        self.widths = {"pool": width, "clients": width,
                       "service_workers": width, "executor_workers": width}
        self.root = self.workdir / "service"
        if self.root.exists():
            shutil.rmtree(self.root)
        h = _hierarchy(self.root)
        self.campaigns = []
        for c in range(width):
            mesh, fields = _read_fields(self.seed, size, 10 + c)
            name = f"campaign{c}"
            _write_dataset(h, name, mesh, fields, size)
            self.campaigns.append({
                "name": name, "mesh": mesh, "fields": fields,
                "bounds": {v: checks.certified_bound(f, size.levels, size.rel_tol)
                           for v, f in fields.items()},
                "ladders": {v: _ladder(h, name, v) for v in VARIABLES},
            })
        self._warm(rep)
        # One fixed request sequence per client; each cycle is a level
        # restore, a plan, pushdown stats and a tolerance restore. Every
        # (variable, level) pair and every tolerance comes up equally often,
        # so the mix of payload sizes does not change with the seed. The
        # first cycles touch each pair once in a fixed order (the node's
        # cold start); the seed orders the rest and places the stats boxes.
        pairs = [(v, lvl) for v in VARIABLES for lvl in range(size.levels - 1, -1, -1)]
        self.sequences = []
        for c, camp in enumerate(self.campaigns):
            rng = _rng(self.seed, 3, c)
            rest = pairs * max(0, size.cycles // len(pairs) - 1)
            order = pairs + [rest[i] for i in rng.permutation(len(rest))]
            cycles = []
            for i, (var, level) in enumerate(order):
                ladder = camp["ladders"][var]
                box = _box(camp["mesh"].vertices, rng, 0.2)
                cycles.append((
                    ("restore", var, level),
                    ("plan", var, float(ladder[i % len(ladder)])),
                    ("stats", var, tuple(tuple(float(x) for x in b) for b in box)),
                    ("tolerance", var, float(ladder[(i // len(pairs)) % len(ladder)])),
                ))
            self.sequences.append(cycles)
        self._refs: dict = {}
        clear_read_caches()

    def _warm(self, rep: int) -> None:
        size = Size(scale=self.size.warm_scale, levels=self.size.levels,
                    read_planes=2, chunks=4)
        mesh, fields = _read_fields(self.seed, size, 9)
        root = self.workdir / f"warm{rep}"
        _write_dataset(_hierarchy(root), "warm", mesh, fields, size)
        box = tuple(tuple(float(x) for x in b)
                    for b in (mesh.vertices.min(0), mesh.vertices.max(0)))
        cycle = (("restore", "dpot", 0), ("plan", "dpot", 0.1),
                 ("stats", "dpot", box), ("tolerance", "dpot", 0.1))
        clear_read_caches()
        service = CanopusService(_hierarchy(root), workers=pool_width(),
                                 executor_workers=pool_width())
        with ServiceThread(service):
            asyncio.run(self._drive(service.host, service.port,
                                    [("warm", [cycle] * 3)], None, [[]], [{}]))
        shutil.rmtree(root)

    @staticmethod
    async def _request(client: ServiceClient, name: str, req):
        """Send one request; returns ``(payload, level or None)``."""
        kind, var, arg = req
        if kind == "restore":
            values, meta = await client.restore(name, var, level=arg)
            return values, meta["level"]
        if kind == "tolerance":
            values, meta = await client.restore(name, var, tolerance=arg)
            return values, meta["level"]
        if kind == "plan":
            return await client.plan(name, var, tolerance=arg), None
        return await client.query_stats(name, var, region=arg), None

    async def _client(self, host, port, name, cycles, tracer, out, seen) -> None:
        """One closed-loop client; ``seen`` keeps the first answer per request."""
        client = ServiceClient(host, port)
        try:
            for index, cycle in enumerate(cycles):
                t0 = time.perf_counter()
                answers, reason = [], ""
                try:
                    for req in cycle:
                        t = time.perf_counter()
                        answers.append(await self._request(client, name, req))
                        if tracer is not None:
                            tracer.record("client.request", "service.client",
                                          t, time.perf_counter())
                except Exception as exc:  # noqa: BLE001 — a failed op, counted
                    reason = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                # Outside the op's latency: a repeated request must get the
                # answer it got the first time in this round.
                for req, (payload, level) in zip(cycle, answers):
                    if req not in seen:
                        seen[req] = (payload, level)
                    elif level != seen[req][1] or checks.payload_identical(
                            payload, seen[req][0]):
                        reason = reason or f"{req[0]} answer changed between requests"
                out.append((index, latency, reason))
        finally:
            await client.close()

    async def _drive(self, host, port, work, tracer, outs, seen) -> None:
        await asyncio.gather(*(
            self._client(host, port, name, cycles, tracer, out, answers)
            for (name, cycles), out, answers in zip(work, outs, seen)
        ))

    def round(self, result: PassResult, tracer) -> None:
        clear_read_caches()
        h = _hierarchy(self.root)
        work = [(camp["name"], seq) for camp, seq in zip(self.campaigns, self.sequences)]
        outs = [[] for _ in work]
        seen = [{} for _ in work]
        with CacheCounters(result), traced(tracer):
            t0 = time.perf_counter()
            service = CanopusService(h, workers=pool_width(),
                                     executor_workers=pool_width())
            thread = ServiceThread(service)
            thread.start()
            try:
                asyncio.run(self._drive(service.host, service.port, work, tracer,
                                        outs, seen))
                engines = service.datanode.session.stats()
            finally:
                thread.stop()
            result.timed(time.perf_counter() - t0)
        for snap in engines.values():
            result.count("range_cache_hits", snap["hits"])
            result.count("range_cache_misses", snap["misses"])
        result.sim_s += h.clock.elapsed
        result.io_bytes += h.clock.bytes_moved(op="read")
        result.count_tiers(h.clock)
        verdicts = self._verify(seen)
        served_l0: dict = {}
        for c, out in enumerate(outs):
            for index, latency, reason in out:
                cycle = self.sequences[c][index]
                op = Op(result.rounds, c * len(self.sequences[0]) + index, "cycle",
                        latency)
                reason = reason or next(
                    (verdicts[(c, req)] for req in cycle if verdicts.get((c, req))), "")
                if reason:
                    op.failed, op.reason = True, reason
                result.ops.append(op)
                for req in cycle:
                    if req not in seen[c]:
                        continue
                    payload, level = seen[c][req]
                    if isinstance(payload, np.ndarray):
                        result.field_bytes += payload.nbytes
                        if level == 0:
                            served_l0[(c, req)] = served_l0.get((c, req), 0) + 1
        for (c, req), weight in served_l0.items():
            var = req[1]
            result.errors.add(seen[c][req][0], self.campaigns[c]["fields"][var], weight)
        clear_read_caches()

    def _verify(self, seen) -> dict:
        """Check each distinct answer against an in-process Session call."""
        clear_read_caches()
        h = _hierarchy(self.root)
        verdicts = {}
        with Session(h, workers=pool_width()) as session:
            for c, answers in enumerate(seen):
                camp = self.campaigns[c]
                for req, (payload, level) in answers.items():
                    if (c, req) not in self._refs:
                        self._refs[(c, req)] = self._reference(
                            h, session.open(camp["name"]), camp, req)
                    want, want_level, verdict = self._refs[(c, req)]
                    reason = checks.payload_identical(payload, want)
                    if reason is None and level != want_level:
                        reason = f"served level {level} != in-process {want_level}"
                    verdicts[(c, req)] = reason or verdict
        return verdicts

    def _reference(self, h, handle, camp: dict, req):
        """``(payload, level, verdict)`` of the in-process call for ``req``."""
        kind, var, arg = req
        raw, bound = camp["fields"][var], camp["bounds"][var]
        name = camp["name"]
        if kind in ("restore", "tolerance"):
            if kind == "restore":
                state = handle.restore(var, level=arg)
                verdict = None
            else:
                state = handle.restore(var, tolerance=arg)
                verdict = checks.tolerance_stop(state.level,
                                                _stop_level(h, name, var, arg))
            if state.level == 0:
                verdict = verdict or checks.error_bound(state.field, raw, bound)
            return state.field, state.level, verdict
        if kind == "plan":
            plan = handle.plan(var, tolerance=arg).to_dict()
            return json.loads(json.dumps(plan)), None, None
        region = tuple(np.asarray(b) for b in arg)
        stats = {"campaign": name, **handle.query_stats(var, region=region)}
        verdict = checks.stats_match(stats, raw, _in_box(camp["mesh"].vertices, region),
                                     bound)
        return json.loads(json.dumps(stats)), None, verdict


WORKLOADS = {w.name: w for w in (Ingest, ColdAnalysis, ServiceMix)}
