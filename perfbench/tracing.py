"""Wrapper spans around the public functions of every layer.

The benchmark measures per-layer time from its own files: it replaces
the functions and methods listed in :data:`TARGETS` with thin wrappers
that record a span (name, start, end, thread, parent) while a pass is
being traced. Nothing in ``src/`` changes.

* The parent of a span is the innermost span open in the same context
  (a :mod:`contextvars` variable), so asyncio tasks on one loop thread
  and work handed to an executor through ``copy_context`` both get the
  right parent.
* A span's *self time* is its duration minus the durations of its
  children on the same thread. Children that ran on another thread (a
  data-node coroutine waiting on an executor job) are summed apart, as
  ``remote_s``, which is what ``service.datanode_wait_s`` subtracts.
* Calls and bytes are counted only for the outermost span of a group,
  so ``get_many`` looping over ``get_range`` counts once.

``from x import f`` copies the function into the importing module, so
a function target is replaced in *every* loaded ``repro`` module that
holds it, not only in the module that defines it. A target that cannot
be found is reported as unmeasured instead of as zero.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass(eq=False)
class Span:
    name: str
    group: str
    start: float
    thread: int
    parent: "Span | None"
    end: float = 0.0
    child_s: float = 0.0
    remote_s: float = 0.0
    nbytes_in: int = 0
    nbytes_out: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def outermost(self) -> bool:
        return self.parent is None or self.parent.group != self.group


def _len(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 0


def _nbytes_put(args, kwargs, result) -> tuple[int, int]:
    # ObjectStore.put(self, key, data) / put_many(self, {key: data})
    if len(args) == 2 and isinstance(args[1], dict):
        return sum(len(v) for v in args[1].values()), 0
    return _len(args[2] if len(args) > 2 else kwargs.get("data", b"")), 0


def _nbytes_get(args, kwargs, result) -> tuple[int, int]:
    if isinstance(result, list):
        return 0, sum(len(b) for b in result)
    return 0, _len(result)


def _nbytes_encode(args, kwargs, result) -> tuple[int, int]:
    data = args[1] if len(args) > 1 else kwargs.get("data")
    return int(getattr(data, "nbytes", 0)), _len(result)


def _nbytes_response(args, kwargs, result) -> tuple[int, int]:
    return 0, _len(getattr(result, "body", b""))


def _plan_bytes(args, kwargs, result) -> tuple[int, int]:
    # planned bytes in, skipped bytes out (query.skipped_bytes_ratio)
    return int(result.planned_bytes), int(result.skipped_bytes)


#: (span name, metric group, "module:qualname", byte counter or None).
#: Several targets may share a group: their self times add up.
TARGETS: list[tuple[str, str, str, object]] = [
    ("mesh.decimate", "mesh.decimate", "repro.mesh.edge_collapse:decimate", None),
    ("mesh.decimate_batched", "mesh.decimate",
     "repro.mesh.batch_collapse:decimate_batched", None),
    ("mesh.locate", "mesh.locate", "repro.mesh.locate:TriangleLocator.locate", None),
    ("refactor.plan_build", "refactor.plan_build",
     "repro.core.decimation_plan:build_plan", None),
    ("refactor.mapping", "refactor.mapping", "repro.core.mapping:build_mapping", None),
    ("refactor.coarsen", "refactor.replay",
     "repro.core.decimation_plan:DecimationPlan.coarsen", None),
    ("refactor.replay", "refactor.replay",
     "repro.mesh.lineage:CollapseLineage.replay", None),
    ("refactor.delta", "refactor.delta", "repro.core.delta:compute_delta", None),
    ("compress.encode", "compress.encode",
     "repro.compress.base:Compressor.encode", _nbytes_encode),
    ("compress.decode", "compress.decode",
     "repro.compress.base:Compressor.decode", None),
    ("io.write", "io.write", "repro.io.dataset:BPDataset.write", None),
    ("io.close", "io.write", "repro.io.dataset:BPDataset.close", None),
    ("io.open", "io.open", "repro.io.dataset:BPDataset.open", None),
    ("io.read", "io.read", "repro.io.engine:RetrievalEngine.read", None),
    ("io.read_many", "io.read", "repro.io.engine:RetrievalEngine.read_many", None),
    ("io.prefetch", "io.read", "repro.io.engine:RetrievalEngine.prefetch", None),
    ("decode.restore", "decode.restore",
     "repro.core.decode_engine:DecodeEngine.restore", None),
    ("decode.restore_many", "decode.restore",
     "repro.core.decode_engine:DecodeEngine.restore_many", None),
    ("decode.read_base", "decode.read_base",
     "repro.core.decoder:CanopusDecoder.read_base", None),
    ("decode.refine", "decode.refine", "repro.core.decoder:CanopusDecoder.refine", None),
    ("decode.apply_delta", "decode.apply_delta", "repro.core.delta:apply_delta", None),
    ("query.plan", "query.plan", "repro.query.planner:QueryPlanner.plan_restore",
     _plan_bytes),
    ("query.execute", "query.execute", "repro.query.planner:QueryPlanner.execute", None),
    ("query.stats", "query.pushdown", "repro.query.pushdown:stats_query", None),
    ("query.blobs", "query.pushdown", "repro.query.pushdown:blob_query", None),
    ("session.open", "session.open", "repro.session:Session.open", None),
    ("session.restore", "session.restore", "repro.session:CampaignHandle.restore", None),
    ("session.restore_many", "session.restore",
     "repro.session:CampaignHandle.restore_many", None),
    ("session.plan", "session.query", "repro.session:CampaignHandle.plan", None),
    ("session.query_stats", "session.query",
     "repro.session:CampaignHandle.query_stats", None),
    ("session.query_blobs", "session.query",
     "repro.session:CampaignHandle.query_blobs", None),
    ("session.describe", "session.query", "repro.session:CampaignHandle.describe", None),
    ("service.handle", "service.node",
     "repro.service.servicenode:ServiceNode.handle", _nbytes_response),
]
# Every concrete object store's put/get entry points (FilesystemBackend
# overrides put/get/get_range; the batched forms come from ObjectStore).
for _cls in ("ObjectStore", "FilesystemBackend", "MemoryBackend", "ShardedBackend",
             "ReplicatedBackend", "RemoteBackend"):
    for _meth, _group, _counter in (
        ("put", "storage.put", _nbytes_put),
        ("put_many", "storage.put", _nbytes_put),
        ("get", "storage.get", _nbytes_get),
        ("get_range", "storage.get", _nbytes_get),
        ("get_many", "storage.get", _nbytes_get),
    ):
        TARGETS.append((f"{_group}.{_meth}", _group,
                        f"repro.storage.backend:{_cls}.{_meth}", _counter))
for _meth in ("open_campaign", "restore", "stats", "plan", "query_stats",
              "query_blobs", "read_raw"):
    TARGETS.append((f"service.datanode.{_meth}", "service.datanode",
                    f"repro.service.datanode:DataNode.{_meth}", None))


class Tracer:
    """Installs the wrappers and keeps the spans of traced passes in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.unmeasured: list[str] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------
    def _open(self, name: str, group: str) -> Span:
        return Span(name, group, time.perf_counter(), threading.get_ident(),
                    _CURRENT.get())

    def _close(self, span: Span, counter, args, kwargs, result) -> None:
        span.end = time.perf_counter()
        if counter is not None and result is not None:
            span.nbytes_in, span.nbytes_out = counter(args, kwargs, result)
        with self._lock:
            parent = span.parent
            if parent is not None:
                if parent.thread == span.thread:
                    parent.child_s += span.duration
                else:
                    parent.remote_s += span.duration
            self.spans.append(span)

    def record(self, name: str, group: str, start: float, end: float) -> None:
        """Record a span timed by the caller (the load generator's requests)."""
        span = Span(name, group, start, threading.get_ident(), None, end=end)
        with self._lock:
            self.spans.append(span)

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn, name: str, group: str, counter):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                span = tracer._open(name, group)
                token = _CURRENT.set(span)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    _CURRENT.reset(token)
                    tracer._close(span, counter, args, kwargs, result)
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name, group)
            token = _CURRENT.set(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                _CURRENT.reset(token)
                tracer._close(span, counter, args, kwargs, result)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, group, target, counter in TARGETS:
            module_name, qualname = target.split(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.unmeasured.append(target)
                continue
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if raw is None:
                    # Inherited methods are wrapped on the class that defines them.
                    if cls is None or not hasattr(cls, meth):
                        self.unmeasured.append(target)
                    continue
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(
                        self._wrap(raw.__func__, name, group, counter)))
                elif isinstance(raw, staticmethod):
                    self._set(cls, meth, staticmethod(
                        self._wrap(raw.__func__, name, group, counter)))
                else:
                    self._set(cls, meth, self._wrap(raw, name, group, counter))
                continue
            original = getattr(module, qualname, None)
            if original is None:
                self.unmeasured.append(target)
                continue
            wrapped = self._wrap(original, name, group, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries -------------------------------------------------------
    def self_seconds(self, group: str) -> float:
        return sum(s.self_s for s in self.spans if s.group == group)

    def calls(self, group: str) -> int:
        return sum(1 for s in self.spans if s.group == group and s.outermost)

    def bytes_in(self, group: str) -> int:
        return sum(s.nbytes_in for s in self.spans if s.group == group and s.outermost)

    def bytes_out(self, group: str) -> int:
        return sum(s.nbytes_out for s in self.spans if s.group == group and s.outermost)

    def remote_wait(self, group: str) -> float:
        """Duration of the group's spans minus their children on other threads."""
        return sum(s.duration - s.remote_s - s.child_s
                   for s in self.spans if s.group == group)

    def group_unmeasured(self, group: str) -> bool:
        names = {t for _, g, t, _ in TARGETS if g == group}
        return bool(names) and names <= set(self.unmeasured)

    def write_jsonl(self, path) -> None:
        """One line per span, times relative to the first span's start."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name,
                    "parent": None if s.parent is None else ids.get(id(s.parent)),
                    "thread": s.thread, "start_s": round(s.start - t0, 6),
                    "end_s": round(s.end - t0, 6), "self_s": round(s.self_s, 6),
                }) + "\n")
