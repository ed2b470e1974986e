"""Benchmark command: run one workload and print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed. ``--trace 1`` spends half the time on an untraced pass and
half on a pass with every layer wrapped (see ``tracing.py``), and
prints the per-layer metrics, per op, plus both passes' ``ops_per_s``
(their ratio is the tracing overhead). Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; each run also leaves ``step.jsonl`` and
``summary.json`` under ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import time

import numpy as np

import common

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: The tail percentile each workload reports (see README: percentile rule),
#: and the op count that leaves at least ten samples beyond it.
TAIL_PCT = {"ingest": 95.0, "cold_analysis": 75.0, "service_mix": 99.0}
MIN_OPS = {name: int(10 * 100 / (100 - pct)) for name, pct in TAIL_PCT.items()}


def load_spec() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units; BENCHMARK.json is their one home."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def ops_per_s(result) -> float:
    """Ops of a typical round over its timed wall time.

    Every round runs the same ops, and the median round shrugs off a
    burst of host noise that a total over the pass would carry.
    """
    return len(result.ops) / result.rounds / statistics.median(result.round_walls)


def end_to_end(name: str, setup_times, result) -> tuple[dict, dict]:
    latencies = np.array([op.latency_s for op in result.ops])
    pct = TAIL_PCT[name]
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s(result),
        "op_p50_ms": float(np.percentile(latencies, 50.0)) * 1e3,
        "op_tail_ms": float(np.percentile(latencies, pct)) * 1e3,
        "sim_io_ms_per_op": result.sim_s * 1e3 / len(latencies),
        "io_bytes_per_field_byte": result.io_bytes / max(1, result.field_bytes),
        "l0_nrmse": result.errors.nrmse,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    tail = {"percentile": pct, "samples": len(latencies),
            "beyond": int(len(latencies) * (100.0 - pct) / 100.0)}
    return values, tail


def per_layer(tracer, traced, untraced) -> dict:
    """Per-layer figures of the traced pass; times, counts and bytes are per op.

    A figure whose wrapped functions were all missing is ``None``
    (unmeasured), never 0.
    """
    t, c, ops = tracer, traced.counters, len(traced.ops)

    def layer(group: str, value):
        return None if t.group_unmeasured(group) else value()

    def self_s(group: str):
        return layer(group, lambda: t.self_seconds(group) / ops)

    def calls(group: str):
        return layer(group, lambda: t.calls(group) / ops)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def wire() -> float:
        client = sum(s.duration for s in t.spans if s.group == "service.client")
        handle = sum(s.duration for s in t.spans if s.group == "service.node")
        return max(0.0, client - handle) / ops

    values = {
        "mesh.decimate_s": self_s("mesh.decimate"),
        "mesh.decimate_calls": calls("mesh.decimate"),
        "mesh.locate_s": self_s("mesh.locate"),
        "refactor.plan_build_s": self_s("refactor.plan_build"),
        "refactor.mapping_s": self_s("refactor.mapping"),
        "refactor.replay_s": self_s("refactor.replay"),
        "refactor.delta_s": self_s("refactor.delta"),
        "refactor.plan_cache_hits": c.get("plan_cache_hits", 0) / ops,
        "refactor.plan_cache_misses": c.get("plan_cache_misses", 0) / ops,
        "compress.encode_s": self_s("compress.encode"),
        "compress.encode_calls": calls("compress.encode"),
        "compress.encode_out_per_in": layer("compress.encode", lambda: ratio(
            t.bytes_out("compress.encode"), t.bytes_in("compress.encode"))),
        "compress.decode_s": self_s("compress.decode"),
        "compress.decode_calls": calls("compress.decode"),
        "io.write_s": self_s("io.write"),
        "io.open_s": self_s("io.open"),
        "io.read_s": self_s("io.read"),
        "io.range_cache_hit_ratio": ratio(
            c.get("range_cache_hits", 0),
            c.get("range_cache_hits", 0) + c.get("range_cache_misses", 0)),
        "storage.put_s": self_s("storage.put"),
        "storage.put_calls": calls("storage.put"),
        "storage.put_bytes": layer("storage.put", lambda: t.bytes_in("storage.put") / ops),
        "storage.get_s": self_s("storage.get"),
        "storage.get_calls": calls("storage.get"),
        "storage.get_bytes": layer("storage.get",
                                   lambda: t.bytes_out("storage.get") / ops),
        "decode.restore_s": self_s("decode.restore"),
        "decode.read_base_s": self_s("decode.read_base"),
        "decode.refine_s": self_s("decode.refine"),
        "decode.apply_delta_s": self_s("decode.apply_delta"),
        "decode.restored_cache_hits": c.get("restored_cache_hits", 0) / ops,
        "decode.restored_cache_misses": c.get("restored_cache_misses", 0) / ops,
        "decode.geometry_cache_hits": c.get("geometry_cache_hits", 0) / ops,
        "decode.geometry_cache_misses": c.get("geometry_cache_misses", 0) / ops,
        "query.plan_s": self_s("query.plan"),
        "query.execute_s": self_s("query.execute"),
        "query.pushdown_s": self_s("query.pushdown"),
        "query.skipped_bytes_ratio": layer("query.plan", lambda: ratio(
            t.bytes_out("query.plan"),
            t.bytes_in("query.plan") + t.bytes_out("query.plan"))),
        "session.open_s": self_s("session.open"),
        "session.restore_s": self_s("session.restore"),
        "service.wire_s": layer("service.node", wire),
        "service.node_s": self_s("service.node"),
        "service.datanode_wait_s": layer(
            "service.datanode", lambda: t.remote_wait("service.datanode") / ops),
        "service.response_bytes": layer("service.node",
                                        lambda: t.bytes_out("service.node") / ops),
        "trace.ops_per_s": ops_per_s(traced),
        "trace.untraced_ops_per_s": ops_per_s(untraced),
    }
    values["trace.slowdown"] = (values["trace.untraced_ops_per_s"]
                                / values["trace.ops_per_s"])
    for op, prefix in (("write", "sim_write_ms"), ("read", "sim_read_ms")):
        for tier in ("tmpfs", "lustre"):
            values[f"storage.{prefix}.{tier}"] = (
                c.get(f"sim_{op}_s.{tier}", 0.0) * 1e3 / ops)
    for tier in ("tmpfs", "lustre"):
        values[f"storage.bytes_read.{tier}"] = c.get(f"bytes_read.{tier}", 0) / ops
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.bootstrap()
    except common.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    end_to_end_units, per_layer_units = load_spec()

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    workdir = common.STATE_DIR / "work" / tag
    record = common.RunRecord(common.STATE_DIR / "runs" / tag)
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.FULL, workdir)
    try:
        setup_times = []
        workloads.clear_process_caches()
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            workload.setup(rep)
            setup_times.append(time.perf_counter() - t0)
            gc.collect()
        if args.trace:
            untraced = workload.run_pass(args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                result = workload.run_pass(args.seconds / 2, tracer, record,
                                           MIN_OPS[args.workload])
            finally:
                tracer.uninstall()
            tracer.write_jsonl(record.dir / "spans.jsonl")
            passes = [untraced, result]
        else:
            result = workload.run_pass(args.seconds, None, record,
                                       MIN_OPS[args.workload])
            passes = [result]
    finally:
        record.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.ops) for p in passes)
    failed = sum(op.failed for p in passes for op in p.ops)
    e2e, tail = end_to_end(args.workload, setup_times, result)
    # Positive, finite figures on working code; a zero would hide a fault.
    correct = all(v > 0 and v == v for v in e2e.values())
    values, units = ((per_layer(tracer, result, untraced), per_layer_units)
                     if args.trace else (e2e, end_to_end_units))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record.summary({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": common.host_fingerprint(),
        "widths": workload.widths, "setup_s": setup_times,
        "rounds": [p.rounds for p in passes], "attempted": attempted,
        "failed": failed, "tail": tail, "end_to_end": e2e,
        "failures": sorted({op.reason for p in passes for op in p.ops if op.failed}),
        "unmeasured": sorted(n for n, m in metrics.items() if m["value"] is None),
        "metrics": metrics,
    })
    print(f"{args.workload}: {attempted} ops, {failed} failed; op_tail_ms is "
          f"p{tail['percentile']:g} of {tail['samples']} samples "
          f"({tail['beyond']} beyond); record in {record.dir}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
