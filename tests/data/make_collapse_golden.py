"""Generate ``collapse_golden.json``: digests of serial edge-collapse runs.

The fixture pins the serial kernel of
:func:`repro.mesh.edge_collapse.decimate` (paper Algorithm 1) to one
exact collapse sequence. For every case it stores SHA-256 digests of the
output vertices, triangles and fields, of every
:class:`~repro.mesh.lineage.CollapseLineage` array, and the
``collapses`` / ``skipped`` / ``exhausted`` / ``queue_stats`` counts, per
level of a decimation chain. ``tests/test_collapse_golden.py`` re-runs
each case and compares.

Regenerate only when the serial kernel's output is *meant* to change,
never to make a rewrite pass::

    PYTHONPATH=src python tests/data/make_collapse_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.errors import DecimationError
from repro.mesh import TriangleMesh, decimate
from repro.mesh.generators import disk
from repro.simulations.cfd import make_cfd
from repro.simulations.genasis import make_genasis
from repro.simulations.xgc1 import make_xgc1

GOLDEN_PATH = Path(__file__).with_name("collapse_golden.json")


def _islands(*, scale: int, seed: int):
    """``scale`` disjoint 40-point disks side by side."""
    parts = [disk(40, seed=seed + i) for i in range(scale)]
    vertices = np.concatenate(
        [p.vertices + [3.0 * i, 0.0] for i, p in enumerate(parts)]
    )
    offsets = np.cumsum([0] + [p.num_vertices for p in parts[:-1]])
    triangles = np.concatenate(
        [p.triangles + off for p, off in zip(parts, offsets)]
    )
    mesh = TriangleMesh(vertices, triangles)
    return SimpleNamespace(mesh=mesh, field=np.sin(3.0 * vertices[:, 0]))


_MAKERS = {
    "xgc1": make_xgc1, "genasis": make_genasis, "cfd": make_cfd,
    "islands": _islands,
}


def _callable_priority(u: int, v: int) -> float:
    """A deterministic, heavily tied priority: exercises key tie-breaks,
    link-condition skips and out-of-length-order collapses."""
    return float((u * 7919 + v * 104729) % 211)


def _case(name, mesh, *, priority="length", placement="midpoint",
          fields="array", levels=1, ratio=2.0, lineage=True, strict=False):
    return {
        "name": name, "mesh": mesh, "priority": priority,
        "placement": placement, "fields": fields, "levels": levels,
        "ratio": ratio, "lineage": lineage, "strict": strict,
    }


def cases() -> list[dict]:
    """The golden matrix. ``mesh`` is ``[dataset, scale, seed]``."""
    out = []
    small = ["xgc1", 0.05, 5]
    for priority in ("length", "data_aware", "callable"):
        for placement in ("midpoint", "endpoint"):
            for fields in ("none", "array", "dict"):
                out.append(_case(
                    f"xgc1-0.05-{priority}-{placement}-{fields}", small,
                    priority=priority, placement=placement, fields=fields,
                    levels=2,
                ))
    mid = ["xgc1", 0.3, 5]  # the length priority hits link-condition skips
    out += [
        _case("xgc1-0.3-length-midpoint-array", mid, levels=3),
        _case("xgc1-0.3-length-midpoint-none-nolineage", mid, fields="none",
              levels=2, lineage=False),
        _case("xgc1-0.3-data_aware-endpoint-dict", mid,
              priority="data_aware", placement="endpoint", fields="dict",
              levels=3),
        _case("genasis-0.01-length-midpoint-array", ["genasis", 0.01, 11],
              levels=2),
        _case("genasis-0.01-data_aware-midpoint-dict", ["genasis", 0.01, 11],
              priority="data_aware", fields="dict", ratio=3.0),
        _case("cfd-0.1-length-endpoint-array", ["cfd", 0.1, 23],
              placement="endpoint", levels=2),
        _case("cfd-0.1-callable-midpoint-dict", ["cfd", 0.1, 23],
              priority="callable", fields="dict"),
        # Four disjoint disks cannot shrink below four vertices.
        _case("islands-exhaust-lenient", ["islands", 4, 0], ratio=1000.0),
        _case("islands-exhaust-strict", ["islands", 4, 0], ratio=1000.0,
              strict=True),
    ]
    return out


def _digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _inputs(case: dict):
    kind, scale, seed = case["mesh"]
    ds = _MAKERS[kind](scale=scale, seed=seed)
    field = ds.field
    if case["fields"] == "none":
        return ds.mesh, None
    if case["fields"] == "array":
        return ds.mesh, field
    second = np.cos(7.0 * ds.mesh.vertices[:, 0]) * ds.mesh.vertices[:, 1]
    return ds.mesh, {"f": field, "g": second}


def run_case(case: dict) -> list[dict]:
    """Run one case's decimation chain and digest every level."""
    mesh, fields = _inputs(case)
    priority = (
        _callable_priority if case["priority"] == "callable"
        else case["priority"]
    )
    levels = []
    for _ in range(case["levels"]):
        try:
            res = decimate(
                mesh, fields, case["ratio"], priority=priority,
                placement=case["placement"], strict=case["strict"],
                method="serial", record_lineage=case["lineage"],
            )
        except DecimationError as exc:
            levels.append({"error": str(exc)})
            break
        level = {
            "collapses": res.collapses,
            "skipped": res.skipped,
            "exhausted": res.exhausted,
            "queue_stats": dict(res.queue_stats),
            "vertices": _digest(res.mesh.vertices),
            "triangles": _digest(res.mesh.triangles),
            "fields": {k: _digest(v) for k, v in sorted(res.fields.items())},
        }
        if res.lineage is not None:
            lin = res.lineage
            level["lineage"] = {
                "n_fine": lin.n_fine,
                "placement": lin.placement,
                **{
                    name: _digest(getattr(lin, name))
                    for name in ("src_u", "src_v", "dst", "group_offsets",
                                 "alive_ids")
                },
            }
        levels.append(level)
        mesh = res.mesh
        if isinstance(fields, np.ndarray):
            fields = res.fields["data"]
        elif fields is not None:
            fields = res.fields
    return levels


def main() -> int:
    golden = {case["name"]: run_case(case) for case in cases()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
