"""Multi-level refactoring driver (decimation + delta chain).

One refactoring pass produces, from ``(G^0, L^0)``:

* the level meshes ``G^1 .. G^{N−1}`` and fields ``L^1 .. L^{N−1}``
  (paper Alg. 1, one :func:`~repro.mesh.edge_collapse.decimate` call per
  step);
* the mappings ``mapping^l`` (fine vertex → coarse triangle, §III-E2);
* the deltas ``delta^{l-(l+1)}`` (paper Alg. 2).

Only ``L^{N−1}`` (the base) and the deltas are persisted — the
intermediate levels exist transiently, which is the whole point of
Motivation 2 (Canopus vs. naive multi-level compression). Per-phase wall
times are recorded for the write-cost study (Fig. 6b).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.decimation_plan import (
    DecimationPlan,
    get_plan_cache,
    plan_eligible,
)
from repro.core.delta import compute_delta
from repro.core.mapping import LevelMapping, build_mapping
from repro.core.notation import LevelScheme
from repro.errors import RefactoringError
from repro.mesh.edge_collapse import decimate
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace

__all__ = ["RefactorResult", "refactor"]


@dataclass
class RefactorResult:
    """All products of one refactoring pass.

    Attributes
    ----------
    scheme:
        The level progression used.
    meshes:
        ``meshes[l]`` is ``G^l``; index 0 is the input mesh.
    levels:
        ``levels[l]`` is ``L^l``; only ``levels[-1]`` (the base) is
        persisted by the encoder.
    deltas:
        ``deltas[l] = delta^{l-(l+1)}`` for ``0 <= l < N−1``.
    mappings:
        ``mappings[l]`` lifts level ``l+1`` to ``l``.
    decimation_seconds / delta_seconds:
        Wall time spent in each phase (Fig. 6b inputs).
    """

    scheme: LevelScheme
    meshes: list[TriangleMesh]
    levels: list[np.ndarray]
    deltas: list[np.ndarray]
    mappings: list[LevelMapping]
    decimation_seconds: float = 0.0
    delta_seconds: float = 0.0
    achieved_ratios: list[float] = field(default_factory=list)
    plan: DecimationPlan | None = None

    @property
    def base_field(self) -> np.ndarray:
        return self.levels[-1]

    @property
    def base_mesh(self) -> TriangleMesh:
        return self.meshes[-1]


def refactor(
    mesh: TriangleMesh,
    data: np.ndarray,
    scheme: LevelScheme,
    *,
    estimator: str = "mean",
    priority: str = "length",
    method: str = "serial",
    workers: int | None = None,
    plan: DecimationPlan | None = None,
    use_plan_cache: bool = True,
    arena=None,
) -> RefactorResult:
    """Refactor ``(mesh, data)`` into a base + delta chain.

    Parameters
    ----------
    scheme:
        Number of levels and the per-step decimation ratio.
    estimator:
        ``Estimate()`` form for the deltas: ``"mean"`` (paper) or
        ``"barycentric"`` (ablation).
    priority:
        Edge-collapse priority strategy (see
        :func:`repro.mesh.edge_collapse.decimate`).
    method:
        Decimation kernel: ``"serial"`` (Algorithm 1's heap loop) or
        ``"batched"`` (round-based vectorized kernel).
    workers:
        With ``workers > 1``, per-level delta computations run on a
        thread pool.
    plan:
        A prebuilt :class:`~repro.core.decimation_plan.DecimationPlan`
        for this exact mesh + scheme; skips all geometry work.
    use_plan_cache:
        When true (default) and the priority is geometry-determined,
        consult the process-wide plan cache so repeated refactorings of
        the same mesh decimate once and replay thereafter. The replayed
        results are bit-identical to the direct path.
    arena:
        Optional buffer pool (``take(shape)`` / ``give(buf)``, e.g.
        :class:`~repro.core.encode_scheduler.BufferArena`) forwarded to
        the plan replay so streaming callers reuse scratch across
        fields. Ignored on the direct (data-aware) path.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim not in (1, 2) or data.shape[-1] != mesh.num_vertices:
        raise RefactoringError(
            f"data of shape {data.shape} does not match "
            f"{mesh.num_vertices} vertices (expect (n,) or (planes, n))"
        )

    if plan is None and use_plan_cache and plan_eligible(priority):
        # The collapse sequence depends only on geometry, so the cached
        # (or freshly built) plan reproduces the direct path exactly.
        t0 = time.perf_counter()
        with trace.span(
            "refactor.decimate", "refactor",
            {"levels": scheme.num_levels, "method": method, "plan": True},
        ):
            plan = get_plan_cache().get_or_build(
                mesh, scheme, method=method, priority=priority,
                estimator=estimator,
            )
            levels = plan.coarsen(data, arena=arena)
        t_decimate = time.perf_counter() - t0
    elif plan is not None:
        if plan.scheme != scheme:
            raise RefactoringError(
                f"plan was built for {plan.scheme}, not {scheme}"
            )
        t0 = time.perf_counter()
        with trace.span(
            "refactor.decimate", "refactor",
            {"levels": scheme.num_levels, "method": plan.method,
             "plan": True},
        ):
            levels = plan.coarsen(data, arena=arena)
        t_decimate = time.perf_counter() - t0
    else:
        plan = None
        levels = None
        t_decimate = 0.0

    if plan is not None:
        t0 = time.perf_counter()
        with trace.span(
            "refactor.delta", "refactor",
            {"levels": scheme.num_levels, "workers": workers or 1},
        ):
            deltas = plan.deltas_for(levels, workers=workers)
        t_delta = time.perf_counter() - t0
        return RefactorResult(
            scheme=scheme,
            meshes=plan.meshes,
            levels=levels,
            deltas=deltas,
            mappings=plan.mappings,
            decimation_seconds=t_decimate,
            delta_seconds=t_delta,
            achieved_ratios=list(plan.achieved_ratios),
            plan=plan,
        )

    # --- direct path: data-aware / callable priorities ----------------------
    planes = data.shape[0] if data.ndim == 2 else 0  # 0 = un-stacked

    def _to_fields(level_data: np.ndarray) -> dict[str, np.ndarray]:
        if planes:
            return {str(p): level_data[p] for p in range(planes)}
        return {"data": level_data}

    def _from_fields(fields: dict[str, np.ndarray]) -> np.ndarray:
        if planes:
            return np.stack([fields[str(p)] for p in range(planes)])
        return fields["data"]

    meshes: list[TriangleMesh] = [mesh]
    levels = [data]
    ratios: list[float] = [1.0]
    t_decimate = 0.0
    for step in range(scheme.num_levels - 1):
        t0 = time.perf_counter()
        with trace.span(
            "refactor.decimate", "refactor",
            {"level": step + 1, "vertices_in": meshes[-1].num_vertices,
             "method": method},
        ):
            result = decimate(
                meshes[-1],
                _to_fields(levels[-1]),
                ratio=scheme.step_ratio,
                priority=priority,
                method=method,
            )
        t_decimate += time.perf_counter() - t0
        meshes.append(result.mesh)
        levels.append(_from_fields(result.fields))
        ratios.append(mesh.num_vertices / result.mesh.num_vertices)

    deltas: list[np.ndarray] = []
    mappings: list[LevelMapping] = []
    t_delta = 0.0

    def _one_delta(lvl: int) -> tuple[LevelMapping, np.ndarray]:
        mapping = build_mapping(
            meshes[lvl], meshes[lvl + 1], estimator=estimator
        )
        return mapping, compute_delta(levels[lvl], levels[lvl + 1], mapping)

    delta_levels = list(scheme.delta_levels())
    if workers and workers > 1 and len(delta_levels) > 1:
        from concurrent.futures import ThreadPoolExecutor

        t0 = time.perf_counter()
        with trace.span(
            "refactor.delta", "refactor",
            {"levels": len(delta_levels), "workers": workers},
        ):
            with ThreadPoolExecutor(
                max_workers=min(workers, len(delta_levels))
            ) as pool:
                for mapping, delta in pool.map(_one_delta, delta_levels):
                    deltas.append(delta)
                    mappings.append(mapping)
        t_delta = time.perf_counter() - t0
    else:
        for lvl in delta_levels:
            t0 = time.perf_counter()
            with trace.span("refactor.delta", "refactor", {"level": lvl}):
                mapping, delta = _one_delta(lvl)
            t_delta += time.perf_counter() - t0
            deltas.append(delta)
            mappings.append(mapping)

    return RefactorResult(
        scheme=scheme,
        meshes=meshes,
        levels=levels,
        deltas=deltas,
        mappings=mappings,
        decimation_seconds=t_decimate,
        delta_seconds=t_delta,
        achieved_ratios=ratios,
    )
