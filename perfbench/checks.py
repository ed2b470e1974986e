"""Correctness checks, computed with numpy apart from the program.

Each check returns ``None`` when the output passes and a one-line
reason when it does not. The checks rest either on the raw input the
benchmark generated itself or on properties the method must have:

* the certified bound of EXPERIMENTS.md: with N levels and a codec
  tolerance τ relative to the variable's range, every level-0 value is
  within ``N·τ·range`` of the raw input (one codec bound per product
  on the restore chain);
* mesh level sizes halve (paper Fig. 4): ``|V⁰|/|Vˡ| = 2ˡ ± 5 %``.
"""

from __future__ import annotations

import numpy as np


def certified_bound(raw: np.ndarray, num_levels: int, rel_tol: float) -> float:
    return num_levels * rel_tol * float(np.ptp(raw))


def error_bound(restored: np.ndarray, raw: np.ndarray, bound: float) -> str | None:
    restored = np.asarray(restored)
    if restored.shape != raw.shape:
        return f"shape {restored.shape} != raw {raw.shape}"
    if not np.all(np.isfinite(restored)):
        return "non-finite values"
    err = float(np.max(np.abs(restored - raw))) if raw.size else 0.0
    if err > bound:
        return f"max error {err:.3g} exceeds certified bound {bound:.3g}"
    return None


def region_equal(region_field, full_field, mask: np.ndarray) -> str | None:
    """A region restore equals the full restore on the region's vertices."""
    a = np.asarray(region_field)[..., mask]
    b = np.asarray(full_field)[..., mask]
    if not np.array_equal(a, b):
        return (f"region differs from full restore by up to "
                f"{float(np.max(np.abs(a - b))):.3g}")
    return None


def level_sizes(counts, step_ratio: float = 2.0, tol: float = 0.05) -> str | None:
    counts = [int(c) for c in counts]
    for lvl, n in enumerate(counts):
        want = step_ratio ** lvl
        got = counts[0] / n
        if abs(got - want) > tol * want:
            return f"|V0|/|V{lvl}| = {got:.3f}, expected {want:g} ± {tol:.0%}"
    return None


def tolerance_stop(achieved: int, reference: int) -> str | None:
    if achieved != reference:
        return (f"restore(tolerance) stopped at level {achieved}, "
                f"refine_until stops at {reference}")
    return None


def _stats_of(values: np.ndarray) -> dict:
    v = np.asarray(values, dtype=np.float64).ravel()
    return {
        "vmin": float(v.min()),
        "vmax": float(v.max()),
        "mean": float(v.mean()),
        "rms": float(np.sqrt(np.mean(v * v))),
        "count": int(v.size),
    }


def stats_match(reported: dict, raw: np.ndarray, mask, bound: float) -> str | None:
    """Pushdown stats against numpy over the raw field.

    Without a region the answer is exact: every statistic within the
    bound and the same count. With a region the planner answers at chunk
    granularity over the chunks that intersect the window, a superset of
    the window's vertices, so the answer must enclose the window's.
    """
    stats = reported.get("stats")
    if not isinstance(stats, dict):
        return "no stats in the answer"
    if mask is None:
        want = _stats_of(raw)
        if int(stats.get("count", -1)) != want["count"]:
            return f"count {stats.get('count')} != {want['count']}"
        for key in ("vmin", "vmax", "mean", "rms"):
            if abs(float(stats[key]) - want[key]) > bound:
                return f"{key} {stats[key]:.6g} != numpy {want[key]:.6g}"
        return None
    window = raw[..., mask]
    if window.size == 0:
        return None
    want = _stats_of(window)
    if int(stats.get("count", -1)) < want["count"]:
        return f"count {stats.get('count')} < window count {want['count']}"
    if float(stats["vmin"]) > want["vmin"] + bound:
        return f"vmin {stats['vmin']:.6g} above window min {want['vmin']:.6g}"
    if float(stats["vmax"]) < want["vmax"] - bound:
        return f"vmax {stats['vmax']:.6g} below window max {want['vmax']:.6g}"
    return None


def blob_screen(reported: dict, raw: np.ndarray, threshold: float,
                bound: float) -> str | None:
    """Blob screen against a numpy threshold screen of the raw field.

    Where the raw maximum clears the threshold by more than the bound,
    the query must find a blob; where it stays below by more than the
    bound, it must find none. In between, either answer is right.
    """
    count = int(reported.get("count", -1))
    if count < 0:
        return "no blob count in the answer"
    if count != len(reported.get("blobs", [])):
        return f"count {count} != {len(reported.get('blobs', []))} blobs listed"
    peak = float(np.max(raw))
    if peak >= threshold + bound and count == 0:
        return f"raw max {peak:.4g} above threshold {threshold:.4g}, no blob found"
    if peak < threshold - bound and count > 0:
        return f"raw max {peak:.4g} below threshold {threshold:.4g}, {count} blobs found"
    return None


def payload_identical(got, want) -> str | None:
    if isinstance(want, np.ndarray):
        got = np.asarray(got)
        if got.dtype != want.dtype or got.shape != want.shape:
            return f"payload {got.dtype}{got.shape} != {want.dtype}{want.shape}"
        if not np.array_equal(got, want):
            return "payload differs from the in-process Session result"
        return None
    if got != want:
        return "payload differs from the in-process Session result"
    return None


class ErrorTally:
    """Pooled normalised RMS error of level-0 fields against the raw input."""

    def __init__(self) -> None:
        self.sq = 0.0
        self.n = 0

    def add(self, restored: np.ndarray, raw: np.ndarray, weight: int = 1) -> None:
        span = float(np.ptp(raw)) or 1.0
        diff = (np.asarray(restored, dtype=np.float64) - raw) / span
        self.sq += weight * float(np.sum(diff * diff))
        self.n += weight * diff.size

    @property
    def nrmse(self) -> float:
        return (self.sq / self.n) ** 0.5 if self.n else 0.0
