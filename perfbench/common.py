"""Shared pieces: locating the program, pool widths, host and run records."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch hierarchies and run records, inside the checkout (git-ignored).
STATE_DIR = ROOT / ".perfbench"

class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def bootstrap() -> None:
    """Put the checkout's ``src`` on the import path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_width() -> int:
    """Width of every pool and client count a workload sets (<= nproc)."""
    return max(1, min(2, nproc()))


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


class RunRecord:
    """``step.jsonl`` (one line per op) plus ``summary.json`` for one run."""

    def __init__(self, directory: Path) -> None:
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self._steps = open(self.dir / "step.jsonl", "w")

    def step(self, **fields) -> None:
        self._steps.write(json.dumps(fields, sort_keys=True) + "\n")

    def summary(self, data: dict) -> None:
        (self.dir / "summary.json").write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )

    def close(self) -> None:
        self._steps.close()
