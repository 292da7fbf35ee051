"""Fixed reference kernel used to scale times for machine speed.

Shared machines change speed from one second to the next when other
tenants load the caches, memory bus or CPU.  The benchmark times this
kernel before every op and around every set-up spawn, and multiplies
each measured time by ``speed_factor``: the time is reported as it would
read on a machine where the kernel's parts take ``REFERENCE_MS``.  Raw
wall times stay in the run record.

The kernel is benchmark code, so no change to the package moves it.
Its three parts mirror the kinds of work in the workloads: float text
formatting and parsing (the CSV path), numpy calls on tiny arrays
(per-call overhead) and one residual-and-rank pass over a 4.2 MB (n, 3)
array (the large fits).  Each workload scales by the parts that match
its own work (``reference_parts`` in ``workloads.py``).
"""

from __future__ import annotations

import time

import numpy as np

# Part times in ms, near their lower quartile on the 2-core Xeon used to
# define the benchmark (numpy 2.4, OpenBLAS, 1 thread).  They fix the
# scale of every reported time and must not change.
REFERENCE_MS = {"text": 4.0, "calls": 12.0, "fit": 50.0}


class ReferenceKernel:
    """Times the chosen parts; builds only the data those parts use, so
    that the kernel adds nothing to another workload's peak memory."""

    REPEATS = {"text": 6, "calls": 6, "fit": 1}

    def __init__(self, use: tuple[str, ...]):
        self.use = use
        rng = np.random.default_rng(20131126)
        self.values = rng.standard_normal(600).tolist()
        self.small = rng.standard_normal((64, 3))
        if "fit" in use:
            self.bulk = rng.standard_normal((175_616, 3))

    def _text(self) -> float:
        line = ",".join(repr(v) for v in self.values)
        return sum(float(p) for p in line.split(","))

    def _calls(self) -> np.ndarray:
        acc = np.zeros(3)
        for i in range(63):
            v = np.asarray(self.small[i], dtype=float).reshape(3).copy()
            if np.all(np.isfinite(v)):
                acc += np.cross(v, self.small[i + 1])
        return acc

    def _fit(self) -> float:
        rel = self.bulk - self.bulk.mean(axis=0)
        res = rel - np.cross(self.bulk[0], rel)
        score = np.abs(res).max(axis=1)
        order = np.argsort(score, kind="stable")
        keep = np.ones(score.size, dtype=bool)
        keep[order[-score.size // 10:]] = False
        return float(rel[keep].sum())

    def parts(self) -> dict[str, float]:
        """Wall time of each chosen kernel part, seconds."""
        out = {}
        for name in self.use:
            fn = getattr(self, "_" + name)
            start = time.perf_counter()
            for _ in range(self.REPEATS[name]):
                fn()
            out[name] = time.perf_counter() - start
        return out


def speed_factor(passes: list[dict[str, float]]) -> float:
    """Reference time over measured time, pooled over the kernel passes
    given; 1 means the machine ran at the reference speed."""
    measured = sum(sum(p.values()) for p in passes)
    return sum(REFERENCE_MS[k] for p in passes for k in p) / 1e3 / measured
