"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import resource

import numpy as np


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def interquartile_mean(values) -> float:
    """Mean of the middle half: ignores stray outliers like a median,
    but stays put when the values fall into two steady clusters."""
    v = np.sort(np.asarray(values, dtype=float))
    cut = v.size // 4
    return float(v[cut:v.size - cut].mean())


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb(with_children: bool = False) -> float:
    """Peak RSS of this process (plus its largest waited-for child)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


class Result:
    """What one workload run hands back to ``run.py``."""

    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        self.notes: dict[str, object] = {}

    def check(self, fn, *args):
        """Run an independent check; a failure marks the run incorrect
        (and is reported) instead of aborting it."""
        from checks import CheckFailure

        try:
            return fn(*args)
        except CheckFailure as exc:
            self.correct = False
            self.notes["check_failed"] = str(exc)
            return None
