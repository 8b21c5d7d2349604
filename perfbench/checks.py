"""The benchmark's own checks, run at the start of every run.

* the oracle fails a run whose answers carry one perturbed value, or a
  wrong tag, and passes the same answers unperturbed;
* self-time arithmetic is right on a small hand-built span tree;
* percentile reporting refuses a percentile with fewer than
  ``MIN_BEYOND`` samples beyond it.

``python3 perfbench/run.py --self-check`` runs them alone.
"""

from __future__ import annotations

import numpy as np

from perfbench.oracle import Ledger, References, check_read_only
from perfbench.percentiles import InsufficientSamples, percentile
from perfbench.tracing import self_times


def _oracle_checks() -> list[str]:
    rng = np.random.default_rng(0)
    values = np.concatenate((np.arange(64), rng.integers(0, 64, 500)))
    refs = References(values, [], 64, "sap1", 40, 4)
    lows = np.array([0, 3, 16, 5, 10, 0])
    highs = np.array([63, 40, 31, 5, 50, 15])
    aggs = np.array([0, 1, 2, 0, 1, 2])
    good = refs.expected(0, aggs, lows, highs)
    fresh = np.ones(lows.size, dtype=bool)
    problems = []

    def failures(estimates, tags) -> int:
        ledger = Ledger()
        check_read_only(ledger, refs, 0, aggs, lows, highs, estimates, tags)
        return ledger.failed

    if failures(good, fresh):
        problems.append("oracle rejects the twin's own answers")
    bad = good.copy()
    bad[1] += 1.0
    if failures(bad, fresh) != 1:
        problems.append("oracle accepts one perturbed answer")
    wrong_tag = fresh.copy()
    wrong_tag[4] = False
    if failures(good, wrong_tag) != 1:
        problems.append("oracle accepts an answer not tagged fresh")
    aligned = refs.aligned(lows, highs)
    if not aligned[[0, 2]].all() or not np.array_equal(
        good[aligned], refs.exact(0, aggs[aligned], lows[aligned], highs[aligned])
    ):
        problems.append("twin does not answer shard-aligned ranges exactly")
    return problems


def _self_time_checks() -> list[str]:
    # [id, parent, request, name, start, end, items]
    spans = [
        [1, 0, 1, "root", 0.0, 10.0, 0],
        [2, 1, 1, "a", 1.0, 4.0, 0],
        [3, 1, 1, "b", 3.0, 6.0, 0],  # overlaps a: the union 1..6 is covered once
        [4, 2, 1, "a.child", 2.0, 3.0, 0],
        [5, 3, 1, "b.child", 5.5, 7.0, 0],  # runs past b: clipped to 5.5..6
    ]
    want = {1: 5.0, 2: 2.0, 3: 2.5, 4: 1.0, 5: 1.5}
    got = self_times(spans)
    if any(abs(got[key] - value) > 1e-12 for key, value in want.items()):
        return [f"self times {got} != {want}"]
    return []


def _percentile_checks() -> list[str]:
    problems = []
    for n, q in ((19, 50), (199, 95), (39, 75)):
        try:
            percentile(range(n), q)
        except InsufficientSamples:
            continue
        problems.append(f"p{q} reported from {n} samples")
    for n, q, want in ((20, 50, 9), (200, 95, 189), (40, 75, 29)):
        if percentile(range(n), q) != want:
            problems.append(f"p{q} of range({n}) != {want}")
    return problems


def run_checks() -> list[str]:
    return _oracle_checks() + _self_time_checks() + _percentile_checks()
