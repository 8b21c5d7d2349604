"""Scalar reference kernels for the vectorised build kernels.

The OPT-A bucket-term precompute and the interval DP's layer fill run
as whole-row / whole-layer numpy kernels in ``src/repro``.  These are
the per-bucket and per-prefix loops they replaced, kept only as
differential oracles: tests monkeypatch them over
``repro.core.opt_a._precompute_terms`` and
``repro.internal.dp._fill_layer`` and require bitwise-identical builds.
"""

from __future__ import annotations

import numpy as np

from repro.core.opt_a import _BucketTerms
from repro.internal.deadline import check_deadline
from repro.internal.prefix import PrefixAlgebra


def precompute_terms_scalar(algebra: PrefixAlgebra, pool=None) -> _BucketTerms:
    """Per-bucket scalar OPT-A precompute, one ``rounded_bucket_terms`` call each."""
    del pool  # accepted for signature compatibility; always serial
    n = algebra.n
    shape = (n, n)
    s1 = np.zeros(shape)
    s2 = np.zeros(shape)
    p1 = np.zeros(shape)
    p2 = np.zeros(shape)
    intra = np.zeros(shape)
    for a in range(n):
        check_deadline("OPT-A bucket-term precompute")
        for b in range(a, n):
            s1[a, b], s2[a, b], p1[a, b], p2[a, b], intra[a, b] = (
                algebra.rounded_bucket_terms(a, b)
            )
    return _BucketTerms(s1=s1, s2=s2, p1=p1, p2=p2, intra=intra)


def fill_layer_scalar(prev: np.ndarray, cost: np.ndarray, merge):
    """Per-prefix interval-DP layer fill with a first-smallest-``j`` tie-break."""
    n = cost.shape[0]
    values = np.empty(n)
    parents = np.empty(n, dtype=np.int64)
    for i in range(1, n + 1):
        candidates = merge(prev[:i], cost[:i, i - 1])
        j = int(np.argmin(candidates))
        values[i - 1] = candidates[j]
        parents[i - 1] = j
    return values, parents
