"""Multi-index enumeration shared by the rule and polynomial machinery."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np


@lru_cache(maxsize=None)
def compositions(K: int, n: int) -> np.ndarray:
    """All multi-indices of K nonnegative integers summing to n.

    Deterministic order; shape ``(C(n+K-1, K-1), K)``.  Cached because the
    same (K, n) pairs recur in inner loops.
    """
    if K < 1 or n < 0:
        raise ValueError(f"need K >= 1 and n >= 0, got K={K}, n={n}")
    rows = []
    for bars in combinations(range(n + K - 1), K - 1):
        prev = -1
        row = []
        for bar in bars:
            row.append(bar - prev - 1)
            prev = bar
        row.append(n + K - 2 - prev)
        rows.append(row)
    out = np.array(rows, dtype=np.int64).reshape(-1, K)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def multinomial_coefficients(K: int, n: int) -> np.ndarray:
    """Exact multinomial coefficients ``n! / prod(z_i!)`` aligned with :func:`compositions` (float array)."""
    out = np.array([math.factorial(n) // math.prod(math.factorial(int(v)) for v in z) for z in compositions(K, n)],
                   dtype=float)
    out.flags.writeable = False
    return out


def composition_pmf(K: int, n: int, X: np.ndarray) -> np.ndarray:
    """Multinomial(n, x) probability of each row of :func:`compositions`.

    ``X`` is one frequency vector ``(K,)`` or a batch ``(R, K)``; the result
    has shape ``(C,)`` or ``(R, C)``.  A zero frequency gives ``0**0 = 1`` on
    the multi-indices that leave that type out and 0 on the rest.
    """
    X = np.asarray(X, dtype=float)
    return multinomial_coefficients(K, n) * np.prod(X[..., None, :] ** compositions(K, n), axis=-1)


@lru_cache(maxsize=None)
def composition_index(K: int, n: int) -> dict[tuple[int, ...], int]:
    """Row lookup: multi-index tuple -> row position in :func:`compositions`."""
    Z = compositions(K, n)
    return {tuple(int(v) for v in row): i for i, row in enumerate(Z)}
