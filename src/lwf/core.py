"""Shared domain types: frequency vectors, JSON numbers, offspring laws.

The state of every process in this package is a point on the face
``x_1 + ... + x_K = 1`` of the K-simplex: the vector of type frequencies.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-12


def as_frequencies(x) -> np.ndarray:
    """Validate and return ``x`` as a float frequency vector.

    Requires K >= 2, coordinates in [0, 1] and total 1 within ``SIMPLEX_TOL``.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"frequency vector must be 1-d with K >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("frequency vector has non-finite entries")
    if arr.min() < -SIMPLEX_TOL or arr.max() > 1.0 + SIMPLEX_TOL:
        raise ValueError(f"coordinates must lie in [0, 1], got {arr}")
    total = float(arr.sum())
    if abs(total - 1.0) > max(SIMPLEX_TOL, arr.size * 2e-16):
        raise ValueError(f"coordinates must sum to 1 (got {total!r})")
    return np.clip(arr, 0.0, 1.0)


def round_to_counts(x, N: int) -> np.ndarray:
    """Apportion ``x`` to integer type counts summing to ``N``.

    Largest-remainder rounding: floor everything, then hand the leftover
    slots to the largest fractional parts (ties broken by lower index).
    """
    x = as_frequencies(x)
    raw = x * N
    counts = np.floor(raw).astype(np.int64)
    short = N - int(counts.sum())
    if short > 0:
        order = np.lexsort((np.arange(x.size), -(raw - counts)))
        counts[order[:short]] += 1
    return counts


def _type_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` for ``K >= 2`` types, added in type order, so a row's sum is the same in every memory
    layout and in a block of any height."""
    total = x[..., 0] + x[..., 1]
    for i in range(2, x.shape[-1]):
        total += x[..., i]
    return total


def _categorical(P: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One type per column of type-major weights ``(K, m)``, by inverse cdf at that column's uniform in ``[0, 1)``;
    the weights need not sum to 1."""
    cdf = np.add.accumulate(P)
    # u < 1 rounds u * total to at most total, so the last row never counts and the draw stays below K
    return np.add.reduce(cdf < u * cdf[-1], axis=0, dtype=np.intp)


def random_interior_points(rng: np.random.Generator, K: int, n: int, min_coord: float = 0.02) -> np.ndarray:
    """Uniform simplex points conditioned away from the boundary: every coordinate at least ``min_coord``.

    A draw is kept with probability ``(1 - K * min_coord)**(K - 1)``, so ``min_coord`` must lie in [0, 1/K).
    """
    if not 0 <= min_coord < 1 / K:
        raise ValueError(f"min_coord must lie in [0, 1/K) = [0, {1 / K:g}), got {min_coord}")
    out = np.empty((n, K))
    filled = 0
    while filled < n:
        cand = rng.dirichlet(np.ones(K), size=n - filled)
        good = cand.min(axis=1) >= min_coord
        m = int(good.sum())
        out[filled : filled + m] = cand[good]
        filled += m
    return out


def is_number(value) -> bool:
    """The one rule for a number read from a config: an int or a float, not a ``bool`` or a ``str``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Offspring law
# ---------------------------------------------------------------------------

_KEYS = {2: ("a", "sample size"), 1: ("an", "extra-parent count")}  # by floor: the article and the noun


def integer_law(law, floor: int, name: str) -> tuple[tuple[int, float], ...]:
    """The one rule for the law of a sample size k (``floor`` 2) or of its k - 1 extra parents (``floor`` 1).

    Every key of the mapping ``law``, zero-weight ones too, is an integer (or
    its decimal string) >= ``floor``, every weight a nonnegative number
    (:func:`is_number`), and the positive weights sum to 1 within 1e-9.
    Returns those in key order, divided by their sum.  A ValueError names
    ``name``, the key as written and the rule it breaks.
    """
    article, noun = _KEYS[floor]
    if not isinstance(law, Mapping):
        raise ValueError(f"{name} must map {noun}s to weights, got {law!r}")
    weights = {}
    for key, value in law.items():
        try:
            k = int(key) if isinstance(key, str) else operator.index(key)
        except (TypeError, ValueError):
            k = floor - 1
        if k < floor:
            raise ValueError(f"{name} key {key!r} must be {article} {noun} >= {floor}")
        if k in weights:
            raise ValueError(f"{name} key {key!r} repeats the key {k}")
        try:
            weights[k] = w = float(value) if is_number(value) else math.nan
        except OverflowError:
            w = math.nan
        if not w >= 0:
            raise ValueError(f"{name} key {key!r} has a negative weight, {w}" if w < 0
                             else f"{name} key {key!r} has a weight that is not a number, {value!r}")
    items = sorted((k, w) for k, w in weights.items() if w > 0)
    total = sum(w for _, w in items)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name} weights must sum to 1, got {total}")
    return tuple((k, w / total) for k, w in items)


@dataclass(frozen=True)
class OffspringLaw:
    """Number of potential parents sampled by one offspring.

    ``P(1) = 1 - rho`` and ``P(k) = rho * tail[k]`` for ``k >= 2``.  ``rho``
    is the selection-strength knob that is sent to zero in the scaling limit;
    ``tail`` is the fixed conditional law of larger samples.
    """

    rho: float
    tail: tuple[tuple[int, float], ...]

    def __init__(self, rho: float, tail):
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {rho}")
        object.__setattr__(self, "rho", float(rho))
        object.__setattr__(self, "tail", integer_law(tail, 2, "tail"))
