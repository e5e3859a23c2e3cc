"""Colouring rules: how an offspring picks its type from sampled parents.

A rule maps the multiset of potential-parent types (a count vector over the
K types) to a probability distribution over the offspring's type.  All
built-in rules are exchangeable, so counts are a sufficient statistic for
the ordered sample.  Rules are immutable and all methods are pure; both
laws take batches, ``distribution_batch`` one count vector per row and
``type_law_batch`` one frequency vector per row.
"""

from __future__ import annotations

from math import comb, log2

import numpy as np

from .bernstein import PolynomialMap, bernstein_table
from .combinat import composition_index, composition_pmf, compositions
from .errors import build_kind

# Exact enumeration of samples of size k over K types is used while the
# number of multi-indices C(K+k-1, k) stays small.
DEFAULT_K_MAX = 12
_ENUM_LIMIT = 20_000


def _onehot_rows(idx: np.ndarray, K: int) -> np.ndarray:
    out = np.zeros((idx.size, K))
    out[np.arange(idx.size), idx] = 1.0
    return out


class ColouringRule:
    """Base class; subclasses define ``distribution_batch``."""

    kind: str = ""
    mutation_free: bool = True
    closed_form: bool = False  # type_law_batch is a closed form at every sample size

    def __init__(self, K: int):
        if K < 2:
            raise ValueError(f"need at least two types, got K={K}")
        self.K = int(K)
        self._tables: dict[int, np.ndarray] = {}

    # -- sample -> type law --------------------------------------------------

    def distribution_batch(self, counts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- exact averaging over multinomial samples ----------------------------

    def _table(self, k: int) -> np.ndarray:
        """Rule outputs on every multi-index of size k (cached)."""
        table = self._tables.get(k)
        if table is None:
            if not self.supports_enumeration(k):
                raise ValueError(f"cannot enumerate samples of size {k} over {self.K} types")
            table = self.distribution_batch(np.asarray(compositions(self.K, k)))
            table.flags.writeable = False
            self._tables[k] = table
        return table

    def type_law_batch(self, k: int, X: np.ndarray) -> np.ndarray:
        """Exact offspring-type law of k parents sampled at each row of frequencies ``X``, here by enumeration."""
        table = self._table(k)
        law = composition_pmf(self.K, k, X) @ table
        return law / law.sum(axis=1, keepdims=True)

    def supports_enumeration(self, k: int) -> bool:
        # the multinomial coefficients sum to K**k, so all are finite floats while K**k < 2**1024
        return comb(self.K + k - 1, k) <= _ENUM_LIMIT and k * log2(self.K) < 1024

    def enumerable(self, k: int) -> bool:
        """Whether the engines enumerate the samples of size k: at most ``DEFAULT_K_MAX`` parents, few multi-indices."""
        return k <= DEFAULT_K_MAX and self.supports_enumeration(k)

    def has_exact_law(self, k: int) -> bool:
        """Whether the engines take ``type_law_batch(k, .)`` as exact: a closed form, or an enumeration."""
        return self.closed_form or self.enumerable(k)

    def to_config(self) -> dict:
        return {"kind": self.kind}


class NeutralRule(ColouringRule):
    """Pick one of the sampled parents uniformly: no selection at all."""

    kind = "neutral"
    closed_form = True

    def distribution_batch(self, counts):
        counts = np.asarray(counts, dtype=float)
        return counts / counts.sum(axis=1, keepdims=True)

    def type_law_batch(self, k, X):
        # Uniform choice among iid parents leaves the type law at X exactly.
        return np.array(X, dtype=float)


def _highest_present(counts: np.ndarray) -> np.ndarray:
    return np.where(counts > 0, np.arange(counts.shape[1]), -1).max(axis=1)


class TransitiveRule(ColouringRule):
    """The highest-labelled type in the sample wins."""

    kind = "transitive"
    closed_form = True

    def distribution_batch(self, counts):
        counts = np.asarray(counts)
        return _onehot_rows(_highest_present(counts), self.K)

    def type_law_batch(self, k, X):
        # The highest of k iid types is i w.p. c_i**k - c_{i-1}**k, c the cumulative frequencies.  With u_i the mass
        # above type i, exp(k log1p(-u_i)) keeps c_i**k accurate near 1, and an absent type repeats its successor's u.
        u = np.zeros(X.shape)
        np.add.accumulate(X[:, :0:-1], axis=1, out=u[:, -2::-1])
        with np.errstate(divide="ignore"):  # u_i = 1 below the first present type: log1p(-1) = -inf
            law = np.exp(k * np.log1p(u / -(u[:, :1] + X[:, :1])))
        law[:, 1:] -= law[:, :-1]
        return law


class TransitiveWithMutationRule(TransitiveRule):
    """Highest label wins, then the offspring mutates with some probability.

    ``kernel[i, j]`` is the probability that a type-i winner yields a type-j
    offspring given that a mutation happens.  Mutation applies to samples of
    two or more parents only: a one-parent offspring copies its parent, as the
    engines assume for every rule.  This keeps the drift ``(p(x) - x) / rho``
    finite as ``rho -> 0``; mutating singletons would add a term of order
    ``mutation_prob / rho``.
    """

    kind = "transitive_mutation"

    def __init__(self, K: int, mutation_prob: float, kernel):
        super().__init__(K)
        if not 0.0 <= mutation_prob <= 1.0:
            raise ValueError(f"mutation probability must lie in [0, 1], got {mutation_prob}")
        kernel = np.asarray(kernel, dtype=float)
        if kernel.shape != (K, K):
            raise ValueError(f"kernel must be {K}x{K}")
        if np.any(kernel < 0) or not np.allclose(kernel.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("kernel rows must be probability vectors")
        self.mutation_prob = float(mutation_prob)
        self.kernel = kernel
        self.mutation_free = mutation_prob == 0.0
        self._mutate = (1.0 - self.mutation_prob) * np.eye(K) + self.mutation_prob * kernel  # row w: a type-w winner

    def type_law_batch(self, k, X):
        # the winner's law T_k, then one mutation step for samples of two or more parents; T_1 is X itself
        return np.array(X, dtype=float) if k == 1 else super().type_law_batch(k, X) @ self._mutate

    def distribution_batch(self, counts):
        counts = np.asarray(counts)
        winner = _highest_present(counts)
        base = _onehot_rows(winner, self.K)
        mutated = (1.0 - self.mutation_prob) * base + self.mutation_prob * self.kernel[winner]
        return np.where(counts.sum(axis=1, keepdims=True) == 1, base, mutated)

    def to_config(self):
        return {
            "kind": "transitive_mutation",
            "mutation_prob": self.mutation_prob,
            "kernel": self.kernel.tolist(),
        }


def win_prob_matrix(win_probs) -> np.ndarray:
    """Square matrix of pairwise win probabilities: entries in [0, 1], 1/2 on the diagonal and ``p + p.T = 1``."""
    P = np.asarray(win_probs, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("win-probability matrix must be square")
    if np.any(P < 0) or np.any(P > 1):
        raise ValueError("win probabilities must lie in [0, 1]")
    if not np.allclose(np.diag(P), 0.5, atol=1e-12):
        raise ValueError("diagonal win probabilities must equal 1/2")
    if not np.allclose(P + P.T, 1.0, atol=1e-9):
        raise ValueError("need p[i, j] + p[j, i] = 1")
    return P


class LogisticRule(ColouringRule):
    """Pairwise contests with win probabilities ``p[i, j]``.

    Defined for samples of one or two potential parents (the pairing used to
    realize competitive Lotka-Volterra drifts); larger samples are rejected.
    """

    kind = "logistic"

    def __init__(self, win_probs):
        self.win_probs = win_prob_matrix(win_probs)
        super().__init__(self.win_probs.shape[0])

    def distribution_batch(self, counts):
        counts = np.asarray(counts)
        totals = counts.sum(axis=1)
        if np.any(totals > 2):
            raise ValueError("logistic rule is defined for samples of at most two parents")
        out = np.zeros((counts.shape[0], self.K), dtype=float)
        arange = np.arange(self.K)
        mono = counts.max(axis=1) == totals  # single parent or a same-type pair
        if mono.any():
            out[mono] = _onehot_rows(counts[mono].argmax(axis=1), self.K)
        mixed = ~mono
        if mixed.any():
            present = counts[mixed] > 0
            i = np.where(present, arange, self.K).min(axis=1)
            j = np.where(present, arange, -1).max(axis=1)
            rows = np.flatnonzero(mixed)
            out[rows, i] = self.win_probs[i, j]
            out[rows, j] = self.win_probs[j, i]
        return out

    def to_config(self):
        return {"kind": "logistic", "matrix": self.win_probs.tolist()}


def beats_matrix(K: int, beats) -> np.ndarray:
    """Boolean ``(K, K)`` matrix of 0-based ``(winner, loser)`` pairs; the relation must be antisymmetric.

    An error names a pair in the 1-based labels that configs use.
    """
    matrix = np.zeros((K, K), dtype=bool)
    for winner, loser in beats:
        w, l = int(winner), int(loser)
        if not (0 <= w < K and 0 <= l < K) or w == l:
            raise ValueError(f"bad beats pair ({w + 1}, {l + 1}): need two distinct type labels from 1 to {K}")
        matrix[w, l] = True
    if np.any(matrix & matrix.T):
        raise ValueError("beats relation must be antisymmetric")
    return matrix


class PartialOrderRule(ColouringRule):
    """Contest ordered by an antisymmetric "beats" relation.

    The parent is chosen uniformly among sampled parents whose type is not
    beaten by any other type present in the sample; if a cycle leaves no
    such type (possible only for samples of three or more), the choice is
    uniform among all sampled parents.  Pairs of incomparable types thus
    split 1/2 - 1/2.
    """

    kind = "partial_order"

    def __init__(self, K: int, beats):
        super().__init__(K)
        self.beats = beats_matrix(K, beats)

    @classmethod
    def rps(cls) -> "PartialOrderRule":
        """Three cyclically dominant types: 2 beats 1, 3 beats 2, 1 beats 3."""
        return cls(3, [(1, 0), (2, 1), (0, 2)])

    def distribution_batch(self, counts):
        counts = np.asarray(counts, dtype=float)
        present = counts > 0
        beaten = (present @ self.beats) > 0
        weights = np.where(present & ~beaten, counts, 0.0)
        none_maximal = weights.sum(axis=1) == 0
        if none_maximal.any():
            weights[none_maximal] = counts[none_maximal]
        return weights / weights.sum(axis=1, keepdims=True)

    def to_config(self):
        pairs = [[int(w) + 1, int(l) + 1] for w, l in zip(*np.nonzero(self.beats))]
        return {"kind": "partial_order", "beats": pairs}


class NegFreqDepRule(ColouringRule):
    """Parent chosen among those with the rarest type in the sample."""

    kind = "neg_freq"

    def distribution_batch(self, counts):
        counts = np.asarray(counts)
        masked = np.where(counts > 0, counts, np.iinfo(np.int64).max)
        rarest = masked.min(axis=1, keepdims=True)
        sel = (counts == rarest).astype(float)
        return sel / sel.sum(axis=1, keepdims=True)


class PosFreqDepRule(ColouringRule):
    """Parent chosen among those with the commonest type in the sample."""

    kind = "pos_freq"

    def distribution_batch(self, counts):
        counts = np.asarray(counts)
        sel = (counts == counts.max(axis=1, keepdims=True)).astype(float)
        return sel / sel.sum(axis=1, keepdims=True)


class BernsteinRule(ColouringRule):
    """Rule read off a Bernstein coefficient table of degree n.

    Defined for samples of size n (table lookup) and size 1 (the sampled
    parent is the real parent); pair it with an offspring law supported on
    {1, n}.
    """

    kind = "bernstein"

    def __init__(self, degree: int, table: np.ndarray):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2:
            raise ValueError("table must be 2-d")
        K = table.shape[1]
        super().__init__(K)
        self.degree = int(degree)
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        self.multi_indices = Z = compositions(K, self.degree)  # the multi-index of each table row
        if table.shape[0] != Z.shape[0]:
            raise ValueError(f"table must have one row per multi-index ({Z.shape[0]}), got {table.shape[0]}")
        bad = np.flatnonzero((table < -1e-9) | (table > 1.0 + 1e-9))
        if bad.size:
            row, col = np.unravel_index(bad[0], table.shape)
            raise ValueError(
                f"Bernstein coefficient for output {col + 1} at multi-index {tuple(int(v) for v in Z[row])} is "
                f"{float(table[row, col])!r}, outside [0, 1]: the map does not preserve the simplex"
            )
        self.table = np.clip(table, 0.0, 1.0)
        self.table.flags.writeable = False
        rows = self.table.sum(axis=1)
        bad = np.flatnonzero(np.abs(rows - 1.0) > 1e-9)
        if bad.size:
            z = tuple(int(v) for v in Z[bad[0]])
            raise ValueError(f"coefficient row for multi-index {z} sums to {float(rows[bad[0]])!r}, expected 1")
        # encode count rows as integers for vectorized table lookup
        self._powers = (self.degree + 1) ** np.arange(K, dtype=np.int64)
        codes = np.asarray(Z) @ self._powers
        order = np.argsort(codes)
        self._codes_sorted = codes[order]
        self._row_of_code = order
        self.mutation_free = bool(np.all(self.table[np.asarray(Z) == 0] == 0.0))

    def distribution_batch(self, counts):
        counts = np.asarray(counts)
        totals = counts.sum(axis=1)
        out = np.zeros((counts.shape[0], self.K))
        single = totals == 1
        if single.any():
            out[single] = _onehot_rows(counts[single].argmax(axis=1), self.K)
        full = totals == self.degree
        if self.degree == 1:
            full &= ~single
        if full.any():
            codes = counts[full] @ self._powers
            rows = self._row_of_code[np.searchsorted(self._codes_sorted, codes)]
            out[full] = self.table[rows]
        other = ~(single | full)
        if other.any():
            raise ValueError(
                f"Bernstein rule of degree {self.degree} got a sample of size {int(totals[other][0])}"
            )
        return out

    def to_config(self):
        entries = [[list(map(int, z)), list(map(float, row))] for z, row in zip(self.multi_indices, self.table)]
        return {"kind": "bernstein", "degree": self.degree, "table": entries}


def bernstein_rule(g: PolynomialMap) -> BernsteinRule:
    """Build the colouring rule realizing a simplex-preserving polynomial map, at its own degree."""
    return BernsteinRule(*bernstein_table(g))


def beats_from_labels(pairs) -> list[tuple[int, int]]:
    """The 0-based ``(winner, loser)`` pairs of a config's 1-based ``beats`` labels."""
    return [(int(w) - 1, int(l) - 1) for w, l in pairs]


def _bernstein_from_config(params: dict, K: int) -> BernsteinRule:
    """Read a ``[multi-index, coefficient-row]`` table that names every multi-index of the degree once."""
    degree = int(params["degree"])
    idx = composition_index(K, degree)
    table = np.zeros((len(idx), K))
    seen = set()
    for z, row in params["table"]:
        key = tuple(int(v) for v in z)
        if key not in idx:
            raise ValueError(f"multi-index {key} is not a degree-{degree} index over {K} types")
        if key in seen:
            raise ValueError(f"duplicate multi-index {key} in Bernstein table")
        seen.add(key)
        table[idx[key]] = row
    if len(seen) != len(idx):
        raise ValueError(f"Bernstein table must cover all {len(idx)} multi-indices, got {len(seen)}")
    return BernsteinRule(degree, table)


# each kind's allowed keys and its builder from those keys and K
_RULE_KINDS = {
    **{cls.kind: ((), lambda p, K, cls=cls: cls(K))
       for cls in (NeutralRule, TransitiveRule, NegFreqDepRule, PosFreqDepRule)},
    "transitive_mutation": (
        ("mutation_prob", "kernel"),
        lambda p, K: TransitiveWithMutationRule(K, float(p["mutation_prob"]), p["kernel"]),
    ),
    "logistic": (("matrix",), lambda p, K: LogisticRule(p["matrix"])),
    "partial_order": (("beats",), lambda p, K: PartialOrderRule(K, beats_from_labels(p["beats"]))),
    "bernstein": (("degree", "table"), _bernstein_from_config),
}


def rule_from_config(block: dict, K: int) -> ColouringRule:
    """Deserialize a rule block; type labels in configs are 1-based."""
    return build_kind(_RULE_KINDS, block, "rule", K)
