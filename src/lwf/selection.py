"""Closed-form limit drifts for the built-in interaction schemes.

Each :class:`DriftFunction` constructor holds one drift: the selection drift
per unit rescaled time, the limit of ``kappa * (p(x) - x) / rho`` for the
matched colouring rule and offspring law.  All are batch aware: ``x`` may
have shape ``(..., K)``.  Every mutation-free drift sums to zero over
coordinates on the simplex face and vanishes where the corresponding type is
absent.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .bernstein import PolynomialMap
from .core import _type_sum, integer_law
from .errors import build_kind
from .rules import beats_from_labels, beats_matrix, bernstein_rule, win_prob_matrix


def _scaled(c: float, a: np.ndarray) -> np.ndarray:
    """``c * a``, with no array multiply when ``c`` is 1 (``1.0 * a`` is ``a`` bit for bit)."""
    return a if c == 1.0 else c * a


def _mix(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``x @ M`` by additions of ``x_j M[j]`` in type order: a row's value never depends on the rows around it,
    as a BLAS product's may."""
    out = x[..., 0, None] * M[0]
    for j in range(1, M.shape[0]):
        out += x[..., j, None] * M[j]
    return out


# Standard simplex-preserving polynomial maps used with the Bernstein route.


def _monomial(K: int, *types: int) -> tuple[int, ...]:
    """Exponents of the product of ``x_t`` over ``types``."""
    return tuple(types.count(r) for r in range(K))


def transitive_pair_map(K: int) -> PolynomialMap:
    """g_i = c_i**2 - c_(i-1)**2 on cumulative frequencies (pair contests).

    That is the sum of ``x_a x_b`` over the ordered pairs of types whose stronger member is i, ``max(a, b) = i``.
    """
    comps = [Counter() for _ in range(K)]
    for a, b in itertools.product(range(K), repeat=2):
        comps[max(a, b)][_monomial(K, a, b)] += 1.0
    return PolynomialMap(comps)


def cyclic_contest_map() -> PolynomialMap:
    """g_i = x_i**2 + 2 x_i x_pred(i) for the three-type cycle."""
    return PolynomialMap([{_monomial(3, i, i): 1.0, _monomial(3, i, (i - 1) % 3): 2.0} for i in range(3)])


class DriftFunction:
    """A named drift with its parameters; callable on (batches of) states."""

    def __init__(self, kind: str, K: int, fn, params: dict):
        self.kind = kind
        self.K = int(K)
        self._fn = fn
        self.params = params
        if not math.isfinite(self.kappa):
            raise ValueError(f"the {kind} drift needs a finite selection strength, got {self.kappa}")

    def __call__(self, x) -> np.ndarray:
        return self._fn(np.asarray(x, dtype=float))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def neutral(cls, K: int) -> "DriftFunction":
        """No selection: the zero drift."""
        return cls("neutral", K, np.zeros_like, {})

    @classmethod
    def transitive(cls, kappa: float, increments, K: int) -> "DriftFunction":
        """Drift of the ordered-contest scheme.

        ``increments[j]`` weights branching into ``j`` extra potential parents
        (sample size ``j + 1``).  With cumulative frequencies ``c_i``:
        ``mu_i = kappa * sum_j w_j * (c_i**(j+1) - c_(i-1)**(j+1) - x_i)``.
        """
        items = integer_law(increments, 1, "increments")

        def mu(x):
            # np.cumsum's sums by K - 1 additions of type slices: on a column-major block each is one contiguous row
            cum = x.copy(order="K")
            for i in range(1, x.shape[-1]):
                cum[..., i] += cum[..., i - 1]
            cum_prev = cum - x
            out = None  # the first term is the accumulator
            for j, w in items:
                term = cum ** (j + 1)
                term -= cum_prev ** (j + 1)
                term -= x
                term = _scaled(w, term)
                out = term if out is None else np.add(out, term, out=out)
            return _scaled(kappa, out)

        return cls("transitive", K, mu, {"kappa": kappa, "increments": {str(j): w for j, w in items}})

    @classmethod
    def logistic(cls, kappa: float, win_probs) -> "DriftFunction":
        """Competitive Lotka-Volterra-like drift from pairwise win probabilities.

        ``mu_i = kappa * x_i * (1 - x_i - 2 * sum_{j != i} p[j, i] * x_j)``, for the
        matrix :class:`~lwf.rules.LogisticRule` accepts.
        """
        P = win_prob_matrix(win_probs)
        beaten = P - 0.5 * np.eye(P.shape[0])  # p[j, i] off the diagonal, exactly 0 on it

        def mu(x):
            losses = _mix(x, beaten)  # sum_{j != i} p[j, i] x_j
            return _scaled(kappa, x) * (1.0 - x - 2.0 * losses)

        return cls("logistic", P.shape[0], mu, {"kappa": kappa, "matrix": P.tolist()})

    @classmethod
    def rps(cls, kappa: float) -> "DriftFunction":
        """Cyclic three-type contest drift: each type feeds on its predecessor.

        With types 1 < 2 < 3 < 1 cyclically, ``mu_i = kappa * x_i * (x_pred(i) -
        x_succ(i))`` where pred/succ walk the cycle (pred(1) = 3, succ(3) = 1).
        """

        def mu(x):
            if x.shape[-1] != 3:
                raise ValueError("the cyclic contest drift is defined for K = 3")
            gap = np.empty_like(x)  # x_pred(i) - x_succ(i) from column slices, with no fancy-index copy of the block
            np.subtract(x[..., 2], x[..., 1], out=gap[..., 0])
            np.subtract(x[..., 0], x[..., 2], out=gap[..., 1])
            np.subtract(x[..., 1], x[..., 0], out=gap[..., 2])
            return np.multiply(gap, _scaled(kappa, x), out=gap)

        return cls("rps", 3, mu, {"kappa": kappa})

    @classmethod
    def food_web(cls, kappa: float, beats, K: int) -> "DriftFunction":
        """Pairwise-contest drift for an arbitrary antisymmetric relation.

        ``mu_i = kappa * x_i * (sum over prey x_j - sum over predators x_j)``;
        incomparable pairs are fair coin flips and cancel.  ``beats`` holds
        0-based ``(winner, loser)`` pairs.
        """
        pairs = [(int(w), int(l)) for w, l in beats]
        matrix = beats_matrix(K, pairs).astype(float)
        balance = matrix.T - matrix  # +1 from prey, -1 from predators

        def mu(x):
            return _scaled(kappa, x) * _mix(x, balance)  # sum over prey x_j - sum over predators x_j

        return cls("food_web", K, mu, {"kappa": kappa, "beats": [[w + 1, l + 1] for w, l in pairs]})

    @classmethod
    def negfreq(cls, kappa: float, K: int) -> "DriftFunction":
        """Rarest-type-wins drift for triple sampling.

        ``mu_i = 2 * kappa * x_i * (sum_{j != i} x_j**2 - x_i * (1 - x_i))``.
        """

        def mu(x):
            x2 = x**2
            sq = _type_sum(x2)[..., None] - x2
            return 2.0 * kappa * x * (sq - x * (1.0 - x))

        return cls("neg_freq", K, mu, {"kappa": kappa})

    @classmethod
    def posfreq(cls, kappa: float, K: int) -> "DriftFunction":
        """Commonest-type-wins drift for triple sampling.

        ``mu_i = kappa * x_i * ((2 x_i - 1)(1 - x_i) + sum_{j != k, both != i}
        x_j x_k)`` with the last sum over ordered pairs.
        """

        def mu(x):
            x2 = x**2
            others = 1.0 - x
            cross = others**2 - (_type_sum(x2)[..., None] - x2)
            return _scaled(kappa, x) * ((2.0 * x - 1.0) * others + cross)

        return cls("pos_freq", K, mu, {"kappa": kappa})

    @classmethod
    def from_polynomial(cls, lam: float, g: PolynomialMap) -> "DriftFunction":
        """Drift ``lam * (g(x) - x)`` for a map ``g`` of the simplex into itself that revives no absent type.

        ``g``'s Bernstein table must pass :class:`~lwf.rules.BernsteinRule`'s checks, and output i must be 0 at
        every multi-index with ``z_i = 0``: the integrator holds an absent type at zero, so it refuses a mutation.
        """
        rule = bernstein_rule(g)
        revived = np.argwhere((rule.multi_indices == 0) & (rule.table > 0.0))
        if revived.size:
            row, i = revived[0]
            z = tuple(int(v) for v in rule.multi_indices[row])
            raise ValueError(f"Bernstein coefficient for output {i + 1} at multi-index {z} is "
                             f"{float(rule.table[row, i])!r}, not 0: the map revives an absent type (a mutation), "
                             "which the integrator does not follow")

        def mu(x):
            return _scaled(lam, np.asarray(g(x), dtype=float) - x)

        return cls("polynomial", g.K, mu, {"lambda": lam, "monomials": _poly_config(g)})

    @property
    def kappa(self) -> float:
        return float(self.params.get("kappa", self.params.get("lambda", 0.0)))

    def to_config(self) -> dict:
        return {"kind": self.kind, **self.params}


def _poly_config(g: PolynomialMap):
    # in the map's own order, so that a clone sums its monomials as ``g`` does
    return [[[list(map(int, m)), float(c)] for m, c in comp.items()] for comp in g.components]


def _polynomial_from_config(p: dict, K: int) -> DriftFunction:
    comps = [{tuple(int(v) for v in m): float(c) for m, c in comp} for comp in p["monomials"]]
    return DriftFunction.from_polynomial(float(p["lambda"]), PolynomialMap(comps))


# each kind's allowed keys and its builder from those keys and K
_DRIFT_KINDS = {
    "neutral": ((), lambda p, K: DriftFunction.neutral(K)),
    "transitive": (
        ("kappa", "increments"),
        lambda p, K: DriftFunction.transitive(float(p["kappa"]), p["increments"], K),
    ),
    "logistic": (("kappa", "matrix"), lambda p, K: DriftFunction.logistic(float(p["kappa"]), p["matrix"])),
    "rps": (("kappa",), lambda p, K: DriftFunction.rps(float(p["kappa"]))),
    "food_web": (
        ("kappa", "beats"),
        lambda p, K: DriftFunction.food_web(float(p["kappa"]), beats_from_labels(p["beats"]), K),
    ),
    "neg_freq": (("kappa",), lambda p, K: DriftFunction.negfreq(float(p["kappa"]), K)),
    "pos_freq": (("kappa",), lambda p, K: DriftFunction.posfreq(float(p["kappa"]), K)),
    "polynomial": (("lambda", "monomials"), _polynomial_from_config),
}


def drift_from_config(block: dict, K: int) -> DriftFunction:
    """Deserialize a drift block; type labels in configs are 1-based."""
    return build_kind(_DRIFT_KINDS, block, "drift", K)
