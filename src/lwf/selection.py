"""Closed-form limit drifts for the built-in interaction schemes.

Each function returns the selection drift per unit rescaled time, the limit
of ``kappa * (p(x) - x) / rho`` for the matched colouring rule and offspring
law.  All are batch aware: ``x`` may have shape ``(..., K)``.  Every
mutation-free drift sums to zero over coordinates on the simplex face and
vanishes where the corresponding type is absent.
"""

from __future__ import annotations

import numpy as np

from .bernstein import PolynomialMap
from .errors import ConfigError, bad_block, reject_unknown
from .rules import beats_matrix


def _as_batch(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def mu_transitive(kappa: float, increments, x) -> np.ndarray:
    """Drift of the ordered-contest scheme.

    ``increments[j]`` weights branching into ``j`` extra potential parents
    (sample size ``j + 1``).  With cumulative frequencies ``c_i``:
    ``mu_i = kappa * sum_j w_j * (c_i**(j+1) - c_(i-1)**(j+1) - x_i)``.
    """
    return _transitive(kappa, _iter_weights(increments), _as_batch(x))


def _transitive(kappa: float, items, x: np.ndarray) -> np.ndarray:
    cum = np.cumsum(x, axis=-1)
    cum_prev = cum - x
    out = np.zeros_like(x)
    for j, w in items:
        out += w * (cum ** (j + 1) - cum_prev ** (j + 1) - x)
    return kappa * out


def mu_logistic(kappa: float, win_probs, x) -> np.ndarray:
    """Competitive Lotka-Volterra-like drift from pairwise win probabilities.

    ``mu_i = kappa * x_i * (1 - x_i - 2 * sum_{j != i} p[j, i] * x_j)``.
    """
    x = _as_batch(x)
    P = np.asarray(win_probs, dtype=float)
    losses = x @ P - 0.5 * x  # sum_{j != i} p[j, i] x_j
    return kappa * x * (1.0 - x - 2.0 * losses)


def mu_rps(kappa: float, x) -> np.ndarray:
    """Cyclic three-type contest drift: each type feeds on its predecessor.

    With types 1 < 2 < 3 < 1 cyclically, ``mu_i = kappa * x_i * (x_pred(i) -
    x_succ(i))`` where pred/succ walk the cycle (pred(1) = 3, succ(3) = 1).
    """
    x = _as_batch(x)
    if x.shape[-1] != 3:
        raise ValueError("the cyclic contest drift is defined for K = 3")
    gap = np.empty_like(x)  # x_pred(i) - x_succ(i) from column slices, with no fancy-index copy of the block
    np.subtract(x[..., 2], x[..., 1], out=gap[..., 0])
    np.subtract(x[..., 0], x[..., 2], out=gap[..., 1])
    np.subtract(x[..., 1], x[..., 0], out=gap[..., 2])
    return kappa * x * gap


def mu_food_web(kappa: float, beats, x) -> np.ndarray:
    """Pairwise-contest drift for an arbitrary antisymmetric relation.

    ``mu_i = kappa * x_i * (sum over prey x_j - sum over predators x_j)``;
    incomparable pairs are fair coin flips and cancel.  ``beats`` holds
    0-based ``(winner, loser)`` pairs.
    """
    x = _as_batch(x)
    return _food_web(kappa, beats_matrix(x.shape[-1], beats).astype(float), x)


def _food_web(kappa: float, matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    prey = x @ matrix.T
    predators = x @ matrix
    return kappa * x * (prey - predators)


def mu_negfreq(kappa: float, x) -> np.ndarray:
    """Rarest-type-wins drift for triple sampling.

    ``mu_i = 2 * kappa * x_i * (sum_{j != i} x_j**2 - x_i * (1 - x_i))``.
    """
    x = _as_batch(x)
    sq = (x**2).sum(axis=-1, keepdims=True) - x**2
    return 2.0 * kappa * x * (sq - x * (1.0 - x))


def mu_posfreq(kappa: float, x) -> np.ndarray:
    """Commonest-type-wins drift for triple sampling.

    ``mu_i = kappa * x_i * ((2 x_i - 1)(1 - x_i) + sum_{j != k, both != i}
    x_j x_k)`` with the last sum over ordered pairs.
    """
    x = _as_batch(x)
    s2 = (x**2).sum(axis=-1, keepdims=True)
    others = 1.0 - x
    cross = others**2 - (s2 - x**2)
    return kappa * x * ((2.0 * x - 1.0) * others + cross)


def mu_from_polynomial(lam: float, g, x) -> np.ndarray:
    """Drift ``lam * (g(x) - x)`` for a simplex-preserving map ``g``."""
    x = _as_batch(x)
    return lam * (np.asarray(g(x), dtype=float) - x)


def _iter_weights(increments):
    items = sorted((int(j), float(w)) for j, w in increments.items())
    total = 0.0
    for j, w in items:
        if j < 1:
            raise ValueError(f"increment weights are indexed from 1, got {j}")
        if w < 0:
            raise ValueError("increment weights must be nonnegative")
        total += w
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"increment weights must sum to 1, got {total}")
    return items


# ---------------------------------------------------------------------------
# Named drift functions
# ---------------------------------------------------------------------------

# Standard simplex-preserving polynomial maps used with the Bernstein route.


def transitive_pair_map(K: int) -> PolynomialMap:
    """g_i = c_i**2 - c_(i-1)**2 on cumulative frequencies (pair contests)."""
    comps = []
    for i in range(K):
        comp: dict[tuple[int, ...], float] = {}
        for a in range(i + 1):
            for b in range(i + 1):
                key = [0] * K
                key[a] += 1
                key[b] += 1
                key = tuple(key)
                comp[key] = comp.get(key, 0.0) + 1.0
        for a in range(i):
            for b in range(i):
                key = [0] * K
                key[a] += 1
                key[b] += 1
                key = tuple(key)
                comp[key] = comp.get(key, 0.0) - 1.0
        comps.append(comp)
    return PolynomialMap(comps)


def cyclic_contest_map() -> PolynomialMap:
    """g_i = x_i**2 + 2 x_i x_pred(i) for the three-type cycle."""
    comps = []
    for i in range(3):
        pred = (i - 1) % 3
        square = [0, 0, 0]
        square[i] = 2
        cross = [0, 0, 0]
        cross[i] = 1
        cross[pred] = 1
        comps.append({tuple(square): 1.0, tuple(cross): 2.0})
    return PolynomialMap(comps)


class DriftFunction:
    """A named drift with its parameters; callable on (batches of) states."""

    def __init__(self, kind: str, K: int, fn, params: dict):
        self.kind = kind
        self.K = int(K)
        self._fn = fn
        self.params = params

    def __call__(self, x) -> np.ndarray:
        return self._fn(x)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def neutral(cls, K: int) -> "DriftFunction":
        return cls("neutral", K, lambda x: np.zeros_like(_as_batch(x)), {})

    @classmethod
    def transitive(cls, kappa: float, increments, K: int) -> "DriftFunction":
        items = _iter_weights(increments)
        return cls(
            "transitive",
            K,
            lambda x: _transitive(kappa, items, _as_batch(x)),
            {"kappa": kappa, "increments": {str(j): w for j, w in items}},
        )

    @classmethod
    def logistic(cls, kappa: float, win_probs) -> "DriftFunction":
        P = np.asarray(win_probs, dtype=float)
        return cls("logistic", P.shape[0], lambda x: mu_logistic(kappa, P, x), {"kappa": kappa, "matrix": P.tolist()})

    @classmethod
    def rps(cls, kappa: float) -> "DriftFunction":
        return cls("rps", 3, lambda x: mu_rps(kappa, x), {"kappa": kappa})

    @classmethod
    def food_web(cls, kappa: float, beats, K: int) -> "DriftFunction":
        pairs = [(int(w), int(l)) for w, l in beats]
        matrix = beats_matrix(K, pairs).astype(float)
        return cls(
            "food_web",
            K,
            lambda x: _food_web(kappa, matrix, _as_batch(x)),
            {"kappa": kappa, "beats": [[w + 1, l + 1] for w, l in pairs]},
        )

    @classmethod
    def negfreq(cls, kappa: float, K: int) -> "DriftFunction":
        return cls("neg_freq", K, lambda x: mu_negfreq(kappa, x), {"kappa": kappa})

    @classmethod
    def posfreq(cls, kappa: float, K: int) -> "DriftFunction":
        return cls("pos_freq", K, lambda x: mu_posfreq(kappa, x), {"kappa": kappa})

    @classmethod
    def from_polynomial(cls, lam: float, g: PolynomialMap) -> "DriftFunction":
        return cls(
            "polynomial",
            g.K,
            lambda x: mu_from_polynomial(lam, g, x),
            {"lambda": lam, "degree": g.degree, "monomials": _poly_config(g)},
        )

    @property
    def kappa(self) -> float:
        return float(self.params.get("kappa", self.params.get("lambda", 0.0)))

    def to_config(self) -> dict:
        return {"kind": self.kind, **self.params}


def _poly_config(g: PolynomialMap):
    return [
        [[list(map(int, m)), float(c)] for m, c in sorted(comp.items())]
        for comp in g.components
    ]


def drift_from_config(block: dict, K: int) -> DriftFunction:
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("drift block must be a mapping with a 'kind' key")
    kind = block["kind"]
    extra = {k: v for k, v in block.items() if k != "kind"}
    try:
        if kind == "neutral":
            reject_unknown(extra, (), "drift")
            return DriftFunction.neutral(K)
        if kind == "transitive":
            reject_unknown(extra, ("kappa", "increments"), "drift")
            increments = extra["increments"]
            if not isinstance(increments, dict):
                raise ConfigError(
                    f"bad drift block: 'increments' must map extra-parent counts to weights, got {increments!r}"
                )
            increments = {int(j): float(w) for j, w in increments.items()}
            return DriftFunction.transitive(float(extra["kappa"]), increments, K)
        if kind == "logistic":
            reject_unknown(extra, ("kappa", "matrix"), "drift")
            drift = DriftFunction.logistic(float(extra["kappa"]), extra["matrix"])
            if drift.K != K:
                raise ConfigError(f"logistic matrix is {drift.K}x{drift.K} but model has K={K}")
            return drift
        if kind == "rps":
            reject_unknown(extra, ("kappa",), "drift")
            if K != 3:
                raise ConfigError("rps drift needs K = 3")
            return DriftFunction.rps(float(extra["kappa"]))
        if kind == "food_web":
            reject_unknown(extra, ("kappa", "beats"), "drift")
            pairs = [(int(w) - 1, int(l) - 1) for w, l in extra["beats"]]
            return DriftFunction.food_web(float(extra["kappa"]), pairs, K)
        if kind == "neg_freq":
            reject_unknown(extra, ("kappa",), "drift")
            return DriftFunction.negfreq(float(extra["kappa"]), K)
        if kind == "pos_freq":
            reject_unknown(extra, ("kappa",), "drift")
            return DriftFunction.posfreq(float(extra["kappa"]), K)
        if kind == "polynomial":
            reject_unknown(extra, ("lambda", "monomials", "degree"), "drift")
            comps = [{tuple(int(v) for v in m): float(c) for m, c in comp} for comp in extra["monomials"]]
            g = PolynomialMap(comps)
            if g.K != K:
                raise ConfigError(f"polynomial map has {g.K} components but model has K={K}")
            return DriftFunction.from_polynomial(float(extra["lambda"]), g)
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise bad_block("drift", exc) from exc
    raise ConfigError(f"unknown drift kind {kind!r}")
