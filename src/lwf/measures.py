"""Finite measures on (0, 1] driving heavy reproductive events.

A measure ``L`` here plays two roles:

* forward in time it is the size law of extreme reproductive events, through
  the normalized truncation of ``L(dz)/z**2`` (see :class:`TruncatedSizeLaw`);
* backward in time it sets the multiple-merger collision rates of the
  lineage-count chain through ``lambda_nk = ∫ y**(k-2) (1-y)**(n-k) L(dy)``.

No variant carries an atom at zero: pure-diffusion resampling is handled by a
separate coefficient everywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import cache

import numpy as np

from .errors import build_kind

# scipy.special and scipy.integrate are imported inside the functions that use
# them: loading either here would roughly double the time and memory that
# `import lwf` takes, and only Beta laws and the quadrature oracle need them.


class LambdaMeasure:
    """Base class for the supported measure variants.

    Subclasses are immutable value objects.  Continuous variants expose a
    density and an exact sampler of their event sizes; atomic variants
    (:class:`AtomicMeasure`) expose their atom list and derive the rest from
    it.  The quadrature oracle sums the atoms of the one and integrates the
    density of the other (see :func:`lambda_nk_quadrature`).
    """

    kind: str = ""

    # -- basic mass queries -------------------------------------------------

    def total_mass(self) -> float:
        raise NotImplementedError

    def mass_below(self, hi: float) -> float:
        """Measure of ``[0, hi)``."""
        raise NotImplementedError

    def resampling_mass_above(self, lo: float) -> float:
        """``∫_[lo,1] L(dz) / z**2``, the total event rate above a size cutoff."""
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return self.total_mass() == 0.0

    # -- sampling -----------------------------------------------------------

    def _size_draw(self, eps: float):
        """The draw ``(rng, size) -> sizes`` from ``L(dz)/z**2`` on ``[eps, 1]``, normalized, built once per law."""
        raise NotImplementedError

    # -- closed-form integrals ----------------------------------------------

    def collision_rates(self, n: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Rates ``C(n,k) * ∫ y**(k-2) (1-y)**(n-k) L(dy)`` in closed form, elementwise over integer arrays
        of states ``n`` and merger sizes ``2 <= k <= n`` of one shape (a block, see :func:`collision_pairs`)."""
        raise NotImplementedError

    def log_penalty(self) -> float:
        """``∫ |log(1-y)| L(dy) / y**2``; ``inf`` when divergent."""
        raise NotImplementedError

    # -- config -------------------------------------------------------------

    def to_config(self) -> dict:
        """The kind and the dataclass fields of a variant."""
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}


def collision_pairs(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The block of integer states ``states``: flat arrays ``(n, k)`` holding every ``2 <= k <= n``, row after row."""
    sizes = np.maximum(states - 1, 0)
    n = np.repeat(states, sizes)
    k = np.arange(n.size) - np.repeat(np.cumsum(sizes) - sizes, sizes) + 2
    return n, k


# log(m!) - (m + 1/2) log(m) + m - log(2 pi) / 2 for m = 0..15, rounded from 50-digit values (Loader 2000 tabulates
# the same numbers): the plain difference would cancel terms near log(15!) ~ 28 down to values near 0.006.
_STIRLING_TABLE = np.array([
    math.inf,
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093, 0.016644691189821193,
    0.013876128823070748, 0.01189670994589177, 0.010411265261972096, 0.009255462182712733, 0.00833056343336287,
    0.007573675487951841, 0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirling_error(m) -> np.ndarray:
    """``log(m!) - (m + 1/2) log(m) + m - log(2 pi) / 2`` for integers m >= 0 (inf at m = 0).

    The table below 16, the asymptotic series from m = 16 on, where the plain
    difference would cancel terms as large as log(2048!) ~ 1.4e4.
    """
    m = np.asarray(m)
    small = m < 16
    big = np.where(small, 16.0, m)
    inv2 = 1.0 / (big * big)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188) * inv2) * inv2) * inv2) / big
    return np.where(small, _STIRLING_TABLE[np.where(small, m, 0)], series)


def _atom_collision_rates(n: np.ndarray, k: np.ndarray, z: float, weight_over_z2: float) -> np.ndarray:
    """``weight_over_z2 * P(Binomial(n, z) = k)`` over a block ``(n, k)``.

    Loader's saddle-point form, Stirling errors plus ``k log(k / (n z))``
    terms: no two large logarithms cancel, so it stays within 1e-12 of the
    exact value up to n = 2048, where a plain log-gamma difference is off
    by 5e-12.
    """
    errors = _stirling_error(np.arange(np.max(n, initial=0) + 1))  # each m once, looked up per pair
    rest = n - k
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = errors[n] - errors[k] - errors[rest] - k * np.log(k / (n * z)) - rest * np.log(rest / (n * (1.0 - z)))
        pmf = np.exp(log_p) * np.sqrt(n / (2.0 * math.pi * k * rest))
    top = rest == 0
    pmf[top] = z ** n[top]  # k = n, where the form above reads inf * 0
    return weight_over_z2 * pmf


class AtomicMeasure(LambdaMeasure):
    """A measure with no density: every quantity is a sum over :meth:`atoms`."""

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """The atoms as ``((z, weight), ...)``; none for the zero measure."""
        return ()

    def total_mass(self) -> float:
        return sum((w for _, w in self.atoms()), 0.0)

    def mass_below(self, hi: float) -> float:
        return sum((w for z, w in self.atoms() if z < hi), 0.0)

    def resampling_mass_above(self, lo: float) -> float:
        return sum((w / z**2 for z, w in self.atoms() if z >= lo), 0.0)

    def collision_rates(self, n, k):
        out = np.zeros(k.shape)
        for z, w in self.atoms():
            out += _atom_collision_rates(n, k, z, w / z**2)
        return out

    def log_penalty(self) -> float:
        if any(z == 1.0 for z, _ in self.atoms()):
            return math.inf
        return sum((w * (-math.log1p(-z)) / z**2 for z, w in self.atoms()), 0.0)

    def _size_draw(self, eps):
        # sizes and the cumulative weights exactly as Generator.choice(p=w / w.sum()) builds them
        sizes, ws = (np.array(v) for v in zip(*((z, w / z**2) for z, w in self.atoms() if z >= eps)))
        cdf = np.cumsum(ws / ws.sum())
        cdf /= cdf[-1]
        return lambda rng, size: sizes[cdf.searchsorted(rng.random(size), side="right")]


@dataclass(frozen=True)
class ZeroMeasure(AtomicMeasure):
    """The empty measure: no extreme events, no multiple mergers."""

    kind = "zero"


@dataclass(frozen=True)
class PointMass(AtomicMeasure):
    """``mass`` concentrated at a single size ``z`` in (0, 1]."""

    z: float
    mass: float = 1.0

    kind = "point_mass"

    def __post_init__(self):
        if not 0.0 < self.z <= 1.0:
            raise ValueError(f"atom must lie in (0, 1], got {self.z}")
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")

    def atoms(self):
        return ((self.z, self.mass),)


@dataclass(frozen=True)
class FiniteAtoms(AtomicMeasure):
    """Finitely many atoms ``(z_i, w_i)`` with ``z_i`` in (0, 1]."""

    pairs: tuple[tuple[float, float], ...]

    kind = "finite_atoms"

    def __init__(self, pairs):
        pairs = tuple((float(z), float(w)) for z, w in pairs)
        if not pairs:
            raise ValueError("need at least one atom (use ZeroMeasure for none)")
        for z, w in pairs:
            if not 0.0 < z <= 1.0:
                raise ValueError(f"atom must lie in (0, 1], got {z}")
            if not 0.0 < w < math.inf:
                raise ValueError(f"atom weights must be positive and finite, got {w}")
        object.__setattr__(self, "pairs", pairs)

    def atoms(self):
        return self.pairs

    def to_config(self) -> dict:
        return {"kind": "finite_atoms", "atoms": [[z, w] for z, w in self.pairs]}


@dataclass(frozen=True)
class UniformLaw(LambdaMeasure):
    """Lebesgue measure on [0, 1] scaled to total ``mass``."""

    mass: float = 1.0

    kind = "uniform"

    def __post_init__(self):
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")

    def total_mass(self) -> float:
        return self.mass

    def mass_below(self, hi: float) -> float:
        return self.mass * min(max(hi, 0.0), 1.0)

    def resampling_mass_above(self, lo: float) -> float:
        if lo <= 0:
            return math.inf
        return self.mass * (1.0 / lo - 1.0) if lo < 1.0 else 0.0

    def density(self, y):
        y = np.asarray(y, dtype=float)
        return np.full_like(y, self.mass)

    def _size_draw(self, eps):
        # density mass/z**2 on [eps, 1]: exact inverse CDF
        inv_eps = 1.0 / eps
        span = inv_eps - 1.0
        return lambda rng, size: 1.0 / (inv_eps - rng.random(size) * span)

    def collision_rates(self, n, k):
        # C(n, k) B(k - 1, n - k + 1) = n / (k (k - 1))
        return self.mass * n / (k * (k - 1))

    def log_penalty(self) -> float:
        # |log(1-y)|/y**2 ~ 1/y near zero, so the integral diverges at 0.
        return math.inf


@cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """30 Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(30)


@dataclass(frozen=True)
class BetaLaw(LambdaMeasure):
    """Beta(a, b) density scaled to total ``mass``."""

    a: float
    b: float
    mass: float = 1.0

    kind = "beta"

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError(f"Beta shape parameters must be positive and finite, got a={self.a}, b={self.b}")
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")

    def total_mass(self) -> float:
        return self.mass

    def mass_below(self, hi: float) -> float:
        from scipy import special

        return self.mass * float(special.betainc(self.a, self.b, np.clip(hi, 0.0, 1.0)))

    def resampling_mass_above(self, lo: float) -> float:
        if lo >= 1.0:
            return 0.0
        if self.a > 2.0:
            from scipy import special

            scale = math.exp(special.betaln(self.a - 2.0, self.b) - special.betaln(self.a, self.b))
            # I_{1-lo}(b, a-2) is 1 - I_lo(a-2, b) without the cancellation as lo -> 1
            tail = float(special.betainc(self.b, self.a - 2.0, 1.0 - lo)) if lo > 0 else 1.0
            return self.mass * scale * tail
        if lo <= 0.0:
            return math.inf
        # ∫_lo^1 y**(a-3) (1-y)**(b-1) dy as sums of positive terms (the hypergeometric closed form is degenerate at
        # integer a, where scipy's hyp2f1 is wrong).  Up to y = 1/2, Gauss-Legendre panels of length <= 1 in t = log y,
        # where y**(a-2) (1-y)**(b-1) dt is smooth; beyond, the binomial series in v = 1 - y,
        # sum_k (3-a)_k / k! * v**(b+k) / (b+k) at v = min(1 - lo, 1/2), whose 80th term is below 1e-20 of the sum.
        a, b = self.a, self.b
        span = max(math.log(0.5 / lo), 0.0)
        panels = math.ceil(span)
        h = span / max(panels, 1)
        nodes, weights = _legendre_rule()
        t = math.log(lo) + h * (np.arange(panels)[:, None] + (nodes + 1.0) / 2.0)
        head = h / 2.0 * np.sum(np.exp((a - 2.0) * t + (b - 1.0) * np.log1p(-np.exp(t))) @ weights)
        k = np.arange(80.0)
        coef = np.cumprod(np.append(1.0, (3.0 - a + k[:-1]) / k[1:]))  # (3-a)_k / k!
        tail = np.sum(coef * min(1.0 - lo, 0.5) ** (b + k) / (b + k))
        return self.mass * float(head + tail) * math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))

    def density(self, y):
        from scipy import special

        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.mass * np.exp(
                (self.a - 1.0) * np.log(y) + (self.b - 1.0) * np.log1p(-y) - special.betaln(self.a, self.b)
            )
        return np.where((y > 0) & (y < 1), out, 0.0)

    def _size_draw(self, eps):
        a, b = self.a, self.b
        if a > 2.0:
            # L(dz)/z**2 is a Beta(a-2, b) shape; rejection below eps
            def accepted(rng, n):
                cand = rng.beta(a - 2.0, b, size=n)
                return cand[cand >= eps]
        else:
            # f(z) = z**(a-3) (1-z)**(b-1) on [eps, 1] by rejection from a two-piece envelope split at s:
            # c1 z**(a-3) bounds f on [eps, s] and c2 (1-z)**(b-1) on [s, 1], since a <= 2 and z or 1-z is >= 1/2
            p, s = a - 2.0, max(eps, 0.5)
            log_span = math.log(s / eps)
            grow = math.expm1(p * log_span)
            c1, c2 = 2.0 ** max(0.0, 1.0 - b), 2.0 ** (3.0 - a)
            head = c1 * eps**p * (grow / p if p else log_span)  # envelope mass of each piece
            tail = c2 * (1.0 - s) ** b / b
            p_head = head / (head + tail)

            def accepted(rng, n):
                pick, v, w = rng.random((3, n))
                # inverse CDFs of the pieces; log1p keeps the head stable as a -> 2
                z_head = eps * np.exp(np.log1p(v * grow) / p if p else v * log_span)
                u_tail = (1.0 - s) * v ** (1.0 / b)  # 1 - z
                in_head = pick < p_head
                z = np.where(in_head, z_head, 1.0 - u_tail)
                # accept with probability f / envelope
                return z[w < np.where(in_head, (1.0 - z_head) ** (b - 1.0) / c1, z ** (a - 3.0) / c2)]

        def draw(rng, size):
            out = np.empty(size)
            filled = 0
            while filled < size:
                z = accepted(rng, size - filled)
                out[filled : filled + z.size] = z
                filled += z.size
            return out

        return draw

    def collision_rates(self, n, k):
        from scipy import special

        logc = special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)
        return self.mass * np.exp(logc + special.betaln(self.a + k - 2, self.b + n - k) - special.betaln(self.a, self.b))

    def log_penalty(self) -> float:
        # Integrand ~ y**(a-2) near zero: integrable only for a > 1.
        if self.a <= 1.0:
            return math.inf
        from scipy import special

        a, b = self.a, self.b
        if a == 2.0:
            # B(2, b) = 1 / (b (b+1)), times the limit psi'(b) of the bracket below
            return self.mass * b * (b + 1.0) * float(special.polygamma(1, b))
        # B(a-2, b) (psi(a+b-2) - psi(b)) / B(a, b), continued through a - 2 in (-1, 0): the beta ratio is
        # (a+b-1)(a+b-2) / ((a-1)(a-2)), and psi(z) = psi(z+1) - 1/z keeps a + b = 2 finite.
        bracket = (a + b - 2.0) * float(special.digamma(a + b - 1.0) - special.digamma(b)) - 1.0
        return self.mass * (a + b - 1.0) * bracket / ((a - 1.0) * (a - 2.0))


def _fields_kind(cls):
    """The allowed keys and builder of a variant whose config keys are its float fields."""
    names = [f.name for f in fields(cls)]
    required = {f.name for f in fields(cls) if f.default is MISSING}
    # only the keys given are passed, so a field left out takes its default and a required one raises KeyError
    return names, lambda p, K: cls(**{name: float(p[name]) for name in names if name in p or name in required})


_MEASURE_KINDS = {
    **{cls.kind: _fields_kind(cls) for cls in (ZeroMeasure, PointMass, UniformLaw, BetaLaw)},
    "finite_atoms": (("atoms",), lambda p, K: FiniteAtoms(p["atoms"])),
}


def measure_from_config(block: dict) -> LambdaMeasure:
    """Deserialize a lambda block; a key left out takes the default of the variant's field."""
    return build_kind(_MEASURE_KINDS, block, "lambda")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def lambda_nk_quadrature(measure: LambdaMeasure, n: int, k: int) -> float:
    """Collision intensity ``∫ y**(k-2) (1-y)**(n-k) L(dy)`` for ``2 <= k <= n``, by quadrature.

    The atoms of an :class:`AtomicMeasure` are summed directly; any other
    measure's ``density`` is integrated with adaptive quadrature.  Kept
    independent of the closed form :meth:`LambdaMeasure.collision_rates`
    (which is ``C(n, k)`` times this) so the two routes can be cross-checked.
    """
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got n={n}, k={k}")
    if isinstance(measure, AtomicMeasure):
        return sum((w * z ** (k - 2) * (1.0 - z) ** (n - k) for z, w in measure.atoms()), 0.0)
    from scipy.integrate import quad

    return quad(lambda y: float(measure.density(y)) * y ** (k - 2) * (1.0 - y) ** (n - k), 0.0, 1.0,
                epsabs=0.0, epsrel=1e-12, limit=400)[0]


# ---------------------------------------------------------------------------
# Sampling the event-size law
# ---------------------------------------------------------------------------


class TruncatedSizeLaw:
    """Normalized restriction of ``L(dz)/z**2`` to ``[eps, 1]``.

    This is the law of the replacement fraction of an extreme reproductive
    event, and the jump-size law of the limit process once sizes below
    ``eps`` are discarded (they contribute no drift, only vanishing
    variance).
    """

    def __init__(self, measure: LambdaMeasure, eps: float):
        if not 0.0 < eps <= 1.0:
            raise ValueError("truncation threshold must lie in (0, 1]")
        self.measure = measure
        self.eps = float(eps)
        self.total_rate = measure.resampling_mass_above(self.eps)
        if not 0.0 <= self.total_rate < math.inf:  # a numerical fault, not a bad input: no ValueError
            raise FloatingPointError(f"{measure!r} has event rate {self.total_rate!r} above eps = {self.eps!r}")
        self._draw = measure._size_draw(self.eps) if self.total_rate > 0 else None

    @property
    def truncated_mass(self) -> float:
        """Plain mass ``L([0, eps))`` lost to the truncation (diagnostic)."""
        return self.measure.mass_below(self.eps)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self._draw is None:
            raise ValueError("cannot sample from an empty size law")
        return self._draw(rng, size)
