"""Polynomial maps of the simplex and their Bernstein-basis representation.

On the face ``x_1 + ... + x_K = 1`` the degree-n Bernstein basis is
``B_z(x) = C(n; z) x**z`` over multi-indices ``|z| = n``; these are exactly
the multinomial(n, x) probabilities, which is what ties simplex-preserving
polynomial maps to colouring rules: a map with Bernstein coefficients in
[0, 1] can be read off as "sample n parents, then colour with probability
``alpha_z``".
"""

from __future__ import annotations

import numpy as np

from .combinat import composition_index, compositions, multinomial_coefficients


class PolynomialMap:
    """A polynomial map R^K -> R^K given by monomial coefficients.

    ``components[i]`` maps exponent multi-indices (length-K tuples) to
    coefficients of the i-th output.
    """

    def __init__(self, components):
        components = tuple(
            {tuple(int(v) for v in m): float(c) for m, c in comp.items() if c != 0.0} for comp in components
        )
        if not components:
            raise ValueError("need at least one component")
        K = len(components)
        degree = 0
        for comp in components:
            for m in comp:
                if len(m) != K:
                    raise ValueError(f"exponent {m} has length {len(m)}, expected {K}")
                if any(v < 0 for v in m):
                    raise ValueError(f"negative exponent in {m}")
                degree = max(degree, sum(m))
        self.components = components
        self.K = K
        self.degree = degree

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.K,))
        for i, comp in enumerate(self.components):
            acc = np.zeros(x.shape[:-1])
            for m, c in comp.items():
                term = np.full(x.shape[:-1], c)
                for r, power in enumerate(m):
                    if power:
                        term = term * x[..., r] ** power
                acc += term
            out[..., i] = acc
        return out


def bernstein_table(poly: PolynomialMap) -> tuple[int, np.ndarray]:
    """Bernstein coefficients of ``poly`` on the simplex face, at the map's degree n.

    Each monomial of total degree d < n is elevated by distributing
    ``(x_1 + ... + x_K)**(n-d)`` over it, which leaves the map unchanged on
    the face.  Returns ``(n, table)``; ``table[row, i]`` is the coefficient
    of output i on the multi-index ``compositions(K, n)[row]``.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("Bernstein degree must be at least 1")
    K = poly.K
    idx = composition_index(K, n)
    table = np.zeros((len(idx), K))
    for i, comp in enumerate(poly.components):
        for m, c in comp.items():
            d = sum(m)
            pad = compositions(K, n - d)
            coefs = multinomial_coefficients(K, n - d)
            for extra, w in zip(pad, coefs):
                z = tuple(int(a + b) for a, b in zip(m, extra))
                table[idx[z], i] += c * w
    table /= multinomial_coefficients(K, n)[:, None]
    return n, table
