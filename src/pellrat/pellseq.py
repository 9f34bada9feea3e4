"""Companion Pell pairs (1 + sqrt(2))**n = G_n + F_n * sqrt(2).

Both sequences satisfy x_{n+2} = 2 x_{n+1} + x_n; G carries the constant
terms (1, 1, 3, 7, 17, ...), F the sqrt(2) coefficients (0, 1, 2, 5, ...).
Negative indices are the exact ring powers of (1 + sqrt(2))**-1 = sqrt(2) - 1,
so G_{-n} = (-1)**n G_n and F_{-n} = (-1)**(n+1) F_n.

The gcd structure of G and the emptiness of prime-power searches in it are
the observable content of the appendix-style divisibility results.  The
search also guards the field family: for m = 1 the field is Q(sqrt(2))
exactly when p**(2r) + 1 = 2 b**2, that is, when p**r + b*sqrt(2) is an odd
power of 1 + sqrt(2) and so G_n = p**r.  d = 2 is the one field that the
n2 = r check exempts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from . import intkit
from .errors import DefectError


@dataclass(frozen=True)
class PellPair:
    n: int
    g: int
    f: int


def _pair_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    # (g1 + f1*sqrt(2)) * (g2 + f2*sqrt(2))
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def pell_pair(n: int) -> PellPair:
    """Exact (G_n, F_n) by binary exponentiation in Z[sqrt(2)].

    >>> pell_pair(5)
    PellPair(n=5, g=41, f=29)
    """
    base = (1, 1) if n >= 0 else (-1, 1)
    g, f = intkit.binary_power(_pair_mul, (1, 0), base, abs(n))
    return PellPair(n=n, g=g, f=f)


def g_values(n_max: int) -> Iterator[int]:
    """G_0 .. G_{n_max} one at a time, by the two-term recurrence."""
    g0, g1 = 1, 1
    for _ in range(n_max + 1):
        yield g0
        g0, g1 = g1, 2 * g1 + g0


def g_sequence(n_max: int) -> list[int]:
    """G_0 .. G_{n_max} by the two-term recurrence (one addition per step)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return list(g_values(n_max))


def g_gcd(l: int, m: int) -> int:
    """gcd(G_l, G_m) in closed form.

    Equals G_{gcd(l, m)} when l and m have the same 2-adic valuation and 1
    otherwise.
    """
    if l < 1 or m < 1:
        raise ValueError("gcd arguments must be >= 1")
    if intkit.valuation(l, 2) == intkit.valuation(m, 2):
        return pell_pair(math.gcd(l, m)).g
    return 1


def prime_power_search(p: int, n_max: int) -> list[tuple[int, int]]:
    """All (n, e) with 0 <= n <= n_max, G_n == p**e and e >= 2.

    G is streamed, never held whole, and one power p**e is walked beside
    it: before each G_n is compared, the power is multiplied by p while it
    is below G_n.  G never decreases (1, 1, 3, 7, ...), so the power is
    always the least power of p at or above G_n and none is skipped; the
    equality G_n == p**e is the certificate of a hit.  More than one hit
    contradicts the uniqueness result for p-power values, so that raises
    DefectError.
    """
    intkit.check_odd_prime(p)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    hits: list[tuple[int, int]] = []
    power, e = 1, 0
    for n, g in enumerate(g_values(n_max)):
        while power < g:
            power, e = power * p, e + 1
        if power == g and e >= 2:
            hits.append((n, e))
    if len(hits) >= 2:
        raise DefectError(f"multiple pure {p}-power values in G: {hits}")
    return hits
