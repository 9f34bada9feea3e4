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
from typing import NamedTuple

from . import intkit
from .errors import DefectError


class PellPair(NamedTuple):
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


def g_sequence(n_max: int) -> list[int]:
    """G_0 .. G_{n_max} by the two-term recurrence (one addition per step)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = []
    g0, g1 = 1, 1
    for _ in range(n_max + 1):
        out.append(g0)
        g0, g1 = g1, 2 * g1 + g0
    return out


def g_gcd_index(l: int, m: int) -> int:
    """The g with gcd(G_l, G_m) = G_g, in closed form: gcd(l, m) when l
    and m have the same 2-adic valuation, and otherwise 1 (G_1 = 1).
    """
    if l < 1 or m < 1:
        raise ValueError("gcd arguments must be >= 1")
    return math.gcd(l, m) if intkit.valuation(l, 2) == intkit.valuation(m, 2) else 1


def g_gcd(l: int, m: int) -> int:
    """gcd(G_l, G_m) = G_g with g from `g_gcd_index`."""
    return pell_pair(g_gcd_index(l, m)).g


def _least_index_divisible(p: int, limit: int) -> int | None:
    """The least n in 0..limit with p | G_n, or None: G walked mod p."""
    g0, g1 = 1, 1
    for n in range(limit + 1):
        if g0 == 0:
            return n
        g0, g1 = g1, (2 * g1 + g0) % p
    return None


def prime_power_search(p: int, n_max: int) -> list[tuple[int, int]]:
    """All (n, e) with 0 <= n <= n_max, G_n == p**e and e >= 2.

    At most one index can hit.  It is found by a walk of G mod p of at
    most min(n_max, (p + 1)//2) + 1 word-sized steps and one exact G_n,
    for any n_max.

    Write 2G_n = V_n(2, -1) and F_n = U_n(2, -1), the Lucas sequences of
    x**2 - 2x - 1.  Let w be the rank of apparition of p in F, the least
    n >= 1 with p | F_n; w divides p - (2/p), so w <= p + 1 (Lucas 1878).

    - p | G_n exactly when w is even and n is an odd multiple of
      n0 = w/2.  For F_2n = 2 F_n G_n and G_n**2 - 2 F_n**2 = +-1, so
      p | G_n means that w divides 2n but not n; and if w is even and n
      an odd multiple of w/2, then p | F_2n while p does not divide F_n.
      So n0 is the least n with p | G_n, and n0 <= (p + 1)/2.
    - For odd j, v_p(G_{j n0}) = v_p(G_n0) + v_p(j) (Carmichael, Annals
      of Math. 15, 1913; the lifting-the-exponent lemma).
    - n0 is the only candidate.  A hit at n = j n0 with odd j >= 3 would
      need G_n = p**(v_p(G_n0) + v_p(j)) <= j G_n0.  But G_{k+1} >= 2 G_k
      for k >= 1, so G_n >= 2**(j - 1) G_n0 > j G_n0.

    So the search walks G mod p for n <= min(n_max, (p + 1)//2), stops at
    the first n with G_n = 0 mod p, and tests the exact G_n from
    `pell_pair`: a hit when it is p**e with e >= 2.  The equality is the
    certificate.  An exact G_n that p does not divide means the walk and
    the ring power disagree, which raises DefectError.
    """
    intkit.check_odd_prime(p)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    n0 = _least_index_divisible(p, min(n_max, (p + 1) // 2))
    if n0 is None:
        return []
    g = pell_pair(n0).g
    if g % p:
        raise DefectError(f"G_{n0} mod {p} walks to 0, but {p} does not divide G_{n0}")
    e = intkit.valuation(g, p)
    return [(n0, e)] if e >= 2 and g == p**e else []
