"""Split-prime residue embeddings and p-adic valuations of ring elements.

For an odd prime p with (d/p) = 1, a Hensel-lifted square root s of d mod
p**k turns ring elements into residues: (u + v*sqrt(d))/den maps to
(u + v*s) * den^{-1} mod p**k.  The two roots +-s are the two primes above
p; precision raises are Newton lifts of the embedding's own root, so the
prime never silently flips.  The other prime is the root p**k - s.

Congruences that only need modulus p**2 are also computed in the quotient
ring (Z/p**2)[omega] without any lifting; the two routes are independent
and cross-validate each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intkit
from .errors import DefectError, NoEmbedding, PrecisionExhausted
from .quadfield import FamilyField, QuadInt, QuadraticField, qi_norm

DEFAULT_PRECISION_CAP = 64  # digits base p


def _lift_sqrt(s: int, d: int, p: int, k_from: int, k_to: int) -> int:
    # Newton doubling for x**2 = d, staying on the root fixed mod p**k_from
    k = k_from
    while k < k_to:
        k = min(2 * k, k_to)
        mod = p**k
        s = (s + d * pow(s, -1, mod)) * pow(2, -1, mod) % mod
    return s


def hensel_sqrt(d: int, p: int, k: int) -> int:
    """Smallest s with s**2 = d mod p**k, for odd prime p with (d/p) = 1.

    >>> hensel_sqrt(82, 3, 4)
    1
    """
    intkit.check_odd_prime(p)
    if k < 1:
        raise ValueError("precision k must be >= 1")
    if d % p == 0 or intkit.jacobi(d % p, p) != 1:
        raise NoEmbedding(f"{d} is not an invertible square mod {p}")
    s = intkit.sqrt_mod_prime(d, p)
    s = _lift_sqrt(s, d, p, 1, k)
    return min(s, p**k - s)


@dataclass(frozen=True)
class SplitPrimeEmbedding:
    """Residue embedding O_K -> Z/p**k along one prime above split p."""

    p: int
    k: int
    s: int  # s**2 = d mod p**k
    field: QuadraticField

    @property
    def modulus(self) -> int:
        return self.p**self.k


def split_embedding(field: QuadraticField, p: int, k: int) -> SplitPrimeEmbedding:
    """Embedding along the prime fixed by the smaller lifted root."""
    return SplitPrimeEmbedding(p=p, k=k, s=hensel_sqrt(field.d, p, k), field=field)


def family_embedding(fam: FamilyField, k: int | None = None) -> SplitPrimeEmbedding:
    """Embedding normalized for the field family.

    The root is s = 1/b mod p**min(k, 2r), lifted to p**k; along it
    b*sqrt(d) - 1 generates the full p**2r part, which pins the prime the
    invariants are measured against.  b**2 * d = N = 1 mod p**2r makes 1/b
    a square root of d there, and the lift stays on it, so the
    normalization picks the same prime at every precision.
    """
    if k is None:
        k = max(8, 2 * fam.r + 2)
    if k < 1:
        raise ValueError("precision k must be >= 1")
    p, j = fam.p, min(k, 2 * fam.r)
    s = _lift_sqrt(pow(fam.b, -1, p**j), fam.d, p, j, k)
    if (s * s - fam.d) % p**k:
        raise DefectError(f"1/b is not a square root of {fam.d} mod {p}^{k}")
    return SplitPrimeEmbedding(p=p, k=k, s=s, field=fam.field)


def raise_precision(emb: SplitPrimeEmbedding, k: int) -> SplitPrimeEmbedding:
    """Same root, higher precision."""
    if k <= emb.k:
        return emb
    s = _lift_sqrt(emb.s, emb.field.d, emb.p, emb.k, k)
    return SplitPrimeEmbedding(p=emb.p, k=k, s=s, field=emb.field)


def embed(x: QuadInt, emb: SplitPrimeEmbedding) -> int:
    """Residue of x in Z/p**k along the embedding's root."""
    if x.field != emb.field:
        raise ValueError("element of a different field")
    mod = emb.modulus
    val = (x.u + x.v * emb.s) % mod
    if x.den != 1:
        val = val * pow(x.den, -1, mod) % mod
    return val


def _resolve(emb: SplitPrimeEmbedding, cap: int, what: str, residue) -> int:
    # valuation of residue(emb), a residue mod p**k; precision doubles up to
    # the cap while it reads 0, and the cap raises rather than truncates
    while True:
        c = residue(emb)
        if c != 0:
            return intkit.valuation(c, emb.p)
        if emb.k >= cap:
            raise PrecisionExhausted(
                f"{what} at {emb.p} unresolved at precision {emb.k}")
        emb = raise_precision(emb, min(2 * emb.k, cap))


def pvaluation(x: QuadInt, emb: SplitPrimeEmbedding,
               cap: int = DEFAULT_PRECISION_CAP) -> int:
    """Valuation of x != 0 at the embedding's prime.

    Precision doubles until the valuation is resolved; hitting the cap
    raises PrecisionExhausted rather than returning a truncated answer.
    """
    if x.u == 0 and x.v == 0:
        raise ValueError("valuation of zero is undefined")
    return _resolve(emb, cap, "valuation", lambda e: embed(x, e))


def congruence_order(x: QuadInt, emb: SplitPrimeEmbedding,
                     cap: int = DEFAULT_PRECISION_CAP) -> int:
    """Valuation of x**(p-1) - 1 at the embedding's prime.

    Defined for any x invertible at the prime (valuation zero there); the
    power is taken on residues, never on exact ring elements.
    """
    p = emb.p

    def delta(e: SplitPrimeEmbedding) -> int:
        c = embed(x, e)
        if c % p == 0:
            raise ValueError("x is not invertible at the prime")
        return (pow(c, p - 1, e.modulus) - 1) % e.modulus

    return _resolve(emb, cap, "congruence order", delta)


def unit_congruence_order(t: QuadInt, emb: SplitPrimeEmbedding,
                          cap: int = DEFAULT_PRECISION_CAP) -> int:
    """congruence_order restricted to units (|norm| = 1)."""
    if abs(qi_norm(t)) != 1:
        raise ValueError("unit_congruence_order requires a unit")
    return congruence_order(t, emb, cap)


# ---------------------------------------------------------------------------
# quotient-ring route: congruences mod p**j without any root lifting


def omega_coords(x: QuadInt) -> tuple[int, int]:
    """Coordinates of x in the integral basis {1, omega}.

    omega is sqrt(d), or (1 + sqrt(d))/2 when d = 1 mod 4.
    """
    if x.field.d % 4 != 1:
        if x.den != 1:
            raise ValueError("non-integral element")
        return x.u, x.v
    # sqrt(d) = 2*omega - 1
    if x.den == 1:
        return x.u - x.v, 2 * x.v
    return (x.u - x.v) // 2, x.v


def power_is_one_mod(x: QuadInt, e: int, modulus: int) -> bool:
    """x**e = 1 in O_K / modulus, via the quotient ring.

    Works for any odd modulus coprime to the denominator; no splitting
    assumption is needed, which makes this the independent cross-check for
    the embedding route.  Powers run on coordinate pairs in {1, omega}.
    """
    if modulus % 2 == 0:
        raise ValueError("modulus must be odd")
    d = x.field.d
    q0, q1 = ((d - 1) // 4, 1) if d % 4 == 1 else (d, 0)  # omega**2 = q0 + q1*omega

    def mul(a, b):
        cross = a[1] * b[1]
        return ((a[0] * b[0] + cross * q0) % modulus,
                (a[0] * b[1] + a[1] * b[0] + cross * q1) % modulus)

    a0, a1 = omega_coords(x)
    r0, r1 = intkit.binary_power(mul, (1 % modulus, 0), (a0 % modulus, a1 % modulus), e)
    return r0 == 1 % modulus and r1 == 0
