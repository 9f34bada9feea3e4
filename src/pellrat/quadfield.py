"""Real quadratic fields Q(sqrt(d)) with exact ring-of-integers arithmetic.

Elements are (u + v*sqrt(d))/den with den in {1, 2}; den = 2 occurs only in
the half-integral ring (d = 1 mod 4, u and v both odd).  The fundamental
unit comes from the continued-fraction expansion of the standard ring
generator, run entirely on integers; the primitive period closes at the
first later complete quotient whose denominator Q is the generator's Q0.
The module also owns the field family with radicand m**2 * p**(2r) + 1
and its exact coefficient bound.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import intkit
from .errors import DefectError, IncompleteFactorization, NotAUnit

if TYPE_CHECKING:
    from fractions import Fraction


class _Radicand(NamedTuple):
    d: int


class QuadraticField(_Radicand):
    """Q(sqrt(d)) for squarefree d >= 2.

    Squarefreeness is the caller's responsibility (certifying it requires a
    factorization); obvious violations are rejected cheaply.
    """

    __slots__ = ()

    def __new__(cls, d: int):
        if d < 2:
            raise ValueError("field requires squarefree d >= 2")
        for sq in (4, 9, 25, 49, 121):
            if d % sq == 0:
                raise ValueError(f"d = {d} is divisible by {sq}, not squarefree")
        r = math.isqrt(d)
        if r * r == d:
            raise ValueError(f"d = {d} is a perfect square")
        return super().__new__(cls, d)

    @property
    def disc(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d


class QuadInt(NamedTuple):
    """(u + v*sqrt(d))/den in the ring of integers of ``field``.

    Construct through :func:`element`, which canonicalizes; direct
    construction skips the parity checks.  ``+`` and ``*`` are ring
    arithmetic, never tuple concatenation or repetition.
    """

    u: int
    v: int
    den: int
    field: QuadraticField

    def __add__(self, other):
        other = _coerce(self.field, other)
        q = max(self.den, other.den)
        return _from_rational(self.field,
                              self.u * (q // self.den) + other.u * (q // other.den),
                              self.v * (q // self.den) + other.v * (q // other.den),
                              q)

    def __sub__(self, other):
        return self + (-_coerce(self.field, other))

    def __neg__(self):
        return QuadInt(-self.u, -self.v, self.den, self.field)

    def __mul__(self, other):
        other = _coerce(self.field, other)
        if other.field != self.field:
            raise ValueError("elements of different fields")
        d = self.field.d
        nu = self.u * other.u + self.v * other.v * d
        nv = self.u * other.v + self.v * other.u
        return _from_rational(self.field, nu, nv, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return intkit.binary_power(QuadInt.__mul__, one(self.field), self, e)

    def conj(self):
        return QuadInt(self.u, -self.v, self.den, self.field)

    def inverse(self):
        nrm = qi_norm(self)
        if nrm == 1:
            return self.conj()
        if nrm == -1:
            return -self.conj()
        raise NotAUnit(f"norm {nrm} element has no ring inverse")

    def is_one(self) -> bool:
        return self.den == 1 and self.u == 1 and self.v == 0

    def __repr__(self):
        core = f"{self.u}{self.v:+d}*sqrt({self.field.d})"
        return core if self.den == 1 else f"({core})/2"


def _coerce(field: QuadraticField, x):
    if isinstance(x, QuadInt):
        return x
    if isinstance(x, int):
        return QuadInt(x, 0, 1, field)
    raise TypeError(f"cannot coerce {type(x).__name__} into {field}")


def _from_rational(field: QuadraticField, nu: int, nv: int, q: int) -> QuadInt:
    # (nu + nv*sqrt(d))/q for q >= 1; reduce to the canonical den.  For a
    # genuine ring element the common gcd always clears q down to 1, or to
    # 2 with both coordinates odd when half-integers exist.
    g = math.gcd(math.gcd(nu, nv), q)
    nu //= g
    nv //= g
    q //= g
    if q == 1:
        return QuadInt(nu, nv, 1, field)
    if q == 2 and field.d % 4 == 1 and nu % 2 == 1 and nv % 2 == 1:
        return QuadInt(nu, nv, 2, field)
    raise DefectError(f"({nu}+{nv}*sqrt({field.d}))/{q} is not integral")


def element(field: QuadraticField, u: int, v: int, den: int = 1) -> QuadInt:
    """Canonical ring element (u + v*sqrt(d))/den."""
    if den == 1:
        return QuadInt(u, v, 1, field)
    if den != 2:
        raise ValueError("denominator must be 1 or 2")
    if u % 2 == 0 and v % 2 == 0:
        return QuadInt(u // 2, v // 2, 1, field)
    if field.d % 4 != 1 or (u - v) % 2 != 0:
        raise ValueError(f"({u}+{v}*sqrt({field.d}))/2 is not an algebraic integer")
    return QuadInt(u, v, 2, field)


def one(field: QuadraticField) -> QuadInt:
    return QuadInt(1, 0, 1, field)


def qi_norm(x: QuadInt) -> int:
    """Field norm x * conj(x), always a rational integer."""
    num = x.u * x.u - x.v * x.v * x.field.d
    dd = x.den * x.den
    if num % dd:
        raise DefectError("non-integral norm")
    return num // dd


def qi_sign(x: QuadInt) -> int:
    """Sign of x in the real embedding with sqrt(d) > 0, computed exactly."""
    u, v, d = x.u, x.v, x.field.d
    if u >= 0 and v >= 0:
        return 1 if (u or v) else 0
    if u <= 0 and v <= 0:
        return -1
    if u > 0:  # v < 0
        return 1 if u * u > v * v * d else -1
    return 1 if v * v * d > u * u else -1


def qi_greater_than_one(x: QuadInt) -> bool:
    return qi_sign(x - 1) > 0


# ---------------------------------------------------------------------------
# fundamental units


def _cf_generator_start(field: QuadraticField) -> tuple[int, int]:
    # expansion of sqrt(d) = (0 + sqrt(d))/1, or (1 + sqrt(d))/2 for d = 1 mod 4
    if field.d % 4 == 1:
        return 1, 2
    return 0, 1


def fundamental_unit(field: QuadraticField) -> QuadInt:
    """Smallest unit > 1 of the ring of integers.

    Runs the continued fraction of the standard generator
    omega = (P0 + sqrt(d))/Q0 with the exact (P, Q) recurrence on
    (P + sqrt(d))/Q.  The first later complete quotient with Q == Q0 is
    reduced, so it equals omega plus an integer and closes the primitive
    period; the last convergent p/q then gives the unit p - q*conj(omega).
    """
    d = field.d
    s = math.isqrt(d)
    P0, Q0 = _cf_generator_start(field)
    P, Q = P0, Q0
    p1, p0 = 1, 0  # the last two convergents p_n/q_n
    q1, q0 = 0, 1
    while True:
        a = (P + s) // Q
        p1, p0 = a * p1 + p0, p1
        q1, q0 = a * q1 + q0, q1
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == Q0:
            break
    unit = _from_rational(field, Q0 * p1 - P0 * q1, q1, Q0)
    if abs(qi_norm(unit)) != 1 or unit.is_one():
        raise DefectError(f"continued fraction of sqrt({d}) lost the unit")
    return unit


def unit_norm_sign(field: QuadraticField) -> int:
    """Norm of the fundamental unit: -1 or +1."""
    return qi_norm(fundamental_unit(field))


def unit_index(t: QuadInt, eps: QuadInt) -> tuple[int, int]:
    """(sign, k) with t == sign * eps**k, for a fundamental unit eps > 1.

    Raises NotAUnit when |norm(t)| != 1 and ValueError when t is not in the
    group generated by -1 and eps.
    """
    if abs(qi_norm(t)) != 1:
        raise NotAUnit(f"norm {qi_norm(t)} element is not a unit")
    if abs(qi_norm(eps)) != 1 or not qi_greater_than_one(eps):
        raise ValueError("eps must be a unit greater than 1")
    sign = qi_sign(t)
    x = t if sign > 0 else -t
    inv = eps.inverse()
    k = 0
    while qi_greater_than_one(x):
        x = x * inv
        k += 1
    while not x.is_one() and not qi_greater_than_one(x):
        x = x * eps
        k -= 1
    if not x.is_one():
        raise ValueError("t is not a power of eps")
    return sign, k


# ---------------------------------------------------------------------------
# the field family with radicand m**2 * p**(2r) + 1


class FamilyField(NamedTuple):
    """Q(sqrt(d)) built from N = m**2 * p**(2r) + 1 = b**2 * d.

    ``t`` is the distinguished norm -1 unit m*p**r + b*sqrt(d).
    """

    p: int
    r: int
    m: int
    n: int
    b: int
    field: QuadraticField
    t: QuadInt

    @property
    def d(self) -> int:
        return self.field.d


def _m_bound_terms(p: int, r: int) -> tuple[int, int]:
    # (1 + C(q, 2), q) with q = p**(r-1): the bound's coefficient and its power of 2
    if r < 2:
        raise ValueError("r must be >= 2")
    q = p ** (r - 1)
    return 1 + math.comb(q, 2), q


def m_bound(p: int, r: int) -> Fraction:
    """Exact rational coefficient bound for the multiplier m.

    (1 + binomial(q, 2)) * p**(q - r) / 2**q with q = p**(r-1).
    """
    from fractions import Fraction  # no CLI path needs the exact value

    coeff, q = _m_bound_terms(p, r)
    return Fraction(coeff * p ** (q - r), 2**q)


def m_bound_floor(p: int, r: int) -> int:
    """floor(m_bound(p, r)) as a shift; the Fraction's gcd takes seconds past q ~ 1e5."""
    coeff, q = _m_bound_terms(p, r)
    return coeff * p ** (q - r) >> q


def m_bound_satisfied(p: int, r: int, m: int) -> bool:
    """m <= m_bound(p, r), decided on bit lengths when they suffice.

    m * 2**q <= (1 + C(q, 2)) * p**k with k = q - r; as
    2**(k*(bits(p) - 1)) <= p**k < 2**(k*bits(p)), the bit lengths of both
    sides usually settle it without building p**k, which has about
    q*log2(p) bits.  Only a close call falls back to the exact shift.
    """
    coeff, q = _m_bound_terms(p, r)
    k = q - r
    coeff_bits = coeff.bit_length()
    lhs_bits = m.bit_length() + q  # 2**(lhs_bits-1) <= m * 2**q < 2**lhs_bits
    if lhs_bits <= coeff_bits - 1 + k * (p.bit_length() - 1):
        return True
    if m >= 1 and coeff_bits + k * p.bit_length() <= lhs_bits - 1:
        return False
    return m <= m_bound_floor(p, r)


def check_cell(p: int, r: int, m: int) -> None:
    """Raise ValueError unless p is an odd prime, r >= 2, and m >= 1 is coprime to p."""
    intkit.check_odd_prime(p)
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m % p == 0:
        raise ValueError(f"m must be coprime to p, got m={m}, p={p}")


def construct_family(p: int, r: int, m: int = 1,
                     factor_fn=intkit.factor) -> FamilyField:
    """Build the family field for (p, r, m).

    The cell must pass `check_cell`.  The radicand N = m**2 * p**(2r) + 1
    is factored by ``factor_fn(N)``, which returns an
    `intkit.Factorization` and carries the caller's effort budget and
    cache (the default is `intkit.factor` at its default effort).  An
    incomplete factorization raises IncompleteFactorization, since the
    squarefree part cannot be certified without it.  The two structural
    guarantees -- norm(t) = -1 and p split -- are verified.
    """
    check_cell(p, r, m)
    n = m * m * p ** (2 * r) + 1
    b, d = intkit.squarefree_decompose(n, factorization=factor_fn(n))
    if d == 1:
        raise DefectError(f"radicand {n} is a perfect square; degenerate field")
    field = QuadraticField(d)
    t = element(field, m * p**r, b)
    if qi_norm(t) != -1:
        raise DefectError("family unit lost norm -1")
    if intkit.jacobi(d, p) != 1:
        raise DefectError(f"{p} does not split in Q(sqrt({d}))")
    return FamilyField(p=p, r=r, m=m, n=n, b=b, field=field, t=t)
