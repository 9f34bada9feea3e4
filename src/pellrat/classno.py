"""Class numbers of real quadratic fields by one exact distance sum.

A form is a plain ``(a, b, c)`` tuple of ints with positive nonsquare
discriminant D = b**2 - 4ac.  It is reduced when
|sqrt(D) - 2|a|| < b < sqrt(D); all comparisons run on integers against
isqrt(D), never on floats.  The reduced forms of one discriminant come from
the divisors of (D - b**2)/4 for every admissible b, and one sieve over b
factors all of those numbers completely, without a call to `intkit.factor`.

The narrow class number h+ is the number of rho-cycles of reduced forms,
but no cycle is walked.  Each cycle goes once round the infrastructure, so
its distances log((b + sqrt(D))/(2|a|)) add up to log eps+, where eps+ is
the least unit above 1 of norm +1 (Shanks, "The infrastructure of a real
quadratic field", 1972; Lenstra, "On the calculation of regulators and
class numbers of quadratic fields", 1982).  Summed over every reduced form,
the distances give h+ * log eps+.  The forms with one b pair up, and the
distances of a pair add up to log((sqrt(D) + b)/(sqrt(D) - b)), so the sum
needs only the number of forms at each b.  It is carried as one product with
integer lower and upper bounds, a sieve block at a time, and compared with
integer bounds on eps+ through a fixed-point log2; h+ is accepted only when
the quotient's interval holds exactly one integer.  The wide class number
follows from the norm of the fundamental unit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator

from . import intkit
from .errors import DefectError, DiscriminantTooLarge
from .quadfield import QuadInt, QuadraticField, fundamental_unit, qi_norm

DEFAULT_DISC_CEILING = 10**10

Form = tuple[int, int, int]

# fractional bits of every fixed-point number here: the roots, the running
# product's mantissa and the log2 values.  sqrt(D) - b >= 1/(2 sqrt(D)), so
# each factor of the distance product is known to 2**(2 - _BITS) * sqrt(D)
# relative, and up to 10**7 reduced forms at D <= 10**10 keep log2(hi/lo)
# below 2**-20, far inside what telling h+ from h+ +- 1 needs.
_BITS = 64


def _valid_disc(disc: int) -> int:
    if disc <= 0 or disc % 4 not in (0, 1):
        raise ValueError("discriminant must be positive and 0 or 1 mod 4")
    s = math.isqrt(disc)
    if s * s == disc:
        raise ValueError("discriminant must not be a square")
    return s


# b values sieved at a time: small enough that a block's factor lists stay
# well under a megabyte, large enough that the per-prime loop is amortised
_SIEVE_BLOCK = 2048


def _progressions(disc: int, b0: int, q_max: int) -> list[tuple[int, int]]:
    """(q, i0) for each odd prime q <= q_max and each root of b**2 = disc
    mod q: q divides (disc - b**2)/4 at b = b0 + 2*i exactly when
    i = i0 mod q."""
    pairs = []
    for q in intkit.primes_up_to(q_max)[1:]:
        dq = disc % q
        if dq == 0:
            roots: tuple[int, ...] = (0,)
        elif pow(dq, (q - 1) // 2, q) == 1:
            t = intkit.sqrt_mod_prime(dq, q)
            roots = (t, q - t)
        else:
            continue
        half = (q + 1) // 2  # the inverse of 2 mod q
        pairs.extend((q, (t - b0) * half % q) for t in roots)
    return pairs


def _window_divisors(disc: int, s: int) -> Iterator[tuple[int, int, list[int]]]:
    """(b, m_b, ds) for every admissible b that may have reduced forms,
    where m_b = (disc - b**2)/4 and ds lists the divisors d of m_b with
    s - b < 2d <= s + b, ascending.

    For each admissible b the product -a*c of a reduced form is m_b, so
    (d, b, -m_b/d) and (-d, b, m_b/d) for d in ds are the reduced forms with
    that b.  As sqrt(disc) is irrational, |sqrt(disc) - 2|a|| < b reads
    s - b < 2|a| <= s + b with s = isqrt(disc).  Both |a| and
    |c| = m_b/|a| < (sqrt(disc) + b)/2 are at most s, so a b whose m_b has
    a prime factor above s has no reduced form and is skipped unexpanded.

    Every m_b is factored by one sieve over b, a block of b values at a
    time: an odd prime q divides m_b exactly when b**2 = disc mod q, so q is
    divided out along the progressions of b from the (at most two) roots.
    Sieving every prime up to sqrt(m_b) for the smallest b leaves a
    cofactor of 1 or a prime, so every factorization is complete.
    """
    b0 = 2 - (disc % 2)  # smallest positive b with b**2 = disc mod 4
    count = (s - b0) // 2 + 1
    pairs = _progressions(disc, b0, math.isqrt((disc - b0 * b0) // 4))
    for lo in range(0, count, _SIEVE_BLOCK):
        bs = range(b0 + 2 * lo, b0 + 2 * min(lo + _SIEVE_BLOCK, count), 2)
        ms = [(disc - b * b) >> 2 for b in bs]
        rest = []
        factors: list[list[tuple[int, int]]] = []
        for m in ms:
            e = (m & -m).bit_length() - 1
            rest.append(m >> e)
            factors.append([(2, e)] if e else [])
        for q, i0 in pairs:
            for j in range((i0 - lo) % q, len(ms), q):
                m, e = rest[j] // q, 1
                while m % q == 0:
                    m, e = m // q, e + 1
                rest[j] = m
                factors[j].append((q, e))
        for b, m, cof, fct in zip(bs, ms, rest, factors):
            if cof > s:
                continue
            if cof > 1:
                fct.append((cof, 1))
            divs = intkit.expand_divisors(fct)
            yield b, m, divs[bisect_right(divs, (s - b) >> 1):
                             bisect_right(divs, (s + b) >> 1)]


def reduced_forms(disc: int) -> list[Form]:
    """All reduced forms of the given discriminant, sorted."""
    forms: list[Form] = []
    for b, m, ds in _window_divisors(disc, _valid_disc(disc)):
        for dv in ds:
            forms.append((dv, b, -(m // dv)))
            forms.append((-dv, b, m // dv))
    forms.sort()
    return forms


def _log2_bound(x: int, up: bool) -> int:
    """Bound on log2(x) * 2**_BITS for an int x >= 1: a lower bound, or an
    upper bound when ``up`` is set.

    The integer part comes from the bit length, the fraction from the top
    _BITS + 1 bits of x, rounded the way of the bound, as binary digits by
    repeated squaring: y/2**_BITS is in [1, 2], and a square at 2 or above
    yields a 1 bit and is halved.  Rounding every square down keeps each
    step's value at or below the exact one, so the digits read a lower
    bound; rounding up keeps it at or above, and the digits plus one unit
    in the last place are an upper bound.  Each bound is within 6 units in
    the last place of the exact value: every rounding is at most 2**-_BITS
    relative, and the squarings' losses halve step by step.
    """
    n = x.bit_length() - 1
    shift = n - _BITS
    if shift > 0:
        y = x >> shift
        if up and y << shift != x:
            y += 1
    else:
        y = x << -shift
    two, bits = 2 << _BITS, 0
    for _ in range(_BITS):
        y *= y
        y = -(-y >> _BITS) if up else y >> _BITS
        bits <<= 1
        if y >= two:
            bits |= 1
            y = -(-y >> 1) if up else y >> 1
    return (n << _BITS) + bits + up


def _distance_bounds(disc: int, s: int) -> tuple[int, int]:
    """Bounds on the distance sum, sum log2((b + sqrt(disc))/(2|a|)) over
    the reduced forms, times 2**_BITS.

    The window s - b < 2d <= s + b is closed under d -> m_b/d, so the
    2 * n_b forms (+-d, b, -+m_b/d) at one b pair up, and the distances of
    a pair add up to log2((sqrt(disc) + b)/(sqrt(disc) - b)); the sum is
    n_b times that, summed over b.  It is kept as log2 of one product
    [lo, hi] * 2**e, started at 2**(2 * _BITS) with e = -2 * _BITS.  With
    root = isqrt(disc * 4**_BITS) and z = b * 2**_BITS, the numerator
    (sqrt(disc) + b) * 2**_BITS lies in [root + z, root + z + 1) and the
    denominator in [root - z, root - z + 1), so lo takes
    (root + z)**n // (root - z + 1)**n and hi the ceiling of
    (root + z + 1)**n / (root - z)**n.  Both are cut back to 2 * _BITS
    bits, lo down and hi up, whenever they grow past it; lo never shrinks,
    as each factor is above 1.
    """
    root = math.isqrt(disc << 2 * _BITS)
    lo = hi = 1 << 2 * _BITS
    e = -2 * _BITS
    for b, _, ds in _window_divisors(disc, s):
        n = len(ds)
        if not n:
            continue
        z = b << _BITS
        lo = lo * (root + z)**n // (root - z + 1)**n
        hi = -(-hi * (root + z + 1)**n // (root - z)**n)
        extra = hi.bit_length() - 2 * _BITS
        if extra > 0:
            lo >>= extra
            hi = -(-hi >> extra)
            e += extra
    return (_log2_bound(lo, False) + (e << _BITS),
            _log2_bound(hi, True) + (e << _BITS))


def narrow_class_number(disc: int, ceiling: int = DEFAULT_DISC_CEILING,
                        eps: QuadInt | None = None) -> int:
    """Narrow class number h+ of the field of discriminant ``disc``.

    h+ * log2(eps+) equals the distance sum over every reduced form, where
    eps+ is eps or eps**2, whichever has norm +1.  That holds only for the
    *fundamental* unit eps of the field whose discriminant is ``disc``;
    it is computed here when not given, and ``disc`` must be a fundamental
    discriminant (squarefreeness is the caller's, as for QuadraticField).
    Raises DefectError unless the bounds on the quotient hold exactly one
    integer, so a wrong unit or a wrong sum cannot pass as a class number.
    """
    s = _valid_disc(disc)
    if disc > ceiling:
        raise DiscriminantTooLarge(f"disc {disc} above ceiling {ceiling}")
    if eps is None:
        eps = fundamental_unit(QuadraticField(disc if disc % 4 == 1 else disc // 4))
    if eps.field.disc != disc:
        raise ValueError(f"{eps!r} is no unit of the field of discriminant {disc}")
    plus = eps if qi_norm(eps) == 1 else eps * eps
    num = (plus.u << _BITS) + math.isqrt(plus.v * plus.v * plus.field.d << 2 * _BITS)
    y = num // plus.den  # eps+ * 2**_BITS lies in [y, y + 1)
    r_lo = _log2_bound(y, False) - (_BITS << _BITS)
    r_hi = _log2_bound(y + 1, True) - (_BITS << _BITS)
    s_lo, s_hi = _distance_bounds(disc, s)
    first, last = -(-s_lo // r_hi), s_hi // r_lo
    if first != last or first < 1:
        raise DefectError(f"distance sum over log2 eps+ at disc {disc} holds no "
                          f"single integer (its bounds round to {first}..{last})")
    return first


def class_number(field: QuadraticField, ceiling: int = DEFAULT_DISC_CEILING,
                 eps: QuadInt | None = None) -> int:
    """Wide class number h.

    h equals the narrow class number when the fundamental unit has norm -1
    and half of it otherwise.  A caller holding the fundamental unit
    passes it as ``eps``.
    """
    if eps is None and field.disc <= ceiling:  # above it, nothing needs eps
        eps = fundamental_unit(field)
    h_plus = narrow_class_number(field.disc, ceiling, eps)
    if qi_norm(eps) == -1:
        return h_plus
    if h_plus % 2:
        raise DefectError("narrow class number must be even for norm +1")
    return h_plus // 2
