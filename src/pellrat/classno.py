"""Class numbers of real quadratic fields by one exact distance sum.

A form is a plain ``(a, b, c)`` tuple of ints with positive nonsquare
discriminant D = b**2 - 4ac.  It is reduced when
|sqrt(D) - 2|a|| < b < sqrt(D); all comparisons run on integers against
s = isqrt(D), never on floats.  Forms are enumerated by their leading
coefficient a up to s // 2: the b with a | (D - b**2)/4 are the roots of a
quadratic mod a, combined by the Chinese remainder theorem from its roots
mod each prime power, so nothing is factored.

The narrow class number h+ is the number of rho-cycles of reduced forms,
but no cycle is walked.  Each cycle goes once round the infrastructure, so
its distances log((b + sqrt(D))/(2|a|)) add up to log eps+, where eps+ is
the least unit above 1 of norm +1 (Shanks, "The infrastructure of a real
quadratic field", 1972; Lenstra, "On the calculation of regulators and
class numbers of quadratic fields", 1982).  Summed over every reduced form,
the distances give h+ * log eps+.  The forms with one b pair up, and the
distances of a pair add up to log((sqrt(D) + b)/(sqrt(D) - b)), so the sum
needs only the number n_b of forms (a, b, c) with a > 0 at each b.  Their
a are the window divisors of m_b = (D - b**2)/4, which pair up as
d <-> m_b/d, and the smaller of a pair is below sqrt(m_b) < sqrt(D)/2.  So
both the forms and the count walk only a <= s // 2, where every root lies
in the window.  An a with a**2 < m_b yields its form and its partner's, and
adds 2 to n_b; an a with a**2 = m_b yields one form and adds 1; a larger a
yields nothing, as its partner below did.  The sum is carried as one
integer lower product, b by b; its upper bound adds a proven slack per
form instead of a second product.  Both are compared with integer bounds
on eps+ through a fixed-point log2 whose width is sized, per discriminant,
by that slack, and h+ is accepted only when the quotient's interval holds
exactly one integer.  The wide class number follows from the norm of the
fundamental unit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable

from . import intkit
from .errors import DefectError, DiscriminantTooLarge
from .quadfield import QuadInt, QuadraticField, fundamental_unit, qi_norm

DEFAULT_DISC_CEILING = 10**10

Form = tuple[int, int, int]

# The fixed point.  The roots, the running product's mantissa and the log2
# values all carry B fractional bits, and a unit is 2**-B.  B is chosen per
# discriminant once the counts n_b are known, as the least B >= _MIN_BITS
# with slack + 12 < 2**(B - _MARGIN_BITS), where s = isqrt(D) and
# slack = 3 * (s + 2) * sum(n_b) + 2 * #{b : n_b > 0}.  Then:
# - Per form, the one lower product's factor is below the true one by a
#   ratio under (1 + 1/root) * (1 + 1/(root - z)), root = isqrt(D * 4**B)
#   and z = b * 2**B.  As sqrt(D) - b >= 1/(2 sqrt(D)), root - z is at least
#   2**B / (2(s + 1)) - 1, and 2**B > 2**20 * 3(s + 2) makes the -1 vanish
#   against it, so the loss is under (1 + 2(s + 1)(1 + 2**-18)) / ln 2, less
#   than 3(s + 2) units.  Each floor and each cut of the mantissa, which
#   stays at or above 2**(2B - 1), loses less than one unit: two per b.
# - So the sum's interval is at most slack + 12 units wide, 12 for the two
#   log2 bounds of the product, and thus narrower than 2**-_MARGIN_BITS
#   bits at any D: no ceiling enters the argument.
# - eps+'s log2 bounds at the same B are at most 14 units apart, and
#   sum(n_b) >= h+ (each cycle has a form) gives 2**B > 2**20 * 3 * h+.  So
#   h+ times that gap over log2 eps+ >= log2((3 + sqrt(5))/2) > 1.38 moves
#   the quotient by under 2**-20 as well.  The quotient's interval holds
#   exactly one integer unless the unit or the sum is wrong, which
#   `narrow_class_number` reports as a DefectError.
_MIN_BITS = 24
_MARGIN_BITS = 20


def _valid_disc(disc: int) -> int:
    if disc <= 0 or disc % 4 not in (0, 1):
        raise ValueError("discriminant must be positive and 0 or 1 mod 4")
    s = math.isqrt(disc)
    if s * s == disc:
        raise ValueError("discriminant must not be a square")
    return s


def _top_b(disc: int, s: int) -> int:
    """The largest b <= s with b = disc mod 2; the b of reduced forms are
    top, top - 2, ..., down to 1 or 2."""
    return s - ((s ^ disc) & 1)


def _prime_roots(disc: int, top: int, q: int) -> list[int]:
    """The roots mod the odd prime q of g(k) = (disc - (top - 2k)**2)/4.

    q divides g(k) exactly when b = top - 2k has b**2 = disc mod q, so a
    square root t of disc mod q gives k = (top -+ t)/2 mod q: one root when
    q divides disc, two when disc is a nonzero square mod q, none otherwise.
    `intkit.sqrt_mod` tells the last case apart by the same power that
    finds a root.
    """
    t = intkit.sqrt_mod(disc % q, q)
    if t is None:
        return []
    half = (q + 1) >> 1  # the inverse of 2 mod q
    k1, k2 = (top - t) * half % q, (top + t) * half % q
    return [k1] if k1 == k2 else [k1, k2]


def _tower(disc: int, a_max: int, top: int, q: int) -> list[tuple[int, list[int]]]:
    """(q**e, roots of g mod q**e) for e = 1, 2, ... while q**e <= a_max and
    roots are left.

    Every root mod q**e reduces to one mod q**(e-1), so testing
    r + i * q**(e-1) for i < q over the roots r one level down finds them
    all.  Started from the single root 0 mod 1, the same step gives the
    roots mod 2, and it needs no case for a q that divides disc.
    """
    c = (disc - top * top) >> 2  # g(k) = c + top*k - k*k
    qe, roots = 1, [0]
    tower = []
    if q > 2:
        qe, roots = q, _prime_roots(disc, top, q)
        tower.append((qe, roots))
    while roots and qe * q <= a_max:
        step, qe = qe, qe * q
        roots = [x for r in roots for x in range(r, qe, step)
                 if (c + (top - x) * x) % qe == 0]
        tower.append((qe, roots))
    return [(qe, roots) for qe, roots in tower if roots]


def _crt(a: int, roots: list[int], q: int, qroots: list[int]) -> list[int]:
    """The roots mod a*q that reduce to one of ``roots`` mod a and to one of
    ``qroots`` mod q, for coprime a and q."""
    inv = pow(a, -1, q)
    return [r + a * ((t - r) * inv % q) for r in roots for t in qroots]


def _window_roots(disc: int, top: int, take: Callable[[int, list[int]], None]) -> None:
    """Call take(a, ks) for each a in 1..a_max, a_max = isqrt(disc) // 2,
    that divides some m_b = (disc - b**2)/4 with b = top - 2k and
    0 <= k < a, where ks lists those k: the roots mod a of g(k) = m_b.
    Each consumer passes its own ``take``, so there is one walk, and no
    (a, ks) is kept beyond the call but the low ones a larger prime extends.

    The roots mod a are the CRT combinations of the roots mod its prime
    powers.  The a made of primes up to isqrt(a_max) come from a depth-first
    walk over products of their towers' powers.  Every other a is one of
    those times a single larger prime q, and is formed last, q by q, so the
    roots of each such q are found once and held only while it is used:
    q itself takes them as they are, and each low a > 1 up to a_max // q
    combines with them by the CRT.
    """
    a_max = math.isqrt(disc) >> 1
    primes = intkit.primes_up_to(a_max)
    small = bisect_right(primes, max(2, math.isqrt(a_max)))  # 2 takes a tower
    towers = [(q, _tower(disc, a_max, top, q)) for q in primes[:small]]
    low_max = a_max // primes[small] if small < len(primes) else 0
    low = []  # (a, roots) for the a > 1 that a larger prime may extend
    take(1, [0])
    stack = [(1, [0], 0)]
    while stack:
        a, roots, start = stack.pop()
        if 1 < a <= low_max:
            low.append((a, roots))
        for i in range(start, len(towers)):
            q, tower = towers[i]
            if a * q > a_max:
                break
            for qe, qroots in tower:
                aq = a * qe
                if aq > a_max:
                    break
                ks = _crt(a, roots, qe, qroots)
                stack.append((aq, ks, i + 1))
                take(aq, ks)
    low.sort()
    for q in primes[small:]:
        qroots = _prime_roots(disc, top, q)
        if not qroots:
            continue
        take(q, qroots)
        a_top = a_max // q
        for a, roots in low:
            if a > a_top:
                break
            inv = pow(a, -1, q)  # `_crt`, inlined: once per (low, q)
            take(a * q, [r + a * ((t - r) * inv % q) for r in roots for t in qroots])


def reduced_forms(disc: int) -> list[Form]:
    """All reduced forms of the given discriminant, sorted.

    For each admissible b the product -a*c of a reduced form is m_b, so
    (a, b, -m_b/a) and (-a, b, m_b/a) are the reduced forms of leading
    coefficient +-a; |sqrt(disc) - 2|a|| < b reads s - b < 2|a| <= s + b.
    The walk reaches the smaller a of each window pair a, c = m_b/a and
    reads off the forms of +-a and, when a < c, of +-c.

    >>> reduced_forms(8)
    [(-1, 2, 1), (1, 2, -1)]
    """
    s = _valid_disc(disc)
    top = _top_b(disc, s)
    forms: list[Form] = []

    def take(a: int, ks: list[int]) -> None:
        for k in ks:
            b = top - 2 * k
            c = ((disc - b * b) >> 2) // a
            if a <= c:
                forms.extend(((a, b, -c), (-a, b, c)))
            if a < c:
                forms.extend(((c, b, -a), (-c, b, a)))

    _window_roots(disc, top, take)
    forms.sort()
    return forms


def _divisor_counts(disc: int, top: int) -> list[int]:
    """n_b, the number of window divisors d of m_b = (disc - b**2)/4, at
    b = top - 2k for k = 0, 1, ...

    The window is closed under d -> m_b/d, and the smaller of a pair is below
    sqrt(m_b) < sqrt(disc)/2, so n_b = 2 * #{window d : d**2 < m_b} plus 1
    when m_b = d**2 for a window d.  Every such d has 2d <= s, where each
    root k < d lies in the window, so only a <= s // 2 are walked.  With
    t = isqrt(disc - 4a**2 - 1), a**2 < m_b reads b <= t, that is
    k >= k_min = ceil((top - t)/2); the one b with a**2 = m_b is t + 1, at
    k_min - 1, when (t + 1)**2 = disc - 4a**2.
    """
    counts = [0] * ((top + 1) >> 1)

    def tally(a: int, ks: list[int]) -> None:
        rest = disc - 4 * a * a  # m_b - a**2 = (rest - b**2)/4
        t = math.isqrt(rest - 1)
        k_min = (top - t + 1) >> 1
        k_square = k_min - 1 if (t + 1) * (t + 1) == rest else -1
        for k in ks:
            if k >= k_min:
                counts[k] += 2
            elif k == k_square:
                counts[k] += 1

    _window_roots(disc, top, tally)
    return counts


def _log2_bound(x: int, up: bool, bits: int) -> int:
    """Bound on log2(x) * 2**bits for an int x >= 1: a lower bound, or an
    upper bound when ``up`` is set.

    The integer part comes from the bit length, the fraction from the top
    bits + 1 bits of x, rounded the way of the bound, as binary digits by
    repeated squaring: y/2**bits is in [1, 2], and a square at 2 or above
    yields a 1 bit and is halved.  Rounding every square down keeps each
    step's value at or below the exact one, so the digits read a lower
    bound; rounding up keeps it at or above, and the digits plus one unit
    in the last place are an upper bound.  Each bound is within 6 units in
    the last place of the exact value: every rounding is at most 2**-bits
    relative, and the squarings' losses halve step by step.
    """
    n = x.bit_length() - 1
    shift = n - bits
    if shift > 0:
        y = x >> shift
        if up and y << shift != x:
            y += 1
    else:
        y = x << -shift
    two, digits = 2 << bits, 0
    for _ in range(bits):
        y *= y
        y = -(-y >> bits) if up else y >> bits
        digits <<= 1
        if y >= two:
            digits |= 1
            y = -(-y >> 1) if up else y >> 1
    return (n << bits) + digits + up


def _distance_bounds(disc: int, s: int) -> tuple[int, int, int]:
    """(lo, hi, B): bounds on the distance sum,
    sum log2((b + sqrt(disc))/(2|a|)) over the reduced forms, times 2**B,
    where B is the fixed point's width that the counts call for (see
    _MIN_BITS).

    The window s - b < 2d <= s + b is closed under d -> m_b/d, so the
    2 * n_b forms (+-d, b, -+m_b/d) at one b pair up, and the distances of
    a pair add up to log2((sqrt(disc) + b)/(sqrt(disc) - b)); the sum is
    n_b times that, summed over b, with n_b from `_divisor_counts`, which
    walks only a <= s // 2.  The lower bound is log2 of one product
    lo * 2**e, started at 2**(2B) with e = -2B.  With root = isqrt(disc * 4**B)
    and z = b * 2**B, the numerator (sqrt(disc) + b) * 2**B lies in
    [root + z, root + z + 1) and the denominator in [root - z, root - z + 1),
    so lo takes (root + z)**n // (root - z + 1)**n and is cut back to 2B
    bits whenever it grows past it; it never shrinks, as each factor is
    above 1.  The upper bound needs no second product: an upper bound on
    log2(lo * 2**e) plus the slack of _MIN_BITS' comment bounds the sum
    from above.
    """
    top = _top_b(disc, s)
    counts = _divisor_counts(disc, top)  # n_b at b = top - 2k
    slack = 3 * (s + 2) * sum(counts) + 2 * (len(counts) - counts.count(0))
    # the width, with 12 more units for the two log2 bounds of the product
    bits = max(_MIN_BITS, (slack + 12).bit_length() + _MARGIN_BITS)
    root = math.isqrt(disc << 2 * bits)
    lo = 1 << 2 * bits
    e = -2 * bits
    for k in range(len(counts) - 1, -1, -1):  # ascending b
        n = counts[k]
        if not n:
            continue
        z = (top - 2 * k) << bits
        lo = lo * (root + z)**n // (root - z + 1)**n
        extra = lo.bit_length() - 2 * bits
        if extra > 0:
            lo >>= extra
            e += extra
    return (_log2_bound(lo, False, bits) + (e << bits),
            _log2_bound(lo, True, bits) + (e << bits) + slack, bits)


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
    s_lo, s_hi, bits = _distance_bounds(disc, s)
    plus = eps if qi_norm(eps) == 1 else eps * eps
    num = (plus.u << bits) + math.isqrt(plus.v * plus.v * plus.field.d << 2 * bits)
    y = num // plus.den  # eps+ * 2**bits lies in [y, y + 1)
    r_lo = _log2_bound(y, False, bits) - (bits << bits)
    r_hi = _log2_bound(y + 1, True, bits) - (bits << bits)
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
