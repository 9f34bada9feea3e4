"""Class numbers of real quadratic fields by cycles of reduced forms.

A form is a plain ``(a, b, c)`` tuple of ints with positive nonsquare
discriminant b**2 - 4ac.  It is reduced when
|sqrt(disc) - 2|a|| < b < sqrt(disc); all comparisons run on integers
against isqrt(disc), never on floats.  The reduction step rho permutes the
reduced forms, and the narrow class number is the number of rho-cycles.
The wide class number follows from the norm of the fundamental unit.

The reduced forms of one discriminant come from the divisors of
(disc - b**2)/4 for every admissible b, and one sieve over b factors all of
those numbers completely, without a call to `intkit.factor`.
"""

from __future__ import annotations

import math

from . import intkit
from .errors import DefectError, DiscriminantTooLarge
from .quadfield import QuadInt, QuadraticField, qi_norm, unit_norm_sign

DEFAULT_DISC_CEILING = 10**10

Form = tuple[int, int, int]


def _valid_disc(disc: int) -> int:
    if disc <= 0 or disc % 4 not in (0, 1):
        raise ValueError("discriminant must be positive and 0 or 1 mod 4")
    s = math.isqrt(disc)
    if s * s == disc:
        raise ValueError("discriminant must not be a square")
    return s


def rho_reduce(f: Form) -> Form:
    """One reduction step: (a, b, c) -> (c, b', c').

    b' is the unique residue of -b mod 2|c| inside the window
    (sqrt(disc) - 2|c|, sqrt(disc)); on reduced forms rho steps along the
    form's cycle.
    """
    a, b, c = f
    disc = b * b - 4 * a * c
    s = _valid_disc(disc)
    b_next = s - (s + b) % (2 * abs(c))
    return c, b_next, (b_next * b_next - disc) // (4 * c)


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


def reduced_forms(disc: int) -> list[Form]:
    """All reduced forms of the given discriminant, sorted.

    For each admissible b the product -a*c is fixed, so the forms come from
    divisors of m_b = (disc - b**2)/4 inside the reduction window.  As
    sqrt(disc) is irrational, |sqrt(disc) - 2|a|| < b reads
    s - b < 2|a| <= s + b with s = isqrt(disc).

    Every m_b is factored by one sieve over b, a block of b values at a
    time: an odd prime q divides m_b exactly when b**2 = disc mod q, so q is
    divided out along the progressions of b from the (at most two) roots.
    Sieving every prime up to sqrt(m_b) for the smallest b leaves a
    cofactor of 1 or a prime, so every factorization is complete.
    """
    s = _valid_disc(disc)
    b0 = 2 - (disc % 2)  # smallest positive b with b**2 = disc mod 4
    count = (s - b0) // 2 + 1
    pairs = _progressions(disc, b0, math.isqrt((disc - b0 * b0) // 4))
    forms: list[Form] = []
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
            if cof > 1:
                fct.append((cof, 1))
            for dv in intkit.expand_divisors(fct):
                if s - b < 2 * dv <= s + b:
                    forms.append((dv, b, -(m // dv)))
                    forms.append((-dv, b, m // dv))
    forms.sort()
    return forms


def narrow_class_number(disc: int, ceiling: int = DEFAULT_DISC_CEILING) -> int:
    """Number of rho-cycles of reduced forms.

    Each cycle starts at a form popped from the pending set, and each rho
    step removes the form it reaches until the walk is back at the start.
    A step to a form that is neither pending nor the start left the reduced
    set or ran into another cycle: rho is a permutation, so that is a bug.
    """
    _valid_disc(disc)
    if disc > ceiling:
        raise DiscriminantTooLarge(f"disc {disc} above ceiling {ceiling}")
    pending = set(reduced_forms(disc))
    cycles = 0
    while pending:
        start = pending.pop()
        cycles += 1
        g = rho_reduce(start)
        while g != start:
            try:
                pending.remove(g)
            except KeyError:
                raise DefectError(f"rho stepped from the cycle of {start} "
                                  f"to {g}, which is not pending") from None
            g = rho_reduce(g)
    return cycles


def class_number(field: QuadraticField, ceiling: int = DEFAULT_DISC_CEILING,
                 eps: QuadInt | None = None) -> int:
    """Wide class number h.

    h equals the narrow class number when the fundamental unit has norm -1
    and half of it otherwise.  A caller holding the fundamental unit
    passes it as ``eps``.
    """
    h_plus = narrow_class_number(field.disc, ceiling)
    if (unit_norm_sign(field) if eps is None else qi_norm(eps)) == -1:
        return h_plus
    if h_plus % 2:
        raise DefectError("narrow class number must be even for norm +1")
    return h_plus // 2
