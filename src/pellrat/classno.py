"""Class numbers of real quadratic fields by cycles of reduced forms.

A form is a plain ``(a, b, c)`` tuple of ints with positive nonsquare
discriminant b**2 - 4ac.  It is reduced when
|sqrt(disc) - 2|a|| < b < sqrt(disc); all comparisons run on integers
against isqrt(disc), never on floats.  The reduction step rho permutes the
reduced forms, and the narrow class number is the number of rho-cycles.
The wide class number follows from the norm of the fundamental unit.
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


def reduced_forms(disc: int) -> list[Form]:
    """All reduced forms of the given discriminant, sorted.

    For each admissible b the product -a*c is fixed, so the forms come from
    divisors of (disc - b**2)/4 inside the reduction window.  As sqrt(disc)
    is irrational, |sqrt(disc) - 2|a|| < b reads s - b < 2|a| <= s + b with
    s = isqrt(disc).
    """
    s = _valid_disc(disc)
    forms: list[Form] = []
    b = 2 - (disc % 2)  # smallest positive b with b**2 = disc mod 4
    while b <= s:
        m = (disc - b * b) // 4
        if m == 1:
            divisors = [1]
        else:
            fct = intkit.factor(m)
            if not fct.complete:
                raise DiscriminantTooLarge(
                    f"could not factor {m} while enumerating forms of {disc}")
            divisors = intkit.divisors_of(fct)
        for dv in divisors:
            if s - b < 2 * dv <= s + b:
                forms.append((dv, b, -(m // dv)))
                forms.append((-dv, b, m // dv))
        b += 2
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
