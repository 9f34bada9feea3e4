"""Class numbers of real quadratic fields by cycles of reduced forms.

A form (a, b, c) of positive nonsquare discriminant b**2 - 4ac is reduced
when |sqrt(disc) - 2|a|| < b < sqrt(disc); all comparisons run on integers
against isqrt(disc), never on floats.  The reduction step rho permutes the
reduced forms, and the narrow class number is the number of rho-cycles.
The wide class number follows from the norm of the fundamental unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import intkit
from .errors import DefectError, DiscriminantTooLarge
from .quadfield import QuadInt, QuadraticField, qi_norm, unit_norm_sign

DEFAULT_DISC_CEILING = 10**10


def _valid_disc(disc: int) -> int:
    if disc <= 0 or disc % 4 not in (0, 1):
        raise ValueError("discriminant must be positive and 0 or 1 mod 4")
    s = math.isqrt(disc)
    if s * s == disc:
        raise ValueError("discriminant must not be a square")
    return s


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def is_reduced(f: QuadForm) -> bool:
    """Exact test of |sqrt(disc) - 2|a|| < b < sqrt(disc)."""
    disc = f.disc
    s = _valid_disc(disc)
    if not 0 < f.b <= s:
        return False
    lo = 2 * abs(f.a) - f.b  # need lo < sqrt(disc)
    hi = 2 * abs(f.a) + f.b  # need hi > sqrt(disc)
    if lo > 0 and lo * lo >= disc:
        return False
    return hi * hi > disc


def rho_reduce(f: QuadForm) -> QuadForm:
    """One reduction step: (a, b, c) -> (c, b', c').

    b' is the unique residue of -b mod 2|c| inside the window
    (sqrt(disc) - 2|c|, sqrt(disc)); on reduced forms rho steps along the
    form's cycle.
    """
    disc = f.disc
    s = _valid_disc(disc)
    two_c = 2 * abs(f.c)
    b_next = s - (s + f.b) % two_c
    c_next = (b_next * b_next - disc) // (4 * f.c)
    return QuadForm(f.c, b_next, c_next)


def reduced_forms(disc: int, effort: int = intkit.DEFAULT_FACTOR_EFFORT) -> list[QuadForm]:
    """All reduced forms of the given discriminant, sorted.

    For each admissible b the product -a*c is fixed, so the forms come from
    divisors of (disc - b**2)/4 inside the reduction window.
    """
    s = _valid_disc(disc)
    forms: list[QuadForm] = []
    b = 2 - (disc % 2)  # smallest positive b with b**2 = disc mod 4
    while b <= s:
        m = (disc - b * b) // 4
        if m == 1:
            divisors = [1]
        else:
            fct = intkit.factor(m, effort)
            if not fct.complete:
                raise DiscriminantTooLarge(
                    f"could not factor {m} while enumerating forms of {disc}")
            divisors = intkit.divisors_of(fct)
        for dv in divisors:
            lo = 2 * dv - b
            if lo > 0 and lo * lo >= disc:
                continue
            if (2 * dv + b) ** 2 <= disc:
                continue
            forms.append(QuadForm(dv, b, -(m // dv)))
            forms.append(QuadForm(-dv, b, m // dv))
        b += 2
    forms.sort()
    return forms


def narrow_class_number(disc: int, ceiling: int = DEFAULT_DISC_CEILING,
                        effort: int = intkit.DEFAULT_FACTOR_EFFORT) -> int:
    """Number of rho-cycles of reduced forms."""
    _valid_disc(disc)
    if disc > ceiling:
        raise DiscriminantTooLarge(f"disc {disc} above ceiling {ceiling}")
    forms = reduced_forms(disc, effort)
    universe = set(forms)
    visited: set[QuadForm] = set()
    cycles = 0
    for f in forms:
        if f in visited:
            continue
        cycles += 1
        g = f
        while True:
            visited.add(g)
            g = rho_reduce(g)
            if g not in universe:
                raise DefectError(f"rho left the reduced set at {g}")
            if g == f:
                break
    if visited != universe:
        raise DefectError("rho walk missed reduced forms")
    return cycles


def class_number(field: QuadraticField, ceiling: int = DEFAULT_DISC_CEILING,
                 effort: int = intkit.DEFAULT_FACTOR_EFFORT,
                 eps: QuadInt | None = None) -> int:
    """Wide class number h.

    h equals the narrow class number when the fundamental unit has norm -1
    and half of it otherwise.  A caller holding the fundamental unit
    passes it as ``eps``.
    """
    h_plus = narrow_class_number(field.disc, ceiling, effort)
    if (unit_norm_sign(field) if eps is None else qi_norm(eps)) == -1:
        return h_plus
    if h_plus % 2:
        raise DefectError("narrow class number must be even for norm +1")
    return h_plus // 2
