"""Verdict layer: unit congruences, torsion ledger, and the table row.

The central computable fact about a family field is whether the fundamental
unit eps satisfies eps**(p-1) = 1 mod p**2.  Within the exact coefficient
bound this is guaranteed, so computing False there raises DefectError
instead of producing data.  The congruence feeds a valuation ledger for the
p-part of the torsion group; a positive lower bound certifies that the
field is not p-rational.  On top of that sit the two residue orders n1 and
n2 that drive the mu = lambda = 0 verdict and its |A_n| prediction.

`field_context` computes a field's quantities once; `build_report` reads
them and returns the field's `ScanRecord`, the row every output format
renders.
"""

from __future__ import annotations

from typing import NamedTuple

from . import classno, intkit, padic
from .errors import DefectError, DiscriminantTooLarge, PrecisionExhausted
from .quadfield import (FamilyField, QuadInt, QuadraticField, element,
                        fundamental_unit, m_bound_satisfied, qi_norm)

N1_CERTIFIED = "certified"
N1_REFUTED = "refuted"
N1_UNKNOWN = "unknown"

NON_P_RATIONAL = "non-p-rational"
INCONCLUSIVE = "inconclusive"
MU_LAMBDA_ZERO = "mu-lambda-zero"


def epsilon_congruence_check(fam: FamilyField, eps: QuadInt) -> bool:
    """eps**(p-1) = 1 mod p**2 in the ring of integers (quotient-ring route),
    for the fundamental unit eps of the family field.

    Within the coefficient bound the congruence is a theorem, so a False
    result there signals an implementation defect and raises.
    """
    ok = padic.power_is_one_mod(eps, fam.p - 1, fam.p**2)
    if not ok and m_bound_satisfied(fam.p, fam.r, fam.m):
        raise DefectError(
            f"unit congruence failed inside the bound at (p={fam.p}, r={fam.r}, m={fam.m})")
    return ok


def n2_of(fam: FamilyField) -> int:
    """Residue order of the fundamental unit: v(eps**(p-1) - 1) at the
    family prime.  For m = 1 and d != 2 this must equal r."""
    # a ceiling of 0 refuses the class number before any work on it
    return field_context(fam, classno_ceiling=0, strict=True).n2


def n1_certificate(fam: FamilyField, h: int) -> str:
    """Tri-state certificate that the generator residue order n1 equals 1.

    certified: p does not divide h, the unit congruence holds, and
    (b*sqrt(d) + 1)**(p-1) is not 1 mod the prime squared; the proof route
    then forces n1 = 1.  refuted: same setting but the generator power is
    1 mod the prime squared (exactly the Wieferich situation for 2), so
    n1 >= 2.  Anything else is unknown.
    """
    if fam.m != 1:
        raise ValueError("the certificate route needs m = 1")
    if h < 1:
        raise ValueError("class number must be >= 1")
    if h % fam.p == 0:
        return N1_UNKNOWN
    return _n1_route(field_context(fam, classno_ceiling=0, strict=True))


def _n1_route(ctx: FieldContext) -> str:
    # the proof route of n1_certificate once p does not divide h
    if ctx.n2 < 2 or ctx.gen_order is None:
        return N1_UNKNOWN
    return N1_CERTIFIED if ctx.gen_order == 1 else N1_REFUTED


# ---------------------------------------------------------------------------
# torsion ledger


class LedgerEntry(NamedTuple):
    label: str
    value: int


class CoatesLedger(NamedTuple):
    """Valuation bookkeeping for the p-part of the torsion group.

    Entries are certified lower bounds on individual valuations; their sum
    is a lower bound for v_p of the torsion order.
    """

    p: int
    entries: tuple[LedgerEntry, ...]

    @property
    def torsion_lower_bound(self) -> int:
        return sum(e.value for e in self.entries)

    def values(self) -> list[int]:
        return [e.value for e in self.entries]


def coates_ledger(field: QuadraticField, p: int, h: int | None = None,
                  eps: QuadInt | None = None) -> CoatesLedger:
    """Ledger for a real quadratic field in which p splits.

    Contributions: roots of unity (+1), the two split Euler factors (-2),
    the p-adic regulator (+2 when eps**(p-1) = 1 mod p**2, else +1), the
    class number (v_p(h), or 0 when h is unknown), and the discriminant
    (0, certified by p not dividing it).
    """
    intkit.check_odd_prime(p)
    if intkit.jacobi(field.d, p) != 1:
        raise ValueError(f"{p} does not split in Q(sqrt({field.d}))")
    if field.disc % p == 0:
        raise DefectError("split prime divides the discriminant")
    if eps is None:
        eps = fundamental_unit(field)
    h_val = intkit.valuation(h, p) if h else None
    return _ledger(p, h_val, padic.power_is_one_mod(eps, p - 1, p * p))


def _ledger(p: int, h_val: int | None, unit_congruence: bool) -> CoatesLedger:
    # h_val is v_p(h), or None when h is unknown
    regulator = 2 if unit_congruence else 1
    entries = (
        LedgerEntry("roots of unity", 1),
        LedgerEntry("split Euler factors", -2),
        LedgerEntry("p-adic regulator lower bound", regulator),
        LedgerEntry("class number (unknown, conservative)", 0) if h_val is None
        else LedgerEntry("class number", h_val),
        LedgerEntry("discriminant", 0),
    )
    return CoatesLedger(p=p, entries=entries)


# ---------------------------------------------------------------------------
# one family field: its context and its row


class FieldContext(NamedTuple):
    """The per-field quantities both verdicts read, each computed once.

    ``unit_congruence`` says whether eps**(p-1) = 1 mod p**2 in O_K.
    ``n2`` is eps's congruence order along the capped family embedding,
    and ``gen_order`` that of the generator b*sqrt(d) + 1 (m = 1 only);
    each is None when the precision cap ran out.  ``h_missing`` says why h
    is None.
    """

    family: FamilyField
    eps: QuadInt
    unit_norm: int
    t_is_fundamental: bool
    m_bound_ok: bool
    unit_congruence: bool
    n2: int | None
    gen_order: int | None
    class_number: int | None
    h_missing: str | None


def field_context(fam: FamilyField,
                  classno_ceiling: int = classno.DEFAULT_DISC_CEILING,
                  cap: int = padic.DEFAULT_PRECISION_CAP,
                  strict: bool = False) -> FieldContext:
    """Compute the context of one family field.

    The class number is computed up to ``classno_ceiling``; a ceiling of 0
    skips it.  With ``strict`` set, precision exhaustion propagates instead
    of leaving ``n2`` or ``gen_order`` empty.  A resolved ``n2`` is checked
    against ``unit_congruence``, and DefectError is raised if they disagree.
    A caller that knows the class number sets it with
    ``ctx._replace(class_number=h, h_missing=None)``.
    """
    eps = fundamental_unit(fam.field)
    # the defect gate inside the bound lives in the check itself
    unit_congruence = epsilon_congruence_check(fam, eps)
    # start at the usual working precision, but never above the cap: the
    # cap promises no computation at higher precision, period
    emb = padic.family_embedding(fam, k=min(max(8, 2 * fam.r + 2), cap))

    def order(order_fn, x: QuadInt) -> int | None:
        try:
            return order_fn(x, emb, cap)
        except PrecisionExhausted:
            if strict:
                raise
            return None

    n2 = order(padic.unit_congruence_order, eps)
    # p splits unramified and conj(eps) = +-1/eps with p - 1 even, so
    # eps**(p-1) - 1 has one valuation at both primes above p: the
    # congruence mod p**2 holds exactly when n2 >= 2
    if n2 is not None and (n2 >= 2) != unit_congruence:
        raise DefectError(
            f"unit congruence mod p^2 is {unit_congruence} but n2 = {n2} "
            f"at (p={fam.p}, r={fam.r}, m={fam.m})")
    if fam.m == 1 and fam.d != 2 and n2 not in (None, fam.r):
        raise DefectError(f"n2 = {n2} != r = {fam.r} at (p={fam.p}, r={fam.r}, m=1)")
    gen = element(fam.field, 1, fam.b)  # b*sqrt(d) + 1
    gen_order = order(padic.congruence_order, gen) if fam.m == 1 else None
    h, h_missing = None, None
    try:
        h = classno.class_number(fam.field, classno_ceiling, eps=eps)
    except DiscriminantTooLarge:
        h_missing = "class number ceiling"
    # at m = 1, b = 1 the prime P above p with P**(2r) = (sqrt(N) - 1) has
    # class order exactly 2r, and h = h+ as N(eps) = -1 (ROADMAP item 13)
    if fam.m == 1 and fam.b == 1 and h is not None and h % (2 * fam.r):
        raise DefectError(f"class number {h} is not a multiple of 2r = {2 * fam.r} "
                          f"at (p={fam.p}, r={fam.r}, m=1)")
    return FieldContext(
        family=fam, eps=eps, unit_norm=qi_norm(eps), t_is_fundamental=fam.t == eps,
        m_bound_ok=m_bound_satisfied(fam.p, fam.r, fam.m),
        unit_congruence=unit_congruence, n2=n2, gen_order=gen_order,
        class_number=h, h_missing=h_missing)


class _Row(NamedTuple):
    # the columns of a table row, in output order
    p: int
    r: int
    m: int
    N: int
    b: int | None
    D: int | None
    disc: int | None
    unit: tuple[int, int, int] | None  # (u, v, den)
    unit_norm: int | None
    t_is_fundamental: bool | None
    splits: bool | None
    n2: int | None
    n1_is_one: str
    class_number: int | None
    h_val_p: int | None
    wieferich: bool
    m_bound_ok: bool
    p_rational: str
    greenberg: str
    an_prediction: int | None
    notes: tuple[str, ...]


class ScanRecord(_Row):
    """One table row, built from keywords only; the defaults are the
    values of a row without a field.

    A mu-lambda-zero row must carry the certificate chain (n1 certified,
    p not dividing h) and the prediction p**(n2 - 1), and any other row no
    prediction; construction raises DefectError otherwise, and so does
    ``_replace``, which builds its row through the same checks.
    """

    __slots__ = ()

    def __new__(cls, *, p, r, m, N, b=None, D=None, disc=None, unit=None,
                unit_norm=None, t_is_fundamental=None, splits=None, n2=None,
                n1_is_one=N1_UNKNOWN, class_number=None, h_val_p=None, wieferich,
                m_bound_ok, p_rational=INCONCLUSIVE, greenberg=INCONCLUSIVE,
                an_prediction=None, notes):
        if greenberg == MU_LAMBDA_ZERO:
            if n1_is_one != N1_CERTIFIED or h_val_p != 0:
                raise DefectError("mu-lambda-zero without the certificate chain")
            if n2 is None or an_prediction != p ** (n2 - 1):
                raise DefectError("prediction must be p**(n2 - 1)")
        elif an_prediction is not None:
            raise DefectError("prediction present without a verdict")
        return super().__new__(cls, p, r, m, N, b, D, disc, unit, unit_norm,
                               t_is_fundamental, splits, n2, n1_is_one, class_number,
                               h_val_p, wieferich, m_bound_ok, p_rational, greenberg,
                               an_prediction, notes)

    def _replace(self, **changes) -> ScanRecord:
        return type(self)(**{**self._asdict(), **changes})

    def __getnewargs_ex__(self):
        # pickle and copy rebuild the row by keyword, through the checks
        return (), self._asdict()


def null_record(p: int, r: int, m: int) -> ScanRecord:
    """The row of a cell whose radicand could not be factored within budget."""
    return ScanRecord(p=p, r=r, m=m, N=m * m * p ** (2 * r) + 1,
                      wieferich=intkit.is_wieferich(p),
                      m_bound_ok=m_bound_satisfied(p, r, m),
                      notes=("factorization incomplete",))


def build_report(ctx: FieldContext) -> ScanRecord:
    """The table row of one family field, with notes explaining every
    missing value and every inconclusive Greenberg verdict.

    The one place that decides the certificate chain, the verdict gate
    inside the coefficient bound and both verdicts.  It computes nothing
    of the field: every quantity it weighs is read from the context.
    """
    fam, p, h, n2 = ctx.family, ctx.family.p, ctx.class_number, ctx.n2
    notes = ["precision exhausted"] if n2 is None else []
    if ctx.h_missing is not None:
        notes.append(ctx.h_missing)
    wief = intkit.is_wieferich(p)
    h_val = intkit.valuation(h, p) if h is not None else None

    ledger = _ledger(p, h_val, ctx.unit_congruence)
    p_rational = NON_P_RATIONAL if ledger.torsion_lower_bound >= 1 else INCONCLUSIVE
    if p_rational != NON_P_RATIONAL and ctx.m_bound_ok:
        raise DefectError(
            f"verdict inconclusive inside the bound at (p={p}, r={fam.r}, m={fam.m})")

    n1 = N1_UNKNOWN
    if fam.m != 1:
        reason = "certificate route needs m = 1"
    elif wief:
        reason = "Wieferich prime"
    elif h is None:
        reason = "class number uncomputed"
    elif h % p == 0:
        reason = "p divides class number"
    elif n2 is None:
        reason = "precision exhausted"
    else:
        n1 = _n1_route(ctx)
        reason = None if n1 == N1_CERTIFIED else f"n1 certificate {n1}"
    if reason is None:
        greenberg, prediction = MU_LAMBDA_ZERO, p ** (n2 - 1)
    else:
        greenberg, prediction = INCONCLUSIVE, None
        notes.append(f"greenberg inconclusive: {reason}")

    eps = ctx.eps
    return ScanRecord(
        p=p, r=fam.r, m=fam.m, N=fam.n, b=fam.b, D=fam.d, disc=fam.field.disc,
        unit=(eps.u, eps.v, eps.den), unit_norm=ctx.unit_norm,
        t_is_fundamental=ctx.t_is_fundamental,
        splits=True,  # construct_family raised DefectError unless p splits
        n2=n2, n1_is_one=n1, class_number=h, h_val_p=h_val, wieferich=wief,
        m_bound_ok=ctx.m_bound_ok, p_rational=p_rational, greenberg=greenberg,
        an_prediction=prediction, notes=tuple(notes))
