import csv
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fib_unit_equivalence, gen_fib, inconclusive_reason, lemma_n1_congruence

from pellrat import classno, cli, invariants, padic
from pellrat import quadfield as qf
from pellrat.errors import DefectError, PrecisionExhausted


def fam(p, r, m=1):
    return qf.construct_family(p, r, m)


def test_epsilon_congruence_inside_the_bound():
    for p, r in [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4), (5, 3), (7, 3)]:
        f = fam(p, r)
        assert invariants.epsilon_congruence_check(f, qf.fundamental_unit(f.field))


def test_epsilon_congruence_can_fail_outside_the_bound():
    # (3, 2, 2): N = 325, D = 13, eps = (3 + sqrt(13))/2; eps^2 is not
    # 1 mod 9, and m = 2 is already past the bound 3/2
    f = fam(3, 2, 2)
    assert not qf.m_bound_satisfied(3, 2, 2)
    assert not invariants.epsilon_congruence_check(f, qf.fundamental_unit(f.field))


def test_n2_equals_r_on_the_one_parameter_family():
    for p in (3, 5, 7):
        for r in (2, 3, 4, 5):
            assert invariants.n2_of(fam(p, r)) == r


def test_n2_on_wider_m():
    # m = 4 sits outside the bound 3/2, so n2 = r is not guaranteed there;
    # the order must still resolve to something finite and positive
    f = fam(3, 2, 4)  # N = 1297, squarefree
    n2 = invariants.n2_of(f)
    assert n2 >= 1


def test_lemma_n1_congruence_holds_on_family():
    for p in (3, 5, 7, 11):
        for r in (2, 3):
            assert lemma_n1_congruence(fam(p, r))


def test_lemma_n1_congruence_requires_m_one():
    with pytest.raises(ValueError):
        lemma_n1_congruence(fam(3, 2, 2))


def test_n1_certificate_certified_case():
    f = fam(3, 2)
    assert invariants.n1_certificate(f, 4) == invariants.N1_CERTIFIED


def test_n1_certificate_unknown_when_p_divides_h():
    f = fam(3, 3)  # h(730) = 12 and 3 | 12
    assert invariants.n1_certificate(f, 12) == invariants.N1_UNKNOWN


def test_n1_certificate_validates():
    with pytest.raises(ValueError):
        invariants.n1_certificate(fam(3, 2, 2), 1)
    with pytest.raises(ValueError):
        invariants.n1_certificate(fam(3, 2), 0)


def test_gen_fib_values():
    assert [gen_fib(1, n) for n in range(7)] == [0, 1, 2, 5, 12, 29, 70]
    assert gen_fib(9, 3) == 325
    with pytest.raises(ValueError):
        gen_fib(2, -1)


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=2, max_value=40))
def test_gen_fib_recurrence(a, n):
    x0 = gen_fib(a, n - 2)
    x1 = gen_fib(a, n - 1)
    assert gen_fib(a, n) == 2 * a * x1 + x0


def test_fib_unit_equivalence_on_family_units():
    # p^2 divides the rational part of t, so both sides are true
    for p, r, m in [(3, 2, 1), (3, 3, 1), (5, 2, 1), (7, 2, 1), (3, 2, 2)]:
        f = fam(p, r, m)
        assert fib_unit_equivalence(f.t, p)


def test_fib_unit_equivalence_negative_cases():
    # norm -1 elements with p || rational part: both sides are false
    f10 = qf.QuadraticField(10)
    t = qf.element(f10, 3, 1)  # 3 + sqrt(10), norm -1
    assert fib_unit_equivalence(t, 3)
    f26 = qf.QuadraticField(26)
    t = qf.element(f26, 5, 1)
    assert fib_unit_equivalence(t, 5)


def test_fib_unit_equivalence_validates():
    f10 = qf.QuadraticField(10)
    with pytest.raises(ValueError):
        fib_unit_equivalence(qf.element(f10, 3, 1), 4)
    with pytest.raises(ValueError):
        fib_unit_equivalence(qf.element(f10, 3, 1), 5)
    with pytest.raises(ValueError):
        fib_unit_equivalence(qf.element(f10, 1, 1), 3)


def test_coates_ledger_family_case():
    f = fam(3, 2)
    ledger = invariants.coates_ledger(f.field, 3, h=4)
    assert ledger.values() == [1, -2, 2, 0, 0]
    assert ledger.torsion_lower_bound == 1


def test_coates_ledger_conservative_without_h():
    f = fam(3, 2)
    ledger = invariants.coates_ledger(f.field, 3)
    assert ledger.values() == [1, -2, 2, 0, 0]


def test_coates_ledger_h_contribution():
    f = fam(3, 3)  # h = 12 = 4 * 3
    ledger = invariants.coates_ledger(f.field, 3, h=12)
    assert ledger.values() == [1, -2, 2, 1, 0]
    assert ledger.torsion_lower_bound == 2


def test_coates_ledger_weak_regulator_case():
    # Q(sqrt(10)) at p = 3: the unit congruence fails, bound stays at 0
    field = qf.QuadraticField(10)
    ledger = invariants.coates_ledger(field, 3, h=2)
    assert ledger.values() == [1, -2, 1, 0, 0]
    assert ledger.torsion_lower_bound == 0


def test_coates_ledger_rejects_inert_prime():
    with pytest.raises(ValueError):
        invariants.coates_ledger(qf.QuadraticField(10), 7)  # (10/7) = -1


def p_rational(f):
    # the ledger's verdict with the class number refused (ceiling 0)
    return invariants.build_report(invariants.field_context(f, classno_ceiling=0)).p_rational


def greenberg(f, **kwargs):
    return invariants.build_report(invariants.field_context(f, strict=True, **kwargs))



def test_p_rationality_verdict_on_grid():
    for p, r, m in [(3, 2, 1), (3, 3, 2), (5, 2, 3), (7, 2, 10)]:
        assert p_rational(fam(p, r, m)) == invariants.NON_P_RATIONAL


def test_p_rationality_inconclusive_outside_bound():
    # same field as the weak-regulator ledger: (3, 2, 2) has eps = (3+sqrt(13))/2
    assert p_rational(fam(3, 2, 2)) == invariants.INCONCLUSIVE


def test_greenberg_verdict_anchor():
    res = greenberg(fam(3, 2))
    assert res.greenberg == invariants.MU_LAMBDA_ZERO
    assert res.an_prediction == 3
    assert inconclusive_reason(res) is None


def test_greenberg_verdict_grid():
    for p, r, pred in [(3, 4, 27), (3, 5, 81), (5, 2, 5), (5, 3, 25),
                       (7, 2, 7), (7, 3, 49)]:
        res = greenberg(fam(p, r))
        assert (res.greenberg, res.an_prediction) == (invariants.MU_LAMBDA_ZERO, pred)


def test_greenberg_inconclusive_when_p_divides_h():
    res = greenberg(fam(3, 3))
    assert res.greenberg == invariants.INCONCLUSIVE
    assert res.an_prediction is None
    assert inconclusive_reason(res) == "p divides class number"


def test_greenberg_wieferich_gate_fires_first():
    # 1093 is Wieferich and h lies past the ceiling: the Wieferich reason comes first
    res = greenberg(fam(1093, 2))
    assert res.greenberg == invariants.INCONCLUSIVE
    assert inconclusive_reason(res) == "Wieferich prime"


def test_greenberg_ceiling_is_inconclusive_not_wrong():
    res = greenberg(fam(7, 5), classno_ceiling=100)
    assert res.greenberg == invariants.INCONCLUSIVE
    assert inconclusive_reason(res) == "class number uncomputed"


def test_greenberg_injected_h():
    # verdict branches on the injected class number without computing one
    ctx = invariants.field_context(fam(3, 2), classno_ceiling=0, strict=True)
    res = invariants.build_report(replace(ctx, class_number=3, h_missing=None))
    assert res.greenberg == invariants.INCONCLUSIVE
    assert inconclusive_reason(res) == "p divides class number"


def scan_rows(capsys, *argv):
    """The rows of a `pellrat scan --m one` CSV table, as dicts."""
    assert cli.entrypoint(["scan", "--m", "one", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


def test_distinct_fields_scan_on_3(capsys):
    ds = [int(row["D"]) for row in scan_rows(capsys, "--p", "3", "--r", "2..6")]
    assert ds == [82, 730, 6562, 2362, 531442]
    assert len(set(ds)) == len(ds)
    assert 2 not in ds


def test_distinct_fields_scan_records_failures(capsys):
    rows = scan_rows(capsys, "--p", "3", "--r", "2..40", "--factor-effort", "4")
    failed = [row for row in rows if row["D"] == ""]
    assert len(rows) == 39 and failed
    assert all(row["notes"] == "factorization incomplete" for row in failed)


def test_row_defect_guards():
    row = invariants.build_report(invariants.field_context(fam(3, 2)))
    assert row.notes == ()
    assert row.n2 == 2
    assert row.an_prediction == 3
    with pytest.raises(DefectError, match="prediction must be"):
        replace(row, an_prediction=9)
    with pytest.raises(DefectError, match="certificate chain"):
        replace(row, h_val_p=1)
    with pytest.raises(DefectError, match="prediction present without a verdict"):
        replace(row, greenberg=invariants.INCONCLUSIVE)
    # a row without a field carries no verdict and passes every gate
    null = invariants.null_record(3, 2, 1, "factorization incomplete")
    assert (null.greenberg, null.an_prediction, null.D) == (invariants.INCONCLUSIVE, None, None)


def test_build_report_strict_precision():
    f = fam(3, 2)
    with pytest.raises(PrecisionExhausted):
        invariants.field_context(f, cap=1, strict=True)
    report = invariants.build_report(invariants.field_context(f, cap=1, strict=False))
    assert report.n2 is None
    assert "precision exhausted" in report.notes


def test_build_report_ceiling_note():
    f = fam(3, 2)
    report = invariants.build_report(invariants.field_context(f, classno_ceiling=10))
    assert report.class_number is None
    assert report.h_val_p is None
    assert "class number ceiling" in report.notes
    # the verdict never leans on the uncomputed value
    assert report.p_rational == invariants.NON_P_RATIONAL
    assert report.greenberg == invariants.INCONCLUSIVE


class _Refused:
    """Stands in for a module that build_report must not reach."""

    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        raise AssertionError(f"build_report reached {self.name}.{attr}")


def test_build_report_reads_only_the_context(monkeypatch):
    ctx = invariants.field_context(fam(3, 2))
    expected = invariants.build_report(ctx)

    def refuse(*args, **kwargs):
        raise AssertionError("build_report computed a field quantity")

    patched = []
    for name, value in list(vars(invariants).items()):
        if value is padic or value is classno:
            monkeypatch.setattr(invariants, name, _Refused(name))
        elif getattr(value, "__module__", None) == qf.__name__:
            monkeypatch.setattr(invariants, name, refuse)
        else:
            continue
        patched.append(name)
    assert {"padic", "classno", "fundamental_unit", "element", "qi_norm"} <= set(patched)
    assert invariants.build_report(ctx) == expected


def test_build_report_gates_on_the_context():
    # (3, 2): h = 4, n2 = 2, inside the bound; each gate is driven by one field
    ctx = invariants.field_context(fam(3, 2))
    assert ctx.unit_congruence and ctx.gen_order == 1 and ctx.m_bound_ok
    with pytest.raises(DefectError):
        invariants.build_report(replace(ctx, unit_congruence=False))
    report = invariants.build_report(replace(ctx, unit_congruence=False, m_bound_ok=False))
    assert report.p_rational == invariants.INCONCLUSIVE

    for gen_order, n1 in [(2, invariants.N1_REFUTED), (None, invariants.N1_UNKNOWN)]:
        report = invariants.build_report(replace(ctx, gen_order=gen_order))
        assert (report.n1_is_one, report.greenberg) == (n1, invariants.INCONCLUSIVE)
        assert report.an_prediction is None
        assert report.notes == (f"greenberg inconclusive: n1 certificate {n1}",)

    report = invariants.build_report(replace(ctx, class_number=12))
    assert (report.h_val_p, inconclusive_reason(report)) == (1, "p divides class number")
    assert report.greenberg == invariants.INCONCLUSIVE


def test_generator_order_resolves_wherever_n2_does():
    # b*s = 1 makes the generator 2 mod p**min(k, 2r), so its order is
    # v_p(2**(p-1) - 1): 1, or 2 at the Wieferich primes.  n2 = r >= 2
    # resolved means k >= r + 1 >= 3, where that order is already visible
    cells = [(p, r) for p in (3, 5, 7, 11, 13) for r in range(2, 7)]
    cells += [(1093, 2), (3511, 2)]
    resolved = 0
    for p, r in cells:
        f = fam(p, r)
        for cap in range(1, 16):
            ctx = invariants.field_context(f, cap=cap, classno_ceiling=0)
            if ctx.n2 is not None:
                assert ctx.gen_order is not None, (p, r, cap)
                resolved += 1
    assert resolved == 301
