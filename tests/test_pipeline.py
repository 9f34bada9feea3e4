"""One context per family field, and the outputs and regressions around it.

The golden files under tests/data/ are scan tables and field reports
that must stay byte-identical; the first were captured before the verdict
logic moved behind `invariants.field_context`.
"""

import contextlib
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import slow_pell

from pellrat import classno, cli, invariants, padic, pellseq
from pellrat import quadfield as qf
from pellrat.errors import DefectError, IncompleteFactorization

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.entrypoint(list(argv))
    return code, capsys.readouterr().out


def count_calls(monkeypatch, *fns):
    """Count calls of each function through every binding in every pellrat module."""
    counts = {fn.__name__: 0 for fn in fns}
    modules = [mod for name, mod in sys.modules.items()
               if name == "pellrat" or name.startswith("pellrat.")]
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


@contextlib.contextmanager
def no_digit_limit():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield limit
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_one_record_computes_each_field_quantity_once(monkeypatch):
    counts = count_calls(monkeypatch, qf.fundamental_unit, padic.family_embedding,
                         padic.unit_congruence_order, padic.power_is_one_mod)
    rec = cli.compute_record(3, 2, 1, cli.PipelineOptions(), cli.FactorCache(None))
    assert rec.greenberg == invariants.MU_LAMBDA_ZERO
    assert counts["fundamental_unit"] == 1
    assert all(n <= 1 for n in counts.values()), counts


def test_compute_record_turns_an_unfactored_radicand_into_the_null_row():
    # N = 325 at (3, 2, 2); effort 0 leaves its factorization incomplete
    args = (3, 2, 2, cli.PipelineOptions(factor_effort=0), cli.FactorCache(None))
    rec = cli.compute_record(*args)
    assert rec == invariants.null_record(3, 2, 2, "factorization incomplete")
    assert rec.D is None and rec.notes == ("factorization incomplete",)
    with pytest.raises(IncompleteFactorization):
        cli.compute_record(*args, strict=True)


def test_field_context_holds_the_field_quantities(monkeypatch):
    fam = qf.construct_family(3, 2)
    precisions = []
    embedding = padic.family_embedding

    def recorded(fam, k=None, **kwargs):
        precisions.append(k)
        return embedding(fam, k, **kwargs)

    monkeypatch.setattr(padic, "family_embedding", recorded)
    ctx = invariants.field_context(fam)
    assert (ctx.eps.u, ctx.eps.v, ctx.eps.den) == (9, 1, 1)
    assert (ctx.unit_norm, ctx.t_is_fundamental, ctx.m_bound_ok) == (-1, True, True)
    assert (ctx.n2, ctx.class_number, ctx.h_missing) == (2, 4, None)
    assert precisions == [8]  # the working precision, under the default cap
    capped = invariants.field_context(fam, classno_ceiling=10)
    assert capped.class_number is None
    assert capped.h_missing == "class number ceiling"


def test_wrappers_compute_no_class_number(monkeypatch):
    # a ceiling of 0 refuses the class number before its distance sum, and
    # a known h is set on that context; n2_of goes the first way
    counts = count_calls(monkeypatch, classno._distance_bounds)
    fam = qf.construct_family(3, 2, 1)
    report = invariants.build_report(invariants.field_context(fam, classno_ceiling=0))
    assert report.p_rational == invariants.NON_P_RATIONAL
    ctx = invariants.field_context(fam, classno_ceiling=0, strict=True)
    report = invariants.build_report(replace(ctx, class_number=4, h_missing=None))
    assert (report.greenberg, report.an_prediction) == (invariants.MU_LAMBDA_ZERO, 3)
    assert invariants.n2_of(fam) == 2
    assert invariants.n1_certificate(fam, 4) == invariants.N1_CERTIFIED
    assert counts["_distance_bounds"] == 0
    assert invariants.field_context(fam).class_number == 4
    assert counts["_distance_bounds"] == 1


def test_defect_gate_fires_inside_the_bound_only(monkeypatch):
    def never_one(*args, **kwargs):
        return False
    monkeypatch.setattr(padic, "power_is_one_mod", never_one)
    with pytest.raises(DefectError):
        invariants.build_report(invariants.field_context(qf.construct_family(3, 2, 1)))
    report = invariants.build_report(invariants.field_context(qf.construct_family(3, 2, 2)))
    assert report.p_rational == invariants.INCONCLUSIVE


# (3, 2, 4) lies outside the coefficient bound, so no verdict gate fires
# there; eps**2 = 1 mod 9 holds and n2 = 2, so only the comparison of the
# two routes can catch one of them going wrong


def test_quotient_ring_route_is_checked_against_n2(monkeypatch):
    monkeypatch.setattr(padic, "power_is_one_mod", lambda *args: False)
    with pytest.raises(DefectError, match="is False but n2 = 2 at"):
        invariants.field_context(qf.construct_family(3, 2, 4))


def test_n2_is_checked_against_the_quotient_ring_route(monkeypatch):
    monkeypatch.setattr(padic, "unit_congruence_order", lambda *args: 1)
    with pytest.raises(DefectError, match="is True but n2 = 1 at"):
        invariants.field_context(qf.construct_family(3, 2, 4))


@pytest.mark.parametrize("p", [1, 2, 9, 15])
def test_every_layer_keeps_the_one_rule_on_p(p):
    # 9 and 15 pass a parity test; only the primality test turns them away
    calls = (lambda: qf.check_cell(p, 2, 1),
             lambda: invariants.coates_ledger(qf.QuadraticField(82), p),
             lambda: padic.hensel_sqrt(82, p, 4),
             lambda: pellseq.prime_power_search(p, 10))
    for call in calls:
        with pytest.raises(ValueError, match=f"got {p}$"):
            call()


@pytest.mark.parametrize("argv, golden", [
    (("scan", "--p", "3,5,7", "--r", "2..5", "--m", "one"), "scan_p357_r2-5_one.csv"),
    (("scan", "--p", "3,5,7", "--r", "2..5", "--m", "one", "--format", "json"),
     "scan_p357_r2-5_one.json"),
    (("scan", "--p", "3", "--r", "3", "--m", "bound"), "scan_p3_r3_bound.csv"),
    (("field", "--p", "3", "--r", "2"), "field_p3_r2.txt"),
    (("field", "--p", "1093", "--r", "2"), "field_p1093_r2.txt"),
])
def test_golden_output(capsys, argv, golden):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("p, r", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2),
                                  (7, 3), (11, 2), (13, 3)])
def test_m_bound_floor_matches_the_fraction(p, r):
    bound = qf.m_bound(p, r)
    top = qf.m_bound_floor(p, r)
    assert top == math.floor(bound)
    for m in (top - 1, top, top + 1):
        assert qf.m_bound_satisfied(p, r, m) == (Fraction(m) <= bound)


def test_m_bound_satisfied_is_fast_at_depth():
    t0 = time.perf_counter()
    assert qf.m_bound_satisfied(7, 8, 1)
    assert time.perf_counter() - t0 <= 1.5


def test_m_bound_satisfied_builds_no_power_of_p_at_depth():
    # p**(q - r) with q = 7**8 has 16 million bits; building it takes seconds
    t0 = time.perf_counter()
    assert qf.m_bound_satisfied(7, 9, 1)
    assert time.perf_counter() - t0 <= 0.1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_m_bound_satisfied_agrees_with_the_floor(p, r):
    top = qf.m_bound_floor(p, r)
    far = top << (p.bit_length() * p ** (r - 1))  # too long on bit lengths alone
    for m in [*range(1, 50), top - 1, top, top + 1, 2 * top + 2, far]:
        assert qf.m_bound_satisfied(p, r, m) == (m <= top), m


def test_gseq_pair_prints_past_the_digit_limit(capsys):
    with no_digit_limit() as limit:
        g, f = slow_pell(12000)
        want = f"G={g} F={f}\n"
    code, out = run(capsys, "gseq", "pair", "12000")
    assert code == 0
    assert out == want
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_truncated_cache_tail_is_dropped(capsys, tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("82 2^1 41^1\n730 2^1 5^1 7")  # a crash cut the last line short
    code, out = run(capsys, "scan", "--p", "3", "--r", "2..3", "--cache", str(path))
    assert code == 0
    assert out == run(capsys, "scan", "--p", "3", "--r", "2..3")[1]
    assert path.read_text() == "82 2^1 41^1\n730 2^1 5^1 73^1\n"
    assert cli.FactorCache(str(path)).get(730).factors == ((2, 1), (5, 1), (73, 1))


def test_truncated_cache_still_rejects_complete_bad_lines(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("12 2^2 5^1\n82 2")
    with pytest.raises(cli.CommandError, match="does not multiply out"):
        cli.FactorCache(str(path))
