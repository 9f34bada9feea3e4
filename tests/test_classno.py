import math
import time
import tracemalloc
from decimal import Decimal, localcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import (_is_reduced, by_b_reduced_forms, slow_class_number,
                     slow_minus_one_norm, slow_narrow_class_number,
                     slow_reduced_forms, squarefree_split,
                     walk_narrow_class_number)

from pellrat import classno, intkit
from pellrat import quadfield as qf
from pellrat.errors import DefectError, DiscriminantTooLarge

SQUAREFREE = [d for d in range(2, 201) if squarefree_split(d)[0] == 1]
DISCS = sorted({qf.QuadraticField(d).disc for d in SQUAREFREE})
# field discriminants of the m = 1 cells (3, 2..8), (5, 2..5) and (7, 2..5)
CELL_DISCS = [328, 2920, 9448, 26248, 2125768, 19131880, 172186888,
              2504, 62504, 1562504, 39062504, 9608, 18824, 23059208, 45196040]


def test_operations_reject_bad_discriminants():
    assert (1, 18, -1) in classno.reduced_forms(328)  # 18**2 + 4 = 328
    with pytest.raises(ValueError):
        oracles.rho_reduce((1, 0, 1))  # disc -4
    with pytest.raises(ValueError):
        oracles.rho_reduce((0, 3, 1))  # disc 9, a square
    with pytest.raises(ValueError):
        classno.reduced_forms(7)  # 3 mod 4


@given(st.sampled_from(DISCS))
def test_reduced_forms_match_oracle_enumeration(disc):
    forms = classno.reduced_forms(disc)
    assert forms == by_b_reduced_forms(disc) == sorted(slow_reduced_forms(disc))


@pytest.mark.parametrize("disc", CELL_DISCS)
def test_sieve_matches_the_by_b_enumeration_on_cell_discs(disc):
    assert classno.reduced_forms(disc) == by_b_reduced_forms(disc)


def test_window_divisors_are_closed_under_the_cofactor():
    # the distance sum pairs (a, b, -m/a) with (-m/a, b, a) and so needs
    # only the number of window divisors at each b, and `reduced_forms`
    # reads each pair off its smaller member; the forms come from the by-b
    # oracle, as the production walk already rests on this closure
    for disc in DISCS + CELL_DISCS:
        by_b = {}
        for a, b, _ in by_b_reduced_forms(disc):
            if a > 0:
                by_b.setdefault(b, []).append(a)
        for b, ds in by_b.items():
            m = (disc - b * b) // 4
            assert sorted(m // d for d in ds) == sorted(ds), (disc, b)


VALID_DISCS = [d for d in range(5, 3000)
               if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d]


def test_enumeration_by_a_matches_the_by_b_enumeration_below_3000():
    # every discriminant, fundamental or not, so that q | disc, q**2 | disc
    # and 8 | disc reach the lifts to prime powers, the 2-adic ones included
    for disc in VALID_DISCS:
        assert classno.reduced_forms(disc) == by_b_reduced_forms(disc), disc


def test_half_walk_counts_match_the_full_enumeration():
    # a pair d, m_b/d of window divisors counts 2 at its smaller member, and
    # a window d with d**2 = m_b counts 1; n_b is odd exactly then
    weight_one = 0
    for disc in VALID_DISCS + CELL_DISCS:
        s = classno._valid_disc(disc)
        counts = classno._divisor_counts(disc, classno._top_b(disc, s))
        assert counts == oracles.full_range_counts(disc), disc
        weight_one += sum(n % 2 for n in counts)
    assert weight_one > 0


def test_window_roots_match_a_brute_force_search_below_3000():
    # every a <= isqrt(disc)//2 with a root of g(k) = (disc - (top - 2k)**2)/4
    # mod a comes once, with all its roots: the depth-first walk, a = 1
    # times a large prime and the CRT for the larger lows alike
    for disc in VALID_DISCS:
        s = classno._valid_disc(disc)
        top = classno._top_b(disc, s)
        seen = {}

        def take(a, ks):
            assert a not in seen, (disc, a)
            seen[a] = sorted(ks)

        classno._window_roots(disc, top, take)
        brute = {}
        for a in range(1, s // 2 + 1):
            ks = [k for k in range(a) if (disc - (top - 2 * k)**2) // 4 % a == 0]
            if ks:
                brute[a] = ks
        assert seen == brute, disc


def test_distance_bounds_hold_the_decimal_sum():
    # (lo, hi) against an independent 50-digit sum over the forms' by-b
    # counts; the slack is far below one unit and far above the sum's error
    slack = Decimal(10) ** -6
    for disc in VALID_DISCS + CELL_DISCS:
        lo, hi, bits = classno._distance_bounds(disc, classno._valid_disc(disc))
        with localcontext() as ctx:
            ctx.prec = 60
            ref = oracles.decimal_distance_sum(disc) * (1 << bits)
            assert lo - slack <= ref <= hi + slack, disc


def test_distance_sum_walks_no_a_above_half_the_root(monkeypatch):
    walk = classno._window_roots
    seen = []

    def recorded(disc, top, take):
        def seen_and_taken(a, ks):
            seen.append(a)
            take(a, ks)

        walk(disc, top, seen_and_taken)

    monkeypatch.setattr(classno, "_window_roots", recorded)
    for disc in DISCS + CELL_DISCS:
        s = classno._valid_disc(disc)
        for run in (lambda: classno._distance_bounds(disc, s),
                    lambda: classno.reduced_forms(disc)):
            seen.clear()
            run()
            assert seen and 2 * max(seen) <= s, disc


def test_class_number_factors_nothing(monkeypatch):
    field = qf.construct_family(3, 8).field
    calls = []
    factor = intkit.factor

    def counted(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    monkeypatch.setattr(intkit, "factor", counted)
    assert classno.class_number(field) == 880
    assert calls == []


def test_narrow_class_number_at_1_5e9_within_budget():
    # cell (3, 9); with one factor() call per b this took about 3.5 s on a
    # 2-core machine, a sieve over b about 0.5 s, the enumeration by the
    # leading coefficient about 0.06 s, and the half walk with one lower
    # product takes about 0.02-0.04 s there
    t0 = time.perf_counter()
    assert classno.narrow_class_number(1549681960) == 2520
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1.5, f"{elapsed:.2f} s (budget 1.5 s)"


@given(st.sampled_from(DISCS))
def test_rho_walks_inside_the_reduced_set(disc):
    forms = classno.reduced_forms(disc)
    pool = set(forms)
    for f in forms:
        g = oracles.rho_reduce(f)
        assert g in pool
        a, b, c = g
        assert b * b - 4 * a * c == disc
        assert _is_reduced(a, b, c, disc)


def test_rho_cycle_on_disc_8():
    # the single cycle of disc 8: (1,2,-1) <-> (-1,2,1)
    f = (1, 2, -1)
    g = oracles.rho_reduce(f)
    assert g == (-1, 2, 1)
    assert oracles.rho_reduce(g) == f


def _cycles(disc):
    """The rho-cycles of disc as sets of forms, by the unpatched rho."""
    pending, cycles = set(classno.reduced_forms(disc)), []
    while pending:
        cycle, g = set(), pending.pop()
        while g not in cycle:
            cycle.add(g)
            g = oracles.rho_reduce(g)
        pending -= cycle
        cycles.append(cycle)
    return cycles


def test_narrow_class_number_gates_a_rho_that_leaves_the_set(monkeypatch):
    rho = oracles.rho_reduce

    def off_the_set(f):
        a, b, c = rho(f)
        return a, b + 2, c  # of another discriminant

    monkeypatch.setattr(oracles, "rho_reduce", off_the_set)
    with pytest.raises(DefectError, match="not pending"):
        walk_narrow_class_number(40)


def test_narrow_class_number_gates_a_rho_into_another_cycle(monkeypatch):
    # disc 40 has two cycles; every step from the second lands in the first,
    # which the walk meets either already walked or again after a lap.  A
    # walk that only looks for its start never stops, so steps are capped.
    first, second = _cycles(40)
    target = min(first)
    rho = oracles.rho_reduce
    steps = []

    def into_first(f):
        steps.append(f)
        assert len(steps) < 100, "the rho walk did not stop"
        return target if f in second else rho(f)

    monkeypatch.setattr(oracles, "rho_reduce", into_first)
    with pytest.raises(DefectError, match="not pending"):
        walk_narrow_class_number(40)


@given(st.sampled_from(DISCS))
def test_narrow_class_number_matches_oracle(disc):
    # the distance sum, the rho walk and the whole-box cycle count
    h_plus = classno.narrow_class_number(disc)
    assert h_plus == walk_narrow_class_number(disc) == slow_narrow_class_number(disc)


@pytest.mark.parametrize("disc", CELL_DISCS)
def test_distance_sum_matches_the_walk_on_cell_discs(disc):
    assert classno.narrow_class_number(disc) == walk_narrow_class_number(disc)


def test_distance_sum_rejects_a_unit_that_is_not_fundamental():
    # cell (3, 2): h+ = 4, and eps**3 makes the quotient 4/3
    fam = qf.construct_family(3, 2)
    eps = qf.fundamental_unit(fam.field)
    assert classno.narrow_class_number(fam.field.disc, eps=eps) == 4
    with pytest.raises(DefectError, match="no single integer"):
        classno.narrow_class_number(fam.field.disc, eps=eps**3)
    sqrt2_unit = qf.fundamental_unit(qf.QuadraticField(2))
    with pytest.raises(ValueError):
        classno.narrow_class_number(fam.field.disc, eps=sqrt2_unit)
    with pytest.raises(ValueError):  # 20 = 4 * 5 is no field discriminant
        classno.narrow_class_number(20)


_BIT = 1 << 64  # one bit in units of 2**-64, rescaled to the fixed point in use


@pytest.mark.parametrize("lo_shift, hi_shift", [
    (_BIT >> 4, _BIT >> 4),  # a sixteenth of a bit too high
    (-_BIT >> 4, -_BIT >> 4),  # too low
    (-2 * _BIT, 2 * _BIT),  # two bits too loose: h+ = 4 lies between 3.0 and 5.6
])
def test_distance_sum_rejects_a_log_that_is_off(monkeypatch, lo_shift, hi_shift):
    log2 = classno._log2_bound

    def off(x, up, bits):
        return log2(x, up, bits) + ((hi_shift if up else lo_shift) << bits >> 64)

    monkeypatch.setattr(classno, "_log2_bound", off)
    with pytest.raises(DefectError, match="no single integer"):
        classno.narrow_class_number(qf.construct_family(3, 2).field.disc)


_POWERS = st.integers(0, 1000).map(lambda k: 2**k)


@given(st.one_of(st.integers(1, 2**1000), _POWERS, _POWERS.map(lambda x: x - 1 or 1),
                 _POWERS.map(lambda x: x + 1)),
       st.sampled_from([classno._MIN_BITS, 45, 64]))
def test_log2_bounds_hold_against_a_decimal_reference(x, bits):
    lo, hi = classno._log2_bound(x, False, bits), classno._log2_bound(x, True, bits)
    with localcontext() as ctx:
        ctx.prec = 60
        ref = Decimal(x).ln() / Decimal(2).ln() * (1 << bits)
    slack = Decimal(10) ** -30  # far below one unit, far above 60 digits' error
    assert -slack <= ref - lo <= 6 and -slack <= hi - ref <= 6


def test_narrow_class_number_past_the_default_ceiling_within_budget():
    # cell (3, 10) at disc 1.4e10; about 0.45 s by a sieve over b on a
    # 2-core machine, about 0.15 s by the enumeration over a, and about
    # 0.05-0.09 s by the half walk with one lower product
    t0 = time.perf_counter()
    assert classno.narrow_class_number(13947137608, ceiling=10**11) == 4560
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1.0, f"{elapsed:.2f} s (budget 1.0 s)"
    # the one-sided product's closed-form slack stays narrow at the top of
    # the range, where sqrt(disc) - b is smallest against the fixed point;
    # the width is in bits, whatever fixed point the counts call for
    lo, hi, bits = classno._distance_bounds(13947137608, math.isqrt(13947137608))
    assert 0 < hi - lo < 1 << bits - 20


def test_narrow_class_number_at_1_3e11_past_the_old_proof(monkeypatch):
    # cell (3, 11): 64 fixed bits were proven only up to disc 1e10; the
    # bits that the counts call for keep the sum's interval below 2**-20
    # bits here too.  About 0.2-0.3 s on a 2-core machine.
    bounds = []
    distance_bounds = classno._distance_bounds

    def recorded(disc, s):
        bounds.append(distance_bounds(disc, s))
        return bounds[-1]

    monkeypatch.setattr(classno, "_distance_bounds", recorded)
    t0 = time.perf_counter()
    assert classno.narrow_class_number(125524238440, ceiling=10**12) == 21560
    elapsed = time.perf_counter() - t0
    assert elapsed <= 3.0, f"{elapsed:.2f} s (budget 3.0 s)"
    [(lo, hi, bits)] = bounds
    assert 0 < hi - lo < 1 << bits - 20


def test_narrow_class_number_at_1_5e9_holds_no_form_list():
    # cell (3, 9): the walk held all 44,800 forms, a 9 MB peak; the sum
    # holds one count per b and the root lists of the a below sqrt(s)
    tracemalloc.start()
    try:
        assert classno.narrow_class_number(1549681960) == 2520
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, f"{peak / 2**20:.2f} MB (budget 3 MB)"


def test_class_number_spot_values():
    assert classno.class_number(qf.QuadraticField(2)) == 1
    assert classno.class_number(qf.QuadraticField(10)) == 2
    assert classno.class_number(qf.QuadraticField(82)) == 4
    assert classno.class_number(qf.QuadraticField(730)) == 12
    assert classno.class_number(qf.QuadraticField(226)) == 8


def test_class_number_matches_oracle_to_200():
    for d in SQUAREFREE:
        assert classno.class_number(qf.QuadraticField(d)) == slow_class_number(d), d


def test_narrow_vs_wide_relation():
    for d in SQUAREFREE[:40]:
        f = qf.QuadraticField(d)
        h = classno.class_number(f)
        h_plus = classno.narrow_class_number(f.disc)
        if qf.unit_norm_sign(f) == -1:
            assert slow_minus_one_norm(f.disc)
            assert h_plus == h
        else:
            assert not slow_minus_one_norm(f.disc)
            assert h_plus == 2 * h


def test_ceiling_gate():
    f = qf.QuadraticField(2362)
    with pytest.raises(DiscriminantTooLarge):
        classno.class_number(f, ceiling=100)
    assert classno.class_number(f) == 10
