import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (_is_reduced, by_b_reduced_forms, slow_class_number,
                     slow_minus_one_norm, slow_narrow_class_number,
                     slow_reduced_forms, squarefree_split)

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
        classno.rho_reduce((1, 0, 1))  # disc -4
    with pytest.raises(ValueError):
        classno.rho_reduce((0, 3, 1))  # disc 9, a square
    with pytest.raises(ValueError):
        classno.reduced_forms(7)  # 3 mod 4


@given(st.sampled_from(DISCS))
def test_reduced_forms_match_oracle_enumeration(disc):
    forms = classno.reduced_forms(disc)
    assert forms == by_b_reduced_forms(disc) == sorted(slow_reduced_forms(disc))


@pytest.mark.parametrize("disc", CELL_DISCS)
def test_sieve_matches_the_by_b_enumeration_on_cell_discs(disc):
    assert classno.reduced_forms(disc) == by_b_reduced_forms(disc)


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
    # 2-core machine, and the sieve takes about 0.5 s there
    t0 = time.perf_counter()
    assert classno.narrow_class_number(1549681960) == 2520
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1.5, f"{elapsed:.2f} s (budget 1.5 s)"


@given(st.sampled_from(DISCS))
def test_rho_walks_inside_the_reduced_set(disc):
    forms = classno.reduced_forms(disc)
    pool = set(forms)
    for f in forms:
        g = classno.rho_reduce(f)
        assert g in pool
        a, b, c = g
        assert b * b - 4 * a * c == disc
        assert _is_reduced(a, b, c, disc)


def test_rho_cycle_on_disc_8():
    # the single cycle of disc 8: (1,2,-1) <-> (-1,2,1)
    f = (1, 2, -1)
    g = classno.rho_reduce(f)
    assert g == (-1, 2, 1)
    assert classno.rho_reduce(g) == f


def _cycles(disc):
    """The rho-cycles of disc as sets of forms, by the unpatched rho."""
    pending, cycles = set(classno.reduced_forms(disc)), []
    while pending:
        cycle, g = set(), pending.pop()
        while g not in cycle:
            cycle.add(g)
            g = classno.rho_reduce(g)
        pending -= cycle
        cycles.append(cycle)
    return cycles


def test_narrow_class_number_gates_a_rho_that_leaves_the_set(monkeypatch):
    rho = classno.rho_reduce

    def off_the_set(f):
        a, b, c = rho(f)
        return a, b + 2, c  # of another discriminant

    monkeypatch.setattr(classno, "rho_reduce", off_the_set)
    with pytest.raises(DefectError, match="not pending"):
        classno.narrow_class_number(40)


def test_narrow_class_number_gates_a_rho_into_another_cycle(monkeypatch):
    # disc 40 has two cycles; every step from the second lands in the first,
    # which the walk meets either already walked or again after a lap.  A
    # walk that only looks for its start never stops, so steps are capped.
    first, second = _cycles(40)
    target = min(first)
    rho = classno.rho_reduce
    steps = []

    def into_first(f):
        steps.append(f)
        assert len(steps) < 100, "the rho walk did not stop"
        return target if f in second else rho(f)

    monkeypatch.setattr(classno, "rho_reduce", into_first)
    with pytest.raises(DefectError, match="not pending"):
        classno.narrow_class_number(40)


@given(st.sampled_from(DISCS))
def test_narrow_class_number_matches_oracle(disc):
    assert classno.narrow_class_number(disc) == slow_narrow_class_number(disc)


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
