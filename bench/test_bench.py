"""Tests of the benchmark itself: its checks reject wrong output, its spans
count what they claim, and a short run prints the result line.

    python3 -m pytest bench -q
"""

import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pellrat import cli, invariants, quadfield  # noqa: E402


def scan_output(*argv: str) -> str:
    code, out = run.run_command(cli, ("scan",) + argv)
    assert code == 0
    return out


def rows_of(out: str) -> dict[tuple, dict[str, str]]:
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
    rows = [dict(zip(checks.COLUMNS, next(csv.reader([ln])))) for ln in lines]
    return {(int(r["p"]), int(r["r"]), int(r["m"])): r for r in rows}


@pytest.fixture(scope="module")
def rows():
    table = rows_of(scan_output("--p", "3", "--r", "2..6", "--m", "one"))
    table.update(rows_of(scan_output("--p", "5", "--r", "2", "--m", "bound")))
    return table


def test_program_rows_pass_every_check(rows):
    assert len(rows) == 5 + 34
    for cell, row in rows.items():
        assert checks.check_row(row) == [], cell


# eps = 9 + sqrt(82) at (3, 2); eps**3 = 2943 + 325 sqrt(82) also has norm -1
WRONG_ROWS = [
    ((3, 2, 1), {"class_number": "8"}, "slow class number"),
    ((3, 6, 1), {"class_number": "121", "h_val_p": "0"}, "genus"),
    ((3, 3, 1), {"h_val_p": "0"}, "v_p(h)"),
    ((3, 5, 1), {"D": "2363"}, "N != b^2 D"),
    ((3, 5, 1), {"b": "1", "D": "59050", "disc": "236200"}, "not squarefree"),
    ((3, 2, 1), {"unit": "2943:325:1"}, "not the fundamental unit"),
    ((3, 2, 1), {"unit": "2943:325:1"}, "t is not the fundamental unit"),
    ((5, 2, 2), {"unit_norm": "1"}, "unit_norm"),
    ((3, 4, 1), {"t_is_fundamental": "false"}, "t_is_fundamental"),
    ((3, 2, 1), {"p_rational": "inconclusive"}, "inside the bound"),
    ((3, 3, 1), {"greenberg": "mu-lambda-zero", "an_prediction": "9",
                 "n1_is_one": "certified"}, "p not dividing h"),
    ((5, 2, 2), {"greenberg": "mu-lambda-zero", "an_prediction": "5"}, "outside m = 1"),
    ((3, 4, 1), {"an_prediction": "81"}, "p^(r-1)"),
    ((3, 3, 1), {"an_prediction": "9"}, "prediction without"),
    ((3, 4, 1), {"n2": "5"}, "n2 != r"),
    ((3, 4, 1), {"n2": ""}, "no n2"),
    ((5, 2, 2), {"n2": ""}, "no n2"),
    # a skipped class number below the ceiling, dressed as a ceiling skip
    ((3, 6, 1), {"class_number": "", "h_val_p": "", "notes": "class number ceiling"},
     "no class number"),
    ((3, 5, 1), {"greenberg": "inconclusive", "an_prediction": "", "n1_is_one": "unknown",
                 "notes": "greenberg inconclusive: n1 certificate unknown"},
     "no mu-lambda-zero"),
    ((5, 2, 2), {"m_bound_ok": "false"}, "m_bound_ok"),
    ((3, 2, 1), {"wieferich": "true"}, "wieferich"),
    ((3, 2, 1), {"splits": "false"}, "splits"),
]


@pytest.mark.parametrize("cell, change, message", WRONG_ROWS)
def test_a_wrong_row_is_rejected(rows, cell, change, message):
    problems = checks.check_row({**rows[cell], **change})
    assert any(message in msg for msg in problems), problems


def test_gseq_checks():
    assert checks.check_search("no solutions\n") == []
    assert checks.check_search("HIT: G_3 = 7^1\n")
    assert checks.check_pair(5, "G=41 F=29\n") == []
    assert checks.check_pair(5, "G=41 F=30\n")
    assert checks.check_pair(12000, "")


SMALL = (workloads.scan_one(3, 2, 5), workloads.scan_bound(5, 2),
         workloads.gseq_search(3), workloads.gseq_pair(10))


def small_pass():
    return [run.run_command(cli, cmd.argv) for cmd in SMALL]


def test_check_pass_counts_failed_operations():
    checker = checks.Checker()
    results = small_pass()
    assert sum(cmd.operations for cmd in SMALL) == 4 + 34 + 2
    assert checker.check_pass(SMALL, results) == (0, [])

    code, out = results[0]
    dropped = "\n".join(ln for ln in out.splitlines() if not ln.startswith("3,4,"))
    failed, problems = checker.check_pass(SMALL, [(code, dropped)] + results[1:])
    assert failed == 1 and "row missing" in problems[0]

    stray = out + out.splitlines()[-1] + "\n"
    assert checker.check_pass(SMALL, [(code, stray)] + results[1:])[0] == 4

    assert checker.check_pass(SMALL, results[:1] + [(1, "")] + results[2:])[0] == 34

    bent = results[:3] + [(0, "G=3363 F=2377\n")]
    assert checker.check_pass(SMALL, bent)[0] == 1

    # a lower class-number ceiling skips work; every skipped row fails
    skipped = run.run_command(cli, SMALL[0].argv + ("--classno-ceiling", "1000"))
    failed, problems = checker.check_pass(SMALL, [skipped] + results[1:])
    assert failed == 3 and all("no class number" in msg for msg in problems)


def test_bound_arithmetic_matches_the_program():
    for p in (3, 5, 7):
        for r in (2, 3):
            bound = quadfield.m_bound(p, r)
            top = workloads.m_bound_floor(p, r)
            assert top == int(bound)
            for m in [*range(1, 50), top - 1, top, top + 1]:
                assert (m <= top) == (Fraction(m) <= bound)


def test_workload_sizes():
    ops = {name: sum(c.operations for c in cmds) for name, cmds in workloads.WORKLOADS.items()}
    assert ops == {"m1_classno": 21, "bound_many_small": 3 * 69, "deep_r_pell": 17}


def test_spans_count_layers_and_uninstall():
    originals = (cli.compute_record, cli.fundamental_unit, invariants.fundamental_unit,
                 quadfield.fundamental_unit, cli.FactorCache.get)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert cli.fundamental_unit is not originals[1]
        assert invariants.fundamental_unit is cli.fundamental_unit
        scan_output("--p", "3", "--r", "2..4", "--m", "one")
        m = tracer.metrics()
        tracer.reset()
        scan_output("--p", "3", "--r", "2..3", "--m", "one", "--classno-ceiling", "100")
        skips = tracer.metrics()["classno.ceiling_skips"]
    finally:
        uninstall()
    assert (cli.compute_record, cli.fundamental_unit, invariants.fundamental_unit,
            quadfield.fundamental_unit, cli.FactorCache.get) == originals
    assert set(m) == {name for name, _, _ in spans.PER_LAYER}
    assert m["cli.compute_record.calls"] == 3
    assert m["cli.cache.misses"] == 3 and m["cli.cache.hits"] == 0
    assert m["classno.forms"] > 0 and m["classno.ceiling_skips"] == 0
    assert m["intkit.factor.in_classno.calls"] > 0
    assert m["intkit.factor.calls"] > m["intkit.factor.in_classno.calls"]
    assert m["classno.class_number.s"] >= m["classno.reduced_forms.s"] > 0
    assert m["padic.precision_k_max"] >= 8
    assert m["pellseq.self_s"] == 0
    assert skips == 2


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_its_result(capsys, monkeypatch, tmp_path, trace):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "bound_many_small", "--seed", "3",
                     "--seconds", "0", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3 * 69, 0)
    names = ({"setup_s", "pass_s", "peak_rss_mb"} if trace == "0"
             else {name for name, _, _ in spans.PER_LAYER})
    assert set(result["metrics"]) == names
    assert json.loads((tmp_path / f"bound_many_small-trace{trace}-seed3.json").read_text())


def test_no_sources_is_an_error(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "m1_classno", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
