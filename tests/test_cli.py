import json
import os
import subprocess
import sys
import time

import pytest

import pellrat
from pellrat import cli, intkit
from pellrat.errors import DefectError


def run(capsys, *argv):
    code = cli.entrypoint(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_field_human_output(capsys):
    code, out, _ = run(capsys, "field", "--p", "3", "--r", "2", "--m", "1")
    assert code == 0
    assert "D = 82" in out
    assert "n2 = 2" in out
    assert "greenberg = mu-lambda-zero" in out
    assert "an_prediction = 3" in out


def test_field_json_output(capsys):
    code, out, _ = run(capsys, "field", "--p", "3", "--r", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["D"] == "82"
    assert obj["n2"] == 2
    assert obj["unit"] == {"u": "9", "v": "1", "den": "1"}
    assert obj["t_is_fundamental"] is True
    assert obj["p_rational"] == "non-p-rational"


def test_field_outside_bound_still_reports(capsys):
    code, out, _ = run(capsys, "field", "--p", "3", "--r", "2", "--m", "5")
    assert code == 0
    assert "m_bound_ok = false" in out


# argparse wraps the usage line to the terminal width; the table sets COLUMNS=80
FIELD_USAGE = """\
usage: pellrat field [-h] --p P --r R [--m M] [--factor-effort FACTOR_EFFORT]
                     [--precision-cap PRECISION_CAP]
                     [--classno-ceiling CLASSNO_CEILING] [--cache CACHE]
                     [--format {csv,json}] [--out OUT]
"""
SCAN_USAGE = """\
usage: pellrat scan [-h] --p P --r R [--m M] [--factor-effort FACTOR_EFFORT]
                    [--precision-cap PRECISION_CAP]
                    [--classno-ceiling CLASSNO_CEILING] [--cache CACHE]
                    [--format {csv,json}] [--out OUT]
"""
FIELD = ("field", "--p", "3", "--r", "2")
SCAN = ("scan", "--p", "3", "--r", "2")
# made by the table's test, in a fresh working directory
BAD_CACHE = "bad-cache.txt"
CACHE_DIR = "cache-dir"

# every refused command: (argv, exit code, exact stderr); stdout stays empty
REFUSALS = (
    (("field", "--p", "3"), 1,
     FIELD_USAGE + "error: the following arguments are required: --r\n"),
    ((*SCAN, "--format", "yaml"), 1, SCAN_USAGE + "error: argument --format: invalid "
     "choice: 'yaml' (choose from 'csv', 'json')\n"),
    (("field", "--p", "2", "--r", "2"), 1, "error: p must be an odd prime, got 2\n"),
    (("field", "--p", "9", "--r", "2"), 1, "error: p must be an odd prime, got 9\n"),
    (("field", "--p", "3", "--r", "1"), 1, "error: r must be >= 2, got 1\n"),
    ((*FIELD, "--m", "6"), 1, "error: m must be coprime to p, got m=6, p=3\n"),
    ((*FIELD, "--m", "0"), 1, "error: m must be >= 1, got 0\n"),
    (("scan", "--p", "", "--r", "2"), 1, "error: --p list is empty\n"),
    (("scan", "--p", "a", "--r", "2"), 1, "error: bad --p list: 'a'\n"),
    (("scan", "--p", "9", "--r", "2"), 1, "error: p must be an odd prime, got 9\n"),
    (("scan", "--p", "3,4", "--r", "2"), 1, "error: p must be an odd prime, got 4\n"),
    (("scan", "--p", "3", "--r", "1"), 1,
     "error: --r range must satisfy 2 <= a <= b, got '1'\n"),
    (("scan", "--p", "3", "--r", "3..2"), 1,
     "error: --r range must satisfy 2 <= a <= b, got '3..2'\n"),
    (("scan", "--p", "3", "--r", "x"), 1, "error: bad --r value: 'x'\n"),
    (("scan", "--p", "3", "--r", "2..1000000000"), 1,
     "error: --r range must hold <= 1000000 values, got 999999999\n"),
    # int() would strip the whitespace, and the CSV's '#' line would echo it
    (("scan", "--p", "3\n", "--r", "2"), 1, "error: bad --p list: '3\\n'\n"),
    (("scan", "--p", "3, 5", "--r", "2"), 1, "error: bad --p list: '3, 5'\n"),
    (("scan", "--p", "3", "--r", "2\n"), 1, "error: bad --r value: '2\\n'\n"),
    (("scan", "--p", "3", "--r", "2.. 3"), 1, "error: bad --r range: '2.. 3'\n"),
    ((*SCAN, "--m", " 2"), 1, "error: --m must be 'one', 'bound', or an integer, got ' 2'\n"),
    ((*SCAN, "--m", "0"), 1, "error: --m must be >= 1, got 0\n"),
    ((*SCAN, "--m", "x"), 1,
     "error: --m must be 'one', 'bound', or an integer, got 'x'\n"),
    ((*SCAN, "--m", "3"), 1, "error: m must be coprime to p, got m=3, p=3\n"),
    *(((*cmd, flag, str(least - 1)), 1, f"error: {flag} must be >= {least}\n")
      for cmd in (FIELD, SCAN)
      for flag, least in (("--factor-effort", 0), ("--precision-cap", 1),
                          ("--classno-ceiling", 1))),
    (("gseq", "search", "--p", "3", "--max", "0"), 1, "error: --max must be >= 1, got 0\n"),
    (("gseq", "search", "--p", "9", "--max", "10"), 1,
     "error: p must be an odd prime, got 9\n"),
    (("gseq", "gcd", "0", "1"), 1, "error: gcd arguments must be >= 1\n"),
    (("gseq", "pair", "1000001"), 1, "error: |n| must be <= 1000000, got 1000001\n"),
    (("gseq", "gcd", "3000000", "3000000"), 1,
     "error: the answer is G_3000000; its index must be <= 1000000\n"),
    ((*FIELD, "--m", "2", "--factor-effort", "0"), 2,
     "error: factorization of 325 incomplete within budget\n"),
    ((*FIELD, "--precision-cap", "1"), 3,
     "error: congruence order at 3 unresolved at precision 1\n"),
    # no summary line: the scan stops at the write
    ((*SCAN, "--out", "/nonexistent-dir/x.csv"), 4, "error: cannot write "
     "/nonexistent-dir/x.csv: [Errno 2] No such file or directory: '/nonexistent-dir/x.csv'\n"),
    # the first factorization the scan stores stops it
    ((*SCAN, "--cache", "/nonexistent-dir/c.txt"), 4, "error: cannot write "
     "/nonexistent-dir/c.txt: [Errno 2] No such file or directory: '/nonexistent-dir/c.txt'\n"),
    ((*FIELD, "--cache", BAD_CACHE), 1,
     f"error: cache line for 12 in {BAD_CACHE} does not multiply out\n"),
    ((*FIELD, "--cache", CACHE_DIR), 4,
     f"error: cannot read {CACHE_DIR}: [Errno 21] Is a directory: '{CACHE_DIR}'\n"),
)


def test_field_usage_errors(capsys, monkeypatch, tmp_path):
    # entrypoint returns the code of every refusal; none escapes as an exception
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / BAD_CACHE).write_text("12 2^2 5^1\n")
    (tmp_path / CACHE_DIR).mkdir()
    for argv, code, err in REFUSALS:
        got = cli.entrypoint(list(argv))
        out, got_err = capsys.readouterr()
        assert (got, out, got_err) == (code, "", err), argv


@pytest.mark.parametrize("p, r, m", [(3, 2, 1), (3, 2, 5), (1093, 2, 1)])
def test_field_json_is_the_scan_row(capsys, p, r, m):
    # (3, 2, 5) lies outside the coefficient bound; 1093 is a Wieferich prime
    cell = ("--p", str(p), "--r", str(r), "--m", str(m), "--format", "json")
    code, field_out, _ = run(capsys, "field", *cell)
    assert code == 0
    code, scan_out, _ = run(capsys, "scan", *cell)
    assert code == 0
    assert [json.loads(field_out)] == json.loads(scan_out)


def test_argparse_errors_use_exit_code_one(capsys):
    # argparse's default is 2; its usage line comes before the error line
    code, out, err = run(capsys, "field", "--p", "3")  # missing --r
    assert (code, out) == (1, "")
    assert err.startswith("usage: pellrat field ")
    assert err.endswith("\nerror: the following arguments are required: --r\n")
    code, out, err = run(capsys, "scan", "--p", "3", "--r", "2", "--format", "yaml")
    assert (code, out) == (1, "")
    assert err.startswith("usage: pellrat scan ")
    assert err.endswith("\nerror: argument --format: invalid choice: 'yaml' "
                        "(choose from 'csv', 'json')\n")


def test_field_factor_exit_code(capsys):
    code, _, err = run(capsys, "field", "--p", "3", "--r", "2", "--m", "2",
                       "--factor-effort", "0")
    assert code == 2
    assert "incomplete" in err


def test_field_precision_exit_code(capsys):
    code, _, err = run(capsys, "field", "--p", "3", "--r", "2",
                       "--precision-cap", "1")
    assert code == 3
    assert "precision" in err.lower() or "unresolved" in err.lower()


def test_scan_io_exit_code(capsys):
    code, _, err = run(capsys, "scan", "--p", "3", "--r", "2..3",
                       "--out", "/nonexistent-dir/out.csv")
    assert code == 4
    assert "cannot write" in err


def test_scan_csv_shape(capsys):
    code, out, err = run(capsys, "scan", "--p", "3", "--r", "2..4", "--m", "one")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# pellrat scan")
    assert lines[1].split(",") == list(cli.FIELD_NAMES)
    rows = parse_csv(out)
    assert [int(row["r"]) for row in rows] == [2, 3, 4]
    assert all(row["p_rational"] == "non-p-rational" for row in rows)
    assert "scanned 3 cells" in err


def test_scan_json_matches_csv(capsys, tmp_path):
    args = ("--p", "3,5", "--r", "2..3", "--m", "one")
    code, csv_text, _ = run(capsys, "scan", *args, "--format", "csv")
    assert code == 0
    code, json_text, _ = run(capsys, "scan", *args, "--format", "json")
    assert code == 0
    csv_rows = parse_csv(csv_text)
    json_rows = json.loads(json_text)
    assert len(csv_rows) == len(json_rows) == 4
    for c, j in zip(csv_rows, json_rows):
        for name in cli.FIELD_NAMES:
            jv = j[name]
            if name == "unit":
                want = "" if jv is None else f"{jv['u']}:{jv['v']}:{jv['den']}"
            elif name == "notes":
                want = ";".join(jv)
            elif jv is None:
                want = ""
            elif isinstance(jv, bool):
                want = "true" if jv else "false"
            else:
                want = str(jv)
            assert c[name] == want, (name, c, j)


def test_scan_m_bound_policy(capsys):
    code, out, _ = run(capsys, "scan", "--p", "3", "--r", "2..3", "--m", "bound")
    assert code == 0
    rows = parse_csv(out)
    r2 = [row for row in rows if row["r"] == "2"]
    r3 = [row for row in rows if row["r"] == "3"]
    assert [row["m"] for row in r2] == ["1"]
    # bound(3,3) = 26973/512 = 52.68..: every m <= 52 coprime to 3
    want = [m for m in range(1, 53) if m % 3]
    assert [int(row["m"]) for row in r3] == want
    assert all(row["m_bound_ok"] == "true" for row in rows)


# runs the CLI under a 512 MB address-space limit, so that a scan which
# builds floor(m_bound) values fails fast instead of exhausting the machine
SMALL_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from pellrat.cli import entrypoint
sys.exit(entrypoint(sys.argv[1:]))
"""


def child_env():
    src = os.path.dirname(os.path.dirname(pellrat.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("p, r", [(5, 3), (11, 2)])
def test_scan_m_bound_refuses_a_bound_past_the_cap(p, r):
    # floor(m_bound) is about 2.1e10 at (5, 3) and 6.4e7 at (11, 2)
    proc = subprocess.run(
        [sys.executable, "-c", SMALL_CHILD, "scan", "--p", f"3,{p}", "--r", f"2..{r}",
         "--m", "bound"], capture_output=True, text=True, timeout=30, env=child_env())
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr[-500:]
    assert proc.stdout == ""
    assert proc.stderr == (f"error: --m bound: floor(m_bound({p}, {r})) exceeds "
                           f"1000000; use --m N for a single m\n")


def test_closed_stdout_is_an_io_failure():
    # G_200000 and F_200000 print about 150 kB, more than a pipe holds, so
    # the child writes into a pipe whose reader has gone
    with subprocess.Popen([sys.executable, "-c", SMALL_CHILD, "gseq", "pair", "200000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as proc:
        assert proc.stdout.read(5) == b"G=685"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == cli.EXIT_IO
    assert err == b"error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_short_output_to_a_closed_stdout_is_an_io_failure():
    # G_5 fits in the buffer of a block-buffered stdout, so the write itself
    # succeeds and only the flush meets the pipe, closed before the child starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run([sys.executable, "-c", SMALL_CHILD, "gseq", "pair", "5"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_IO
    assert proc.stderr == b"error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_gseq_pair_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "PAIR_N_MAX", 5)
    for n in ("5", "-5"):
        assert run(capsys, "gseq", "pair", n)[0] == cli.EXIT_OK
    for n in ("6", "-6"):
        assert run(capsys, "gseq", "pair", n) == (cli.EXIT_USAGE, "",
                                                  f"error: |n| must be <= 5, got {n}\n")


def test_scan_r_range_cap_is_inclusive(capsys, monkeypatch):
    # refused before any row, with no list of the range built
    t0 = time.perf_counter()
    assert run(capsys, "scan", "--p", "3", "--r", "2..1000000000")[0] == cli.EXIT_USAGE
    assert time.perf_counter() - t0 < 1
    monkeypatch.setattr(cli, "M_BOUND_MAX", 2)
    assert run(capsys, "scan", "--p", "3", "--r", "2..3")[0] == cli.EXIT_OK
    assert run(capsys, "scan", "--p", "3", "--r", "2..4") == (
        cli.EXIT_USAGE, "", "error: --r range must hold <= 2 values, got 3\n")


def test_gseq_gcd_cap_is_inclusive(capsys, monkeypatch):
    # gcd(2**21, 3 * 2**20) = 2**20 is past the cap, but the 2-adic
    # valuations differ: the answer is 1, at once
    t0 = time.perf_counter()
    assert run(capsys, "gseq", "gcd", "2097152", "3145728") == (cli.EXIT_OK, "1\n", "")
    assert time.perf_counter() - t0 < 1
    monkeypatch.setattr(cli, "PAIR_N_MAX", 5)
    assert run(capsys, "gseq", "gcd", "5", "15") == (cli.EXIT_OK, "41\n", "")
    assert run(capsys, "gseq", "gcd", "6", "18") == (
        cli.EXIT_USAGE, "", "error: the answer is G_6; its index must be <= 5\n")


# a parse error, a refusal and two answers
ONE_PROCESS = (("field", "--p", "x"), ("scan", "--p", "9", "--r", "2"),
               ("field", "--p", "3", "--r", "2"), ("gseq", "pair", "5"))


def test_commands_in_one_process_print_what_fresh_processes_print(capsys, monkeypatch):
    # the parser is built once per process: no command may leave state in it
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(child_env(), COLUMNS="80")
    want = {}
    for argv in ONE_PROCESS:
        proc = subprocess.run([sys.executable, "-m", "pellrat.cli", *argv], capture_output=True,
                              text=True, timeout=60, env=env)
        want[argv] = (proc.returncode, proc.stdout, proc.stderr)
    assert want[ONE_PROCESS[0]][0] == want[ONE_PROCESS[1]][0] == cli.EXIT_USAGE
    for order in (ONE_PROCESS, ONE_PROCESS[::-1]):
        assert {argv: run(capsys, *argv) for argv in order} == want, order
    assert cli.build_parser() is cli.build_parser()


# what a CLI start must not load: dataclasses brings inspect, ast, dis and
# tokenize; only quadfield.m_bound needs fractions (and with it decimal); and
# only --format json needs json
NOT_AT_START = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal",
                "json")


def test_cli_start_loads_no_heavy_modules():
    code = ("import sys; before = set(sys.modules); from pellrat import cli; "
            "cli.build_parser(); print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "pellrat.cli" in loaded
    assert [name for name in NOT_AT_START if name in loaded] == []


def test_scan_m_bound_cap_is_inclusive(capsys, monkeypatch):
    # floor(m_bound(3, 3)) = 52
    monkeypatch.setattr(cli, "M_BOUND_MAX", 51)
    code, out, err = run(capsys, "scan", "--p", "3", "--r", "3", "--m", "bound")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert "floor(m_bound(3, 3)) exceeds 51" in err
    monkeypatch.setattr(cli, "M_BOUND_MAX", 52)
    code, out, _ = run(capsys, "scan", "--p", "3", "--r", "3", "--m", "bound")
    assert code == 0
    assert [int(row["m"]) for row in parse_csv(out)] == [m for m in range(1, 53) if m % 3]


def test_scan_explicit_m(capsys):
    code, out, _ = run(capsys, "scan", "--p", "3,5", "--r", "2", "--m", "5")
    assert code == 0
    rows = parse_csv(out)
    # the (5, 2, 5) cell is skipped: 5 divides m
    assert [(row["p"], row["m"]) for row in rows] == [("3", "5")]


def test_scan_refuses_an_m_that_every_p_divides(capsys):
    # as `field` does; a mixed list still skips only its divided cells
    code, out, err = run(capsys, "scan", "--p", "3", "--r", "2", "--m", "3")
    assert (code, out) == (1, "")
    assert "m must be coprime to p, got m=3, p=3" in err
    code, out, err = run(capsys, "scan", "--p", "3,5", "--r", "2", "--m", "15")
    assert (code, out) == (1, "")
    assert "m must be coprime to p, got m=15, p=3,5" in err


def test_scan_rows_sorted_and_deterministic(capsys):
    args = ("--r", "2..3", "--m", "one")
    code, out1, _ = run(capsys, "scan", "--p", "7,3,5", *args)
    assert code == 0
    code, out2, _ = run(capsys, "scan", "--p", "3,5,7", *args)
    assert code == 0
    # only the '#' line, which echoes the --p text, may differ
    assert out1.splitlines()[1:] == out2.splitlines()[1:]
    rows = parse_csv(out1)
    keys = [(int(r["p"]), int(r["r"]), int(r["m"])) for r in rows]
    assert keys == sorted(keys)


def test_scan_row_failure_is_data(capsys):
    # factor effort too small for r = 8: the row lands with a note
    code, out, err = run(capsys, "scan", "--p", "3", "--r", "2..8",
                         "--factor-effort", "4")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 7
    failed = [row for row in rows if row["D"] == ""]
    assert failed
    assert all("factorization incomplete" in row["notes"] for row in failed)
    assert "row-failures" in err


def test_scan_summary_counts_each_verdict_column(capsys):
    # m = 2 is past the bound at (3, 2), and no m != 1 row has a greenberg verdict
    code, _, err = run(capsys, "scan", "--p", "3", "--r", "2..3", "--m", "2")
    assert code == 0
    assert err == ("scanned 2 cells: p_rational inconclusive=1 non-p-rational=1; "
                   "greenberg inconclusive=2; row-failures=0\n")


def test_gseq_outputs(capsys):
    code, out, _ = run(capsys, "gseq", "pair", "5")
    assert (code, out.strip()) == (0, "G=41 F=29")
    code, out, _ = run(capsys, "gseq", "pair", "-3")
    assert (code, out.strip()) == (0, "G=-7 F=5")
    code, out, _ = run(capsys, "gseq", "gcd", "6", "2")
    assert (code, out.strip()) == (0, "3")
    code, out, _ = run(capsys, "gseq", "search", "--p", "3", "--max", "2000")
    assert (code, out.strip()) == (0, "no solutions")


def test_gseq_search_to_a_billion_is_quick(capsys):
    # the search walks at most (p + 1)/2 residues whatever --max is
    t0 = time.perf_counter()
    code, out, err = run(capsys, "gseq", "search", "--p", "3", "--max", "1000000000")
    elapsed = time.perf_counter() - t0
    assert (code, out, err) == (0, "no solutions\n", "")
    assert elapsed < 1, elapsed


def test_gseq_validation(capsys):
    code, _, err = run(capsys, "gseq", "gcd", "0", "2")
    assert (code, err) == (1, "error: gcd arguments must be >= 1\n")
    code, _, err = run(capsys, "gseq", "search", "--p", "4", "--max", "10")
    assert (code, err) == (1, "error: p must be an odd prime, got 4\n")
    code, _, err = run(capsys, "gseq", "search", "--p", "3", "--max", "0")
    assert (code, err) == (1, "error: --max must be >= 1, got 0\n")


def test_scan_reraises_defect_error(capsys, monkeypatch):
    # a defect is a bug, not a row: it must escape the scan loop
    def broken(*args, **kwargs):
        raise DefectError("family unit lost norm -1")

    monkeypatch.setattr(cli, "construct_family", broken)
    with pytest.raises(DefectError, match="lost norm"):
        cli.entrypoint(["scan", "--p", "3", "--r", "2..3"])


def test_factor_cache_round_trip(tmp_path):
    path = tmp_path / "cache.txt"
    cache = cli.FactorCache(str(path))
    f = intkit.factor(59050)
    cache.put(f)
    assert path.read_text() == "59050 2^1 5^2 1181^1\n"
    again = cli.FactorCache(str(path))
    assert again.get(59050) == f
    # a second put of the same value must not duplicate the line
    again.put(f)
    assert path.read_text().count("59050") == 1


def test_factor_cache_rejects_lies(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("12 2^2 5^1\n")
    with pytest.raises(cli.CommandError, match="does not multiply out"):
        cli.FactorCache(str(path))
    path.write_text("12 4^1 3^1\n")
    with pytest.raises(cli.CommandError, match="bad cache entry for 12"):
        cli.FactorCache(str(path))
    path.write_text("12 2^x 3^1\n")
    with pytest.raises(cli.CommandError, match="bad line in cache"):
        cli.FactorCache(str(path))
    path.write_bytes(b"\xff 2^1\n")
    with pytest.raises(cli.CommandError, match="is not UTF-8 text"):
        cli.FactorCache(str(path))


def test_factor_cache_skips_incomplete(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("")
    cache = cli.FactorCache(str(path))
    f = intkit.factor(10000000019 * 10000000033, effort=0)
    assert not f.complete
    cache.put(f)
    assert cache.get(f.value) is None
    assert path.read_text() == ""


def test_factor_cache_without_a_file_keeps_nothing():
    cache = cli.FactorCache(None)
    f = intkit.factor(59050)
    cache.put(f)
    assert cache.get(59050) is None
    assert cache.factor(59050) == f
    assert cache.get(59050) is None


def test_scan_uses_cache_file(capsys, tmp_path):
    path = tmp_path / "cache.txt"
    code, out1, _ = run(capsys, "scan", "--p", "3", "--r", "2..4",
                        "--cache", str(path))
    assert code == 0
    text = path.read_text()
    assert "82 2^1 41^1" in text
    # second run answers from the cache and leaves the file unchanged
    code, out2, _ = run(capsys, "scan", "--p", "3", "--r", "2..4",
                        "--cache", str(path))
    assert code == 0
    assert out1 == out2
    assert path.read_text() == text


def test_out_file_round_trip(capsys, tmp_path):
    target = tmp_path / "rows.json"
    code, out, _ = run(capsys, "scan", "--p", "3", "--r", "2", "--format",
                       "json", "--out", str(target))
    assert code == 0
    assert out == ""
    rows = json.loads(target.read_text())
    assert len(rows) == 1 and rows[0]["D"] == "82"
