"""Checks of `pellrat` output that use no stored copy of earlier output.

Every value is recomputed apart from the program (sympy's factorint and
diop_DN, the box-scanning class number of tests/oracles.py, exact integer
comparisons) or checked against a theorem of the paper:

- N = m^2 p^(2r) + 1 = b^2 D with D squarefree, and p splits;
- the unit has norm -1 (t = m p^r + b sqrt(D) has norm -1) and is the
  fundamental unit; for m = 1 it is t itself;
- every row with a field has n2; inside the coefficient bound the field is
  non-p-rational and n2 >= 2; for m = 1, n2 = r;
- mu-lambda-zero exactly for m = 1, p non-Wieferich and p not dividing h
  (the Fukuda-Komatsu route), with prediction p^(r - 1);
- every row with disc <= CLASSNO_DISC_CEILING has h; 2^(omega(disc) - 1)
  divides h (genus theory, h = h+ under norm -1), and h equals the slow
  class number below ORACLE_DISC_LIMIT;
- no G_n is a prime power, and G_n, F_n are those of the recurrence
  x_(n+2) = 2 x_(n+1) + x_n (tests/oracles.py).

Importing this module loads sympy, so the benchmark imports it only after
its timed passes and its memory reading.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import sympy
from sympy.solvers.diophantine.diophantine import diop_DN

from workloads import Command, m_bound_floor

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import slow_class_number, slow_pell  # noqa: E402

ORACLE_DISC_LIMIT = 10**5
# the workloads were chosen around a class-number ceiling at disc 1e10: a row
# at or below it must carry h, so a pass cannot get faster by skipping it
CLASSNO_DISC_CEILING = 10**10

NON_P_RATIONAL = "non-p-rational"
INCONCLUSIVE = "inconclusive"
MU_LAMBDA_ZERO = "mu-lambda-zero"
N1_CERTIFIED = "certified"

COLUMNS = ("p", "r", "m", "N", "b", "D", "disc", "unit", "unit_norm",
           "t_is_fundamental", "splits", "n2", "n1_is_one", "class_number",
           "h_val_p", "wieferich", "m_bound_ok", "p_rational", "greenberg",
           "an_prediction", "notes")


def _int(row: dict[str, str], key: str) -> int | None:
    value = row[key]
    return int(value) if value != "" else None


def _flag(value: bool) -> str:
    return "true" if value else "false"


def z_fundamental_unit(d: int) -> tuple[int, int]:
    """Smallest x + y sqrt(d) > 1 of norm +-1 in Z[sqrt(d)], from sympy."""
    return (diop_DN(d, -1) or diop_DN(d, 1))[0]


def check_row(row: dict[str, str]) -> list[str]:
    """Problems with one scan row; an empty list means the row is correct."""
    p, r, m = int(row["p"]), int(row["r"]), int(row["m"])
    n = int(row["N"])
    problems = []
    if n != m * m * p ** (2 * r) + 1:
        problems.append("N is not m^2 p^(2r) + 1")
    b, d, disc = _int(row, "b"), _int(row, "D"), _int(row, "disc")
    if b is None or d is None or disc is None:
        return problems + ["row has no field"]
    if b * b * d != n:
        return problems + ["N != b^2 D"]
    primes = sympy.factorint(d)
    if d < 2 or any(e > 1 for e in primes.values()):
        return problems + [f"D = {d} is not squarefree"]
    if disc != (d if d % 4 == 1 else 4 * d):
        problems.append("disc is not the discriminant of Q(sqrt(D))")
    splits = sympy.jacobi_symbol(d, p) == 1
    if not splits or row["splits"] != _flag(splits):
        problems.append("p does not split, or splits is misreported")
    problems += _check_unit(row, p, r, m, b, d)
    problems += _check_verdicts(row, p, r, m)
    omega = len(primes) + (disc % 2 == 0 and 2 not in primes)
    problems += _check_class_number(row, p, d, disc, omega)
    return problems


def _check_unit(row, p, r, m, b, d) -> list[str]:
    u, v, den = (int(x) for x in row["unit"].split(":"))
    num = u * u - d * v * v
    if den not in (1, 2) or num % (den * den) or abs(num // (den * den)) != 1:
        return ["unit is not a unit"]
    problems = []
    norm = num // (den * den)
    if norm != -1 or row["unit_norm"] != str(norm):
        problems.append("unit norm is not -1, or unit_norm is misreported")
    # a half-integral unit's cube lies in Z[sqrt(D)] and generates its units
    if den == 1:
        z_unit = (u, v)
    else:
        z_unit = ((u**3 + 3 * u * v * v * d) // 8, (3 * u * u * v + v**3 * d) // 8)
    if z_unit != z_fundamental_unit(d):
        problems.append("unit is not the fundamental unit (diop_DN)")
    t_is_eps = (u, v, den) == (m * p**r, b, 1)
    if row["t_is_fundamental"] != _flag(t_is_eps):
        problems.append("t_is_fundamental is misreported")
    if m == 1 and not t_is_eps:
        problems.append("t is not the fundamental unit for m = 1")
    return problems


def _check_verdicts(row, p, r, m) -> list[str]:
    problems = []
    wieferich = pow(2, p - 1, p * p) == 1
    if row["wieferich"] != _flag(wieferich):
        problems.append("wieferich is misreported")
    in_bound = m <= m_bound_floor(p, r)
    if row["m_bound_ok"] != _flag(in_bound):
        problems.append("m_bound_ok is misreported")
    if row["p_rational"] not in (NON_P_RATIONAL, INCONCLUSIVE):
        problems.append(f"unknown p_rational {row['p_rational']!r}")
    if in_bound and row["p_rational"] != NON_P_RATIONAL:
        problems.append("inside the bound but not non-p-rational")
    n2 = _int(row, "n2")
    if n2 is None:
        problems.append("row has a field but no n2")
    elif m == 1 and n2 != r:
        problems.append("n2 != r for m = 1")
    elif in_bound and n2 < 2:
        problems.append("n2 < 2 inside the bound")
    h = _int(row, "class_number")
    prediction = _int(row, "an_prediction")
    criterion = m == 1 and not wieferich and h is not None and h % p != 0
    if criterion and row["greenberg"] != MU_LAMBDA_ZERO:
        problems.append("no mu-lambda-zero for m = 1, p non-Wieferich, p not dividing h")
    if row["greenberg"] == MU_LAMBDA_ZERO:
        if not criterion:
            problems.append("mu-lambda-zero outside m = 1, p non-Wieferich, p not dividing h")
        if n2 != r or prediction != p ** (r - 1) or row["n1_is_one"] != N1_CERTIFIED:
            problems.append("mu-lambda-zero without n2 = r, p^(r-1) and an n1 certificate")
    elif row["greenberg"] != INCONCLUSIVE:
        problems.append(f"unknown greenberg {row['greenberg']!r}")
    elif prediction is not None:
        problems.append("prediction without a mu-lambda-zero verdict")
    return problems


def _check_class_number(row, p, d, disc, omega) -> list[str]:
    h, h_val = _int(row, "class_number"), _int(row, "h_val_p")
    if h is None:
        if disc <= CLASSNO_DISC_CEILING:
            return [f"no class number at disc {disc}, at or below {CLASSNO_DISC_CEILING}"]
        if h_val is not None or not row["notes"]:
            return ["missing class number without a note"]
        return []
    problems = []
    if h < 1 or h_val != sympy.multiplicity(p, h):
        problems.append("h_val_p is not v_p(h)")
    if h % 2 ** (omega - 1):
        problems.append(f"2^{omega - 1} does not divide h = {h} (genus theory)")
    if disc < ORACLE_DISC_LIMIT and h != slow_class_number(d):
        problems.append(f"h = {h} differs from the slow class number")
    return problems


def check_search(text: str) -> list[str]:
    return [] if text == "no solutions\n" else [f"prime-power search printed {text!r}"]


def check_pair(n: int, text: str) -> list[str]:
    """`gseq pair n` must print the G_n and F_n that the recurrence gives."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # G_n has about 0.38 n digits
    try:
        expected = "G={} F={}\n".format(*slow_pell(n))
    finally:
        sys.set_int_max_str_digits(limit)
    return [] if text == expected else [f"G_{n}, F_{n} differ from the recurrence"]


class Checker:
    """Checks whole passes; a row's verdict is kept by its exact text."""

    def __init__(self):
        self._rows: dict[str, list[str]] = {}

    def row_problems(self, line: str, row: dict[str, str]) -> list[str]:
        if line not in self._rows:
            try:
                self._rows[line] = check_row(row)
            except (KeyError, ValueError) as exc:
                self._rows[line] = [f"unreadable row: {exc!r}"]
        return self._rows[line]

    def check_pass(self, commands: tuple[Command, ...],
                   results: list[tuple[object, str]]) -> tuple[int, list[str]]:
        """(failed operations, problems) of one pass; results[i] = (exit code, stdout)."""
        failed: set = set()
        problems: list[str] = []
        for i, (cmd, (code, out)) in enumerate(zip(commands, results)):
            where = " ".join(cmd.argv)
            if code != 0:
                failed |= {(i, c) for c in cmd.cells} or {(i,)}
                problems.append(f"{where}: exit {code}")
            elif cmd.cells:
                for cell, probs in self._scan_problems(cmd, out).items():
                    if probs:
                        failed.add((i, cell))
                        problems += [f"{where} {cell}: {msg}" for msg in probs]
            else:
                probs = (check_search(out) if cmd.argv[1] == "search"
                         else check_pair(int(cmd.argv[2]), out))
                if probs:
                    failed.add((i,))
                    problems += [f"{where}: {msg}" for msg in probs]
        return len(failed), problems

    def _scan_problems(self, cmd: Command, out: str) -> dict[tuple, list[str]]:
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        if not lines or tuple(next(csv.reader(lines[:1]))) != COLUMNS:
            return {cell: ["missing or unexpected CSV header"] for cell in cmd.cells}
        found: dict[tuple, list[str]] = {}
        strays = []
        for line in lines[1:]:
            row = dict(zip(COLUMNS, next(csv.reader([line]))))
            try:
                cell = (int(row["p"]), int(row["r"]), int(row["m"]))
            except (KeyError, ValueError):
                cell = None
            if cell in found or cell not in cmd.cells:
                strays.append(line)
            else:
                found[cell] = self.row_problems(line, row)
        if strays:
            # a scan that prints rows outside its grid got the whole grid wrong
            return {cell: [f"repeated or stray row {strays[0]!r}"] for cell in cmd.cells}
        return {cell: found.get(cell, ["row missing"]) for cell in cmd.cells}
