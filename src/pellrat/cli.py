"""Command-line surface: single-cell reports, grid scans, Pell helpers.

Scan output is a deterministic function of the grid: one serial pass
computes the rows in (p, r, m) order, data rows carry no timestamps, and
run metadata lives on a single '#' comment line (CSV only).

Exit codes: 0 success, 1 usage or validation, 2 factorization incomplete
in single-cell mode, 3 precision exhausted in single-cell mode, 4 I/O
failure on the output, the --cache file or a closed stdout.  Scans exit 0
on per-row failures, which `compute_record` turns into notes on the rows.
Each refusal raises `CommandError` where it is found, and only `entrypoint`
turns a failure into its code and an `error: <message>` line on stderr;
any other exception, `DefectError` above all, is a crash.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from collections import Counter
from collections.abc import Iterator
from typing import NamedTuple

from . import classno, intkit, invariants, padic, pellseq
from .errors import IncompleteFactorization, PrecisionExhausted
from .invariants import ScanRecord, null_record
# fundamental_unit is unused since the field context owns eps; bench/test_bench.py
# reads cli.fundamental_unit to check that the bench's spans wrap every binding
from .quadfield import (check_cell, construct_family, fundamental_unit,  # noqa: F401
                        m_bound_floor, m_bound_satisfied)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FACTOR = 2
EXIT_PRECISION = 3
EXIT_IO = 4


class CommandError(Exception):
    """A refused command: `entrypoint` prints `error: <message>` and returns ``code``."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# the library failures that are exit codes; only `field` lets them through
_EXIT_CODES = {IncompleteFactorization: EXIT_FACTOR, PrecisionExhausted: EXIT_PRECISION}


class PipelineOptions(NamedTuple):
    precision_cap: int = padic.DEFAULT_PRECISION_CAP
    classno_ceiling: int = classno.DEFAULT_DISC_CEILING


class FactorCache:
    """Radicand factoring at one effort, cached in a plain-text file: one
    line per entry, `N p1^e1 p2^e2`.

    Loaded whole at construction; appends are flushed line by line.  A
    crash can leave only the last line unterminated: loading drops that
    tail and truncates the file to its last newline.  Only complete
    factorizations are stored.  Invalid complete lines fail loudly, as a
    usage error: a cache that lies is worse than no cache.  A missing file
    is an empty cache; one that cannot be read or appended to is an I/O
    failure.  With no file nothing is kept: rows share a radicand only
    when m * p**r repeats across primes.
    """

    def __init__(self, path: str | None, effort: int = intkit.DEFAULT_FACTOR_EFFORT):
        self.path = path
        self.effort = effort
        self._table: dict[int, intkit.Factorization] = {}
        if path is None:
            return
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise CommandError(f"cannot read {path}: {exc}", EXIT_IO)
        end = data.rfind(b"\n") + 1
        if end < len(data):
            os.truncate(path, end)
        try:
            text = data[:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CommandError(f"cache {path} is not UTF-8 text: {exc}")
        for line in text.splitlines():
            if line.strip():
                self._load_line(line)

    def _load_line(self, line: str):
        parts = line.split()
        try:
            value = int(parts[0])
            tokens = [tok.partition("^") for tok in parts[1:]]
            pairs = [(int(base), int(exp) if exp else 1) for base, _, exp in tokens]
        except ValueError:
            raise CommandError(f"bad line in cache {self.path}: {line!r}")
        prod = 1
        for q, e in pairs:
            if not intkit.is_prime(q) or e < 1:
                raise CommandError(f"bad cache entry for {value} in {self.path}: {q}^{e}")
            prod *= q**e
        if prod != value:
            raise CommandError(f"cache line for {value} in {self.path} does not multiply out")
        self._table[value] = intkit.Factorization(
            value=value, factors=tuple(pairs), complete=True)

    def get(self, n: int) -> intkit.Factorization | None:
        return self._table.get(n)

    def put(self, f: intkit.Factorization):
        if self.path is None or not f.complete or f.value in self._table:
            return
        self._table[f.value] = f
        line = " ".join([str(f.value), *(f"{q}^{e}" for q, e in f.factors)])
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            raise CommandError(f"cannot write {self.path}: {exc}", EXIT_IO)

    def factor(self, n: int) -> intkit.Factorization:
        hit = self.get(n)
        if hit is not None:
            return hit
        f = intkit.factor(n, self.effort)
        self.put(f)
        return f


# ---------------------------------------------------------------------------
# scan records


FIELD_NAMES = ScanRecord._fields

# columns rendered as arbitrary-precision decimal strings in JSON
_BIG_FIELDS = {"N", "b", "D", "disc", "class_number", "an_prediction"}


def compute_record(p: int, r: int, m: int, opts: PipelineOptions,
                   cache: FactorCache, strict: bool = False) -> ScanRecord:
    """Run the whole pipeline on one grid cell and return its row.

    With ``strict`` (single-cell mode) an incomplete factorization or an
    exhausted precision cap propagates, for the exit-code contract.
    Otherwise each becomes a note on the row: a radicand left unfactored
    gives the null row, and an exhausted cap leaves null residue orders.
    """
    try:
        fam = construct_family(p, r, m, factor_fn=cache.factor)
    except IncompleteFactorization:
        if strict:
            raise
        return null_record(p, r, m)
    ctx = invariants.field_context(fam, opts.classno_ceiling, opts.precision_cap, strict)
    return invariants.build_report(ctx)


def _csv_cell(name: str, value) -> str:
    if value is None:
        return ""
    if name == "unit":
        return ":".join(str(c) for c in value)
    if name == "notes":
        return ";".join(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def record_to_json_obj(rec: ScanRecord) -> dict:
    obj = {}
    for name in FIELD_NAMES:
        value = getattr(rec, name)
        if name == "unit":
            obj[name] = None if value is None else {
                "u": str(value[0]), "v": str(value[1]), "den": str(value[2])}
        elif name == "notes":
            obj[name] = list(value)
        elif name in _BIG_FIELDS:
            obj[name] = None if value is None else str(value)
        else:
            obj[name] = value
    return obj


def render_csv(records: list[ScanRecord], meta: str | None = None) -> str:
    """A header row and one row per record; ``meta`` becomes a leading '#' line.

    The '#' line is written as is, not as a CSV row: it echoes arguments
    such as ``--p 3,5,7`` that the writer would quote.
    """
    buf = io.StringIO()
    if meta is not None:
        buf.write(f"# {meta}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIELD_NAMES)
    writer.writerows([_csv_cell(name, getattr(rec, name)) for name in FIELD_NAMES]
                     for rec in records)
    return buf.getvalue()


def render_json(rows: ScanRecord | list[ScanRecord]) -> str:
    """One record as a JSON object, a list of them as an array."""
    import json  # only --format json needs it; every start pays for a top-level import

    obj = (record_to_json_obj(rows) if isinstance(rows, ScanRecord)
           else [record_to_json_obj(rec) for rec in rows])
    return json.dumps(obj, indent=2) + "\n"


def render_human(rec: ScanRecord) -> str:
    lines = []
    for name in FIELD_NAMES:
        value = getattr(rec, name)
        if name == "notes":
            shown = ";".join(value) if value else "(none)"
        else:
            shown = _csv_cell(name, value) if value is not None else "null"
        lines.append(f"{name} = {shown}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CommandError(f"cannot write {out}: {exc}", EXIT_IO)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # spec'd contract reserves exit 1 for usage errors; argparse's default is 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CommandError(message)


def _checked(fn, *args):
    """``fn(*args)``, a library call whose ValueError is a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise CommandError(str(exc))


def _strict_int(text: str) -> int:
    # int() strips whitespace, which the CSV's '#' line would echo as is
    if text.split() != [text]:
        raise ValueError(text)
    return int(text)


def _parse_p_list(text: str) -> list[int]:
    try:
        ps = [_strict_int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise CommandError(f"bad --p list: {text!r}")
    if not ps:
        raise CommandError("--p list is empty")
    for p in ps:
        _checked(intkit.check_odd_prime, p)
    return sorted(set(ps))


def _parse_r_range(text: str) -> range:
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = _strict_int(lo_s), _strict_int(hi_s)
        except ValueError:
            raise CommandError(f"bad --r range: {text!r}")
    else:
        try:
            lo = hi = _strict_int(text)
        except ValueError:
            raise CommandError(f"bad --r value: {text!r}")
    if lo < 2 or hi < lo:
        raise CommandError(f"--r range must satisfy 2 <= a <= b, got {text!r}")
    rs = range(lo, hi + 1)
    if len(rs) > M_BOUND_MAX:
        raise CommandError(f"--r range must hold <= {M_BOUND_MAX} values, got {len(rs)}")
    return rs


# The most rows `scan` takes along one axis.  `--r` refuses a range of more
# values, and `--m bound` a cell whose floor(m_bound) is above it: that
# admits (3, 4), whose floor(m_bound) is 246,900 and which prints 164,600
# rows, but not (5, 3) with about 1.7e10 rows, and `--m N` still reaches
# any single m
M_BOUND_MAX = 10**6


# `gseq pair n` refuses |n| above this, and `gseq gcd` an answer G_n with n
# above it.  G_n has about 0.383 * |n| decimal digits, and computing and
# printing the pair grows faster than n: with Python 3.11 on a 2-core
# machine, n = 10**6 takes about 2.4 s and n = 3 * 10**6 about 40 s
PAIR_N_MAX = 10**6


def _m_values(policy: str | int, p: int, r: int) -> Iterator[int]:
    # "one", "bound" or a parsed m; lazily, so that no list of
    # floor(m_bound) values is ever built
    if policy == "one":
        yield 1
    elif policy == "bound":
        yield from (m for m in range(1, m_bound_floor(p, r) + 1) if m % p != 0)
    elif policy % p != 0:
        yield policy


@functools.cache  # one parser per process: `entrypoint` may run many commands
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pellrat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def pipeline_flags(sp):
        sp.add_argument("--factor-effort", type=int, default=intkit.DEFAULT_FACTOR_EFFORT,
                        help="trial-division / rho budget (default %(default)s)")
        sp.add_argument("--precision-cap", type=int, default=padic.DEFAULT_PRECISION_CAP,
                        help="max base-p digits for valuations (default %(default)s)")
        sp.add_argument("--classno-ceiling", type=int, default=classno.DEFAULT_DISC_CEILING,
                        help="skip class numbers above this discriminant (default %(default)s)")
        sp.add_argument("--cache", default=None, help="factorization cache file")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    fp = sub.add_parser("field", help="full pipeline on a single (p, r, m) cell")
    fp.add_argument("--p", required=True, type=int)
    fp.add_argument("--r", required=True, type=int)
    fp.add_argument("--m", type=int, default=1)
    pipeline_flags(fp)

    sp = sub.add_parser("scan", help="evidence table over a (p, r, m) grid")
    sp.add_argument("--p", required=True, help="comma-separated odd primes")
    sp.add_argument("--r", required=True, help="single value or a..b inclusive")
    sp.add_argument("--m", default="one", help="'one', 'bound', or an explicit integer")
    pipeline_flags(sp)

    gp = sub.add_parser("gseq", help="Pell sequence helpers")
    gsub = gp.add_subparsers(dest="gseq_command", required=True)
    pairp = gsub.add_parser("pair", help="print G_n and F_n")
    pairp.add_argument("n", type=int)
    gcdp = gsub.add_parser("gcd", help="gcd(G_l, G_m) by the closed form")
    gcdp.add_argument("l", type=int)
    gcdp.add_argument("m", type=int)
    searchp = gsub.add_parser("search", help="scan G_n for perfect prime powers p^e, e >= 2")
    searchp.add_argument("--p", required=True, type=int)
    searchp.add_argument("--max", required=True, type=int, dest="n_max")
    return parser


# ---------------------------------------------------------------------------
# subcommands


def _options_from(args) -> PipelineOptions:
    if args.factor_effort < 0:
        raise CommandError("--factor-effort must be >= 0")
    if args.precision_cap < 1:
        raise CommandError("--precision-cap must be >= 1")
    if args.classno_ceiling < 1:
        raise CommandError("--classno-ceiling must be >= 1")
    return PipelineOptions(precision_cap=args.precision_cap,
                           classno_ceiling=args.classno_ceiling)


def cmd_field(args):
    _checked(check_cell, args.p, args.r, args.m)
    opts = _options_from(args)
    cache = FactorCache(args.cache, args.factor_effort)
    rec = compute_record(args.p, args.r, args.m, opts, cache, strict=True)
    if args.format == "json":
        text = render_json(rec)
    elif args.format == "csv":
        text = render_csv([rec])
    else:
        text = render_human(rec)
    _write_output(text, args.out)


def cmd_scan(args):
    ps = _parse_p_list(args.p)
    rs = _parse_r_range(args.r)
    policy = m_arg = args.m
    if policy not in ("one", "bound"):
        try:
            m_arg = _strict_int(policy)
        except ValueError:
            raise CommandError(f"--m must be 'one', 'bound', or an integer, got {policy!r}")
        if m_arg < 1:
            raise CommandError(f"--m must be >= 1, got {m_arg}")
        if all(m_arg % p == 0 for p in ps):  # no cell would be left to scan
            raise CommandError(f"m must be coprime to p, got m={m_arg}, "
                               f"p={','.join(map(str, ps))}")
    if policy == "bound":
        for p in ps:
            for r in rs:
                if m_bound_satisfied(p, r, M_BOUND_MAX + 1):
                    raise CommandError(f"--m bound: floor(m_bound({p}, {r})) exceeds "
                                       f"{M_BOUND_MAX}; use --m N for a single m")
    opts = _options_from(args)
    cache = FactorCache(args.cache, args.factor_effort)

    # ps is sorted and rs and the m values ascend: rows come out in (p, r, m) order
    records = [compute_record(p, r, m, opts, cache)
               for p in ps for r in rs for m in _m_values(m_arg, p, r)]

    if args.format == "json":
        text = render_json(records)
    else:
        text = render_csv(records, f"pellrat scan p={args.p} r={args.r} m={policy}")
    _write_output(text, args.out)

    # each verdict column is counted on its own, as every row has both
    parts = []
    for column in ("p_rational", "greenberg"):
        tally = Counter(getattr(rec, column) for rec in records)
        parts.append(" ".join([column, *(f"{k}={v}" for k, v in sorted(tally.items()))]))
    failed = sum(1 for rec in records if rec.D is None)
    print(f"scanned {len(records)} cells: {'; '.join(parts)}; row-failures={failed}",
          file=sys.stderr)


def cmd_gseq(args):
    if args.gseq_command == "pair":
        if abs(args.n) > PAIR_N_MAX:
            raise CommandError(f"|n| must be <= {PAIR_N_MAX}, got {args.n}")
        pair = pellseq.pell_pair(args.n)
        print(f"G={pair.g} F={pair.f}")
    elif args.gseq_command == "gcd":
        g = _checked(pellseq.g_gcd_index, args.l, args.m)
        if g > PAIR_N_MAX:
            raise CommandError(f"the answer is G_{g}; its index must be <= {PAIR_N_MAX}")
        print(pellseq.pell_pair(g).g)
    else:
        if args.n_max < 1:  # the search itself accepts 0
            raise CommandError(f"--max must be >= 1, got {args.n_max}")
        hits = _checked(pellseq.prime_power_search, args.p, args.n_max)
        print("\n".join(f"HIT: G_{n} = {args.p}^{e}" for n, e in hits) or "no solutions")


def entrypoint(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; `--help` exits through argparse."""
    try:
        args = build_parser().parse_args(argv)
        # G_n and deep rows outgrow the 4300-digit int-to-str limit of Python 3.11+
        limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            {"field": cmd_field, "scan": cmd_scan, "gseq": cmd_gseq}[args.command](args)
            sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
    except (CommandError, *_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CommandError) else _EXIT_CODES[type(exc)]
    except BrokenPipeError as exc:
        # the reader closed stdout; fd 1 goes to /dev/null, or the
        # interpreter's flush of what is still buffered raises again at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(entrypoint())
