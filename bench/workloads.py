"""The benchmark's workloads: fixed lists of `pellrat` commands.

A workload is the list of commands one pass runs.  Every command is fixed;
the seed only shuffles the order in which a pass issues them.  Why each
grid was chosen is recorded in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GSEQ_DEPTH = 20_000


@dataclass(frozen=True)
class Command:
    """One `pellrat` invocation and the rows (p, r, m) a scan must print.

    ``cells`` is empty for a `gseq` call, which counts as one operation.
    """

    argv: tuple[str, ...]
    cells: tuple[tuple[int, int, int], ...] = ()

    @property
    def operations(self) -> int:
        return len(self.cells) or 1


def m_bound_floor(p: int, r: int) -> int:
    """floor((1 + C(q, 2)) * p**(q - r) / 2**q) with q = p**(r - 1), in integers."""
    q = p ** (r - 1)
    return (1 + math.comb(q, 2)) * p ** (q - r) >> q


def scan_one(p: int, r_lo: int, r_hi: int) -> Command:
    argv = ("scan", "--p", str(p), "--r", f"{r_lo}..{r_hi}", "--m", "one")
    return Command(argv, tuple((p, r, 1) for r in range(r_lo, r_hi + 1)))


def scan_bound(p: int, r: int) -> Command:
    ms = [m for m in range(1, m_bound_floor(p, r) + 1) if m % p]
    return Command(("scan", "--p", str(p), "--r", str(r), "--m", "bound"),
                   tuple((p, r, m) for m in ms))


def gseq_search(p: int) -> Command:
    return Command(("gseq", "search", "--p", str(p), "--max", str(GSEQ_DEPTH)))


def gseq_pair(n: int) -> Command:
    return Command(("gseq", "pair", str(n)))


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # class numbers at discriminants 1e7..1.5e9, plus four cells past the
    # 1e10 ceiling so that a ceiling change shows
    "m1_classno": (scan_one(3, 2, 9), scan_one(5, 2, 8), scan_one(7, 2, 7)),
    # many class numbers below 8e6, where per-call overhead outweighs factoring;
    # three rounds make a pass long enough (~3.5 s) to ride out the host's
    # second-long slow streaks, which halve the speed of 1-s passes
    "bound_many_small": (scan_bound(3, 3), scan_bound(5, 2)) * 3,
    # m = 1 cells past the class-number ceiling, plus the Pell sequence
    "deep_r_pell": (scan_one(3, 10, 13), scan_one(5, 7, 9), scan_one(7, 6, 7),
                    scan_one(11, 5, 6), scan_one(13, 5, 6),
                    gseq_search(3), gseq_search(5), gseq_search(7),
                    # fails every time today: G_20000 has more than 4300 digits,
                    # which Python will not print by default; counted as failed
                    gseq_pair(GSEQ_DEPTH)),
}
