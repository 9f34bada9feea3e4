"""Slow, independently coded reference implementations.

Everything here favors directness over speed: plain trial division, a
brute-force unit search that walks v upward, and a quadratic-form counter
that scans the whole (a, b) box instead of enumerating divisors.  The
production code must agree with these on every overlapping input.  The
file also holds the checks of the paper's lemmas that only the tests run,
and the reader of a row's Greenberg note.

Functions that need `pellrat` import it inside their bodies, so that
importing this file stays light.
"""

import functools
import math


def trial_factor(n: int) -> dict[int, int]:
    """Complete factorization by unbounded trial division."""
    assert n >= 1
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def slow_perfect_power(n: int):
    """(x, d) with n = x**d and d maximal, or None: d is the gcd of the
    exponents of n's trial-division factorization."""
    fs = trial_factor(n)
    d = math.gcd(*fs.values())
    if d < 2:
        return None
    return math.prod(p ** (e // d) for p, e in fs.items()), d


def squarefree_split(n: int) -> tuple[int, int]:
    """(b, d) with n = b*b*d and d squarefree, by trial factorization."""
    b = d = 1
    for q, e in trial_factor(n).items():
        b *= q ** (e // 2)
        if e % 2:
            d *= q
    return b, d


def brute_fundamental_unit(d: int) -> tuple[int, int, int]:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(d)), as
    (u, v, den), found by brute force.

    The sqrt(d) coefficient of a unit > 1 is w/2 for some w >= 1 (w even
    on the integer lattice, w odd only when half-integers exist), and it
    strictly increases with the unit, so scanning w upward and returning
    the first hit is exhaustive.  Practical for d up to a few hundred.
    """
    half = d % 4 == 1
    w = 0
    while True:
        w += 1
        candidates = []
        if w % 2 == 0:
            v = w // 2
            target = d * v * v
            for delta in (-1, 1):
                u = math.isqrt(target + delta)
                if u * u == target + delta:
                    candidates.append((u, v, 1))
        elif half:
            # (u + w sqrt d)/2 with u odd and u^2 - d w^2 = +-4
            target = d * w * w
            for delta in (-4, 4):
                u = math.isqrt(target + delta)
                if u * u == target + delta and u % 2:
                    candidates.append((u, w, 2))
        if candidates:
            return min(candidates)


def state_table_fundamental_unit(d: int) -> tuple[int, int, int]:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(d)), as
    (u, v, den), by the slow route: the continued fraction of the standard
    generator, with every (P, Q) state kept in a table.

    The first repeated state closes the primitive period, and the
    convergent matrices around the cycle fix the generator, producing the
    unit as an eigenvalue.  Practical far beyond the brute force.
    """
    s = math.isqrt(d)
    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    # convergent matrix M_n = [[p_{n-1}, p_{n-2}], [q_{n-1}, q_{n-2}]]
    p1, p0 = 1, 0
    q1, q0 = 0, 1
    seen: dict[tuple[int, int], tuple[int, int, int, int, int]] = {}
    step = 0
    while (P, Q) not in seen:
        seen[(P, Q)] = (step, p1, p0, q1, q0)
        a = (P + s) // Q
        p1, p0 = a * p1 + p0, p1
        q1, q0 = a * q1 + q0, q1
        P = a * Q - P
        Q = (d - P * P) // Q
        step += 1
    i, a1, _, b1, _ = seen[(P, Q)]
    det = -1 if i % 2 else 1
    # T = M_i^{-1} M_step fixes alpha_i; its bottom row gives the unit
    c = det * (-b1 * p1 + a1 * q1)
    d0 = det * (-b1 * p0 + a1 * q0)
    # (c*P + d0*Q + c*sqrt(d))/Q, cut down to the canonical den in {1, 2}
    u, v, den = c * P + d0 * Q, c, Q
    g = math.gcd(math.gcd(u, v), den)
    return abs(u // g), abs(v // g), den // g


def brute_unit_norm(d: int) -> int:
    u, v, den = brute_fundamental_unit(d)
    return (u * u - d * v * v) // (den * den)


# ---------------------------------------------------------------------------
# indefinite binary quadratic forms, the slow way


def _is_reduced(a: int, b: int, c: int, disc: int) -> bool:
    # |sqrt(disc) - 2|a|| < b < sqrt(disc), all comparisons exact
    if b <= 0:
        return False
    if b * b >= disc:
        return False
    t = 2 * abs(a) - b
    lo_ok = t < 0 or t * t < disc  # sqrt(disc) > 2|a| - b
    t = 2 * abs(a) + b
    hi_ok = t * t > disc  # sqrt(disc) < 2|a| + b
    return lo_ok and hi_ok


def slow_reduced_forms(disc: int) -> set[tuple[int, int, int]]:
    """Every reduced form of the given discriminant, by scanning the
    whole coefficient box |a| < sqrt(disc), 0 < b < sqrt(disc)."""
    assert disc > 0 and disc % 4 in (0, 1) and math.isqrt(disc) ** 2 != disc
    s = math.isqrt(disc)
    forms = set()
    for a in range(-s - 1, s + 2):
        if a == 0:
            continue
        for b in range(1, s + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c != 0 and _is_reduced(a, b, c, disc):
                forms.add((a, b, c))
    return forms


def by_b_reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """Every reduced form of the given discriminant, sorted, by factoring
    (disc - b**2)/4 with `intkit.factor` once per admissible b.

    The production code's former enumerator: every divisor of m_b inside
    the reduction window, with no sieve and no pairing of d with m_b/d,
    so it stays independent of `classno.reduced_forms`' half walk.
    """
    from pellrat import intkit

    assert disc > 0 and disc % 4 in (0, 1) and math.isqrt(disc) ** 2 != disc
    s = math.isqrt(disc)
    forms = []
    for b in range(2 - disc % 2, s + 1, 2):
        m = (disc - b * b) // 4
        fct = intkit.factor(m) if m > 1 else None
        assert fct is None or fct.complete, m
        for dv in intkit.divisors_of(fct) if fct else [1]:
            if s - b < 2 * dv <= s + b:
                forms.append((dv, b, -(m // dv)))
                forms.append((-dv, b, m // dv))
    forms.sort()
    return forms


def full_range_counts(disc: int) -> list[int]:
    """n_b, the number of reduced forms (a, b, c) with a > 0, at
    b = top - 2k for k = 0, 1, ..., where top is the largest b <= isqrt(disc)
    with b = disc mod 2: read off the whole list of `by_b_reduced_forms`,
    which takes every divisor inside its reduction window.  The walk of
    `classno.reduced_forms` would check the half walk against itself.
    """
    s = math.isqrt(disc)
    top = s - ((s ^ disc) & 1)
    counts = [0] * ((top + 1) >> 1)
    for a, b, _ in by_b_reduced_forms(disc):
        if a > 0:
            counts[(top - b) >> 1] += 1
    return counts


def decimal_distance_sum(disc: int):
    """The distance sum sum_b n_b * log2((sqrt(disc) + b)/(sqrt(disc) - b))
    as a `Decimal` in bits, worked to 50 digits, with n_b from
    `full_range_counts`: no fixed point, no running product and no walk of
    `classno`.  sqrt(disc) - b >= 1/(2 sqrt(disc)) costs the difference at
    most 11 of the 50 digits below disc = 10**10, so the result is good to
    far below 2**-64 bits.
    """
    from decimal import Decimal, localcontext

    s = math.isqrt(disc)
    top = s - ((s ^ disc) & 1)
    with localcontext() as ctx:
        ctx.prec = 50
        root = Decimal(disc).sqrt()
        total = Decimal(0)
        for k, n in enumerate(full_range_counts(disc)):
            if n:
                b = top - 2 * k
                total += n * ((root + b) / (root - b)).ln()
        return total / Decimal(2).ln()


def rho_reduce(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """One reduction step (a, b, c) -> (c, b', c'), the discriminant taken
    from the form itself.

    b' is the unique residue of -b mod 2|c| inside the window
    (sqrt(disc) - 2|c|, sqrt(disc)); on reduced forms rho steps along the
    form's cycle.  The former production step, kept for the walk below.
    """
    a, b, c = f
    disc = b * b - 4 * a * c
    s = math.isqrt(disc) if disc > 0 else 0
    if disc <= 0 or disc % 4 not in (0, 1) or s * s == disc:
        raise ValueError(f"{f} has discriminant {disc}, not a positive nonsquare")
    b_next = s - (s + b) % (2 * abs(c))
    return c, b_next, (b_next * b_next - disc) // (4 * c)


def in_principal_cycle(f: tuple[int, int, int]) -> bool:
    """Whether f reduces, by `rho_reduce` steps, onto a cycle that holds a
    form (+-1, b, c).

    For a discriminant with a unit of norm -1 the principal cycle holds
    both (1, b, c) and (-1, b, c), so this tells whether f's class is the
    principal one.
    """
    a, b, c = f
    disc = b * b - 4 * a * c
    while not _is_reduced(*f, disc):
        f = rho_reduce(f)
    start = f
    while abs(f[0]) != 1:
        f = rho_reduce(f)
        if f == start:
            return False
    return True


def walk_narrow_class_number(disc: int) -> int:
    """Number of rho-cycles of `classno.reduced_forms(disc)`, by walking them.

    The production code's former route.  Each cycle starts at a form popped
    from the pending set, and each rho step removes the form it reaches
    until the walk is back at the start.  A step to a form that is neither
    pending nor the start left the reduced set or ran into another cycle:
    rho is a permutation, so that is a bug.
    """
    from pellrat import classno
    from pellrat.errors import DefectError

    pending = set(classno.reduced_forms(disc))
    cycles = 0
    while pending:
        start = pending.pop()
        cycles += 1
        g = rho_reduce(start)
        while g != start:
            try:
                pending.remove(g)
            except KeyError:
                raise DefectError(f"rho stepped from the cycle of {start} "
                                  f"to {g}, which is not pending") from None
            g = rho_reduce(g)
    return cycles


def slow_rho(form: tuple[int, int, int], disc: int) -> tuple[int, int, int]:
    """One reduction step: (a, b, c) -> (c, b', (b'^2 - disc)/(4c))."""
    _, b, c = form
    s = math.isqrt(disc)
    ac = abs(c)
    assert ac <= s, "rho applied to a form outside the reduced range"
    # largest b' = -b mod 2|c| with b' <= floor(sqrt(disc))
    bp = -b + 2 * ac * ((b + s) // (2 * ac))
    return c, bp, (bp * bp - disc) // (4 * c)


def slow_narrow_class_number(disc: int) -> int:
    """Count rho-cycles among the reduced forms."""
    pending = slow_reduced_forms(disc)
    cycles = 0
    while pending:
        start = pending.pop()
        cycles += 1
        cur = slow_rho(start, disc)
        while cur != start:
            pending.discard(cur)
            cur = slow_rho(cur, disc)
    return cycles


def slow_minus_one_norm(disc: int) -> bool:
    """True when a unit of norm -1 exists: the principal cycle then
    contains a reduced form with leading coefficient -1."""
    s = math.isqrt(disc)
    b0 = s if (s - disc) % 2 == 0 else s - 1
    start = (1, b0, (b0 * b0 - disc) // 4)
    assert _is_reduced(*start, disc)
    cur = slow_rho(start, disc)
    seen = {start}
    while cur not in seen:
        seen.add(cur)
        cur = slow_rho(cur, disc)
    return any(a == -1 for a, _, _ in seen)


def slow_class_number(d: int) -> int:
    """Class number of Q(sqrt(d)) for squarefree d >= 2."""
    disc = d if d % 4 == 1 else 4 * d
    h_plus = slow_narrow_class_number(disc)
    if slow_minus_one_norm(disc):
        return h_plus
    assert h_plus % 2 == 0
    return h_plus // 2


# ---------------------------------------------------------------------------
# the paper's lemmas on the family fields


def binom_valuation(p: int, l: int, i: int) -> int:
    """p-adic valuation of binomial(p**l, i) for 1 <= i <= p**l.

    Equals l - valuation(i, p); no binomial coefficient is ever expanded.
    """
    from pellrat import intkit

    if l < 1:
        raise ValueError("l must be >= 1")
    if not 1 <= i <= p**l:
        raise ValueError("need 1 <= i <= p**l")
    return l - intkit.valuation(i, p)


def lemma_n1_congruence(fam) -> bool:
    """(b*sqrt(d) + 1)**(p-1) = 2**(p-1) mod the square of the family prime.

    Holds for every m = 1 family field; False is a defect signal.
    """
    from pellrat import padic
    from pellrat.quadfield import element

    if fam.m != 1:
        raise ValueError("the congruence route needs m = 1")
    p = fam.p
    emb = padic.family_embedding(fam, k=2)
    gen = element(fam.field, 1, fam.b)
    lhs = pow(padic.embed(gen, emb), p - 1, p * p)
    rhs = pow(2, p - 1, p * p)
    return lhs == rhs


def gen_fib(a: int, n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1, F_{n+2} = 2a F_{n+1} + F_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x, y = 0, 1
    for _ in range(n):
        x, y = y, 2 * a * y + x
    return x


def fib_unit_equivalence(t, p: int) -> bool:
    """Both sides of: t**(p-1) = 1 mod p**2  iff  p**2 divides a (t = a + b*sqrt(d)).

    Requires norm(t) = -1 and p | a.  The left side runs in the quotient
    ring, the right side is a plain integer valuation; True means the two
    independent routes agree (False would be a defect signal).
    """
    from pellrat import intkit, padic
    from pellrat.quadfield import qi_norm

    if p < 3 or p % 2 == 0 or not intkit.is_prime(p):
        raise ValueError("p must be an odd prime")
    if qi_norm(t) != -1:
        raise ValueError("t must have norm -1")
    if t.u == 0 or intkit.valuation(t.u, p) < 1:
        raise ValueError("p must divide the rational part of t")
    left = padic.power_is_one_mod(t, p - 1, p * p)
    right = intkit.valuation(t.u, p) >= 2
    return left == right


# ---------------------------------------------------------------------------
# Pell numbers, directly from the recurrence


@functools.lru_cache(maxsize=8)
def slow_pell(n: int) -> tuple[int, int]:
    """(G_n, F_n) for any integer n via the linear recurrence x' = 2x + x''.

    Memoized: a checker that compares every pass's `gseq pair n` with this
    value walks the recurrence once per n, not once per pass.
    """
    if n >= 0:
        g0, f0 = 1, 0  # n = 0
        g1, f1 = 1, 1  # n = 1
        if n == 0:
            return g0, f0
        for _ in range(n - 1):
            g0, g1 = g1, 2 * g1 + g0
            f0, f1 = f1, 2 * f1 + f0
        return g1, f1
    # run the recurrence backwards: x_{n-1} = x_{n+1} - 2 x_n
    g0, f0 = 1, 0
    g1, f1 = 1, 1
    for _ in range(-n):
        g0, g1 = g1 - 2 * g0, g0
        f0, f1 = f1 - 2 * f0, f0
    return g0, f0


def slow_prime_power_hits(p: int, n_max: int) -> list[tuple[int, int]]:
    """(n, e) with G_n = p**e and e >= 2 for 0 <= n <= n_max: G from the
    recurrence, each value tested by repeated division by p."""
    hits = []
    g0, g1 = 1, 1
    for n in range(n_max + 1):
        x, e = g0, 0
        while x % p == 0:
            x, e = x // p, e + 1
        if x == 1 and e >= 2:
            hits.append((n, e))
        g0, g1 = g1, 2 * g1 + g0
    return hits


def slow_least_g_multiple(p: int) -> int | None:
    """The least n >= 0 with p | G_n, or None if there is none.

    G is streamed exactly from the recurrence.  The pair (G_n, G_(n+1)) mod
    p moves by an invertible map, so it is periodic from (1, 1); a period
    that passes no multiple of p shows that no G_n is one.
    """
    g0, g1 = 1, 1
    n = 0
    while True:
        if g0 % p == 0:
            return n
        g0, g1 = g1, 2 * g1 + g0
        n += 1
        if (g0 % p, g1 % p) == (1, 1):
            return None


def addition_identity_check(l: int, m: int) -> bool:
    """G_{l+m} == 2*G_m*G_l - (-1)**m * G_{l-m}, checked exactly."""
    from pellrat.pellseq import pell_pair

    lhs = pell_pair(l + m).g
    rhs = 2 * pell_pair(m).g * pell_pair(l).g - (-1) ** (m & 1) * pell_pair(l - m).g
    return lhs == rhs


def pair_reduce(l: int, r: int) -> tuple[int, int]:
    """One step of the index-pair reduction used by the gcd argument.

    Maps (l, r) to (max(|l - 2r|, r), min(|l - 2r|, r)); the gcd of the
    G-values at the two indices is preserved.  Arguments are put in
    l >= r >= 0 order first.
    """
    if l < 0 or r < 0:
        raise ValueError("indices must be >= 0")
    if l < r:
        l, r = r, l
    a = abs(l - 2 * r)
    return (max(a, r), min(a, r))


def g_gcd_oracle(l: int, m: int) -> int:
    """gcd(G_l, G_m) computed directly on the values."""
    from pellrat.pellseq import pell_pair

    if l < 1 or m < 1:
        raise ValueError("indices must be >= 1")
    return math.gcd(pell_pair(l).g, pell_pair(m).g)


def inconclusive_reason(row) -> str | None:
    """The <reason> of a row's `greenberg inconclusive: <reason>` note, or None."""
    prefix = "greenberg inconclusive: "
    reasons = [note[len(prefix):] for note in row.notes if note.startswith(prefix)]
    assert len(reasons) <= 1, row.notes
    return reasons[0] if reasons else None
