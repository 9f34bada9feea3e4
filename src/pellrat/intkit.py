"""Exact integer primitives: primality, factorization, symbols, valuations,
and the one square-and-multiply loop that the ring powers share.

Everything here is pure and deterministic.  The factoring budget is an
explicit argument so callers can trade effort for completeness; an
unfinished factorization is representable (``complete=False``), not fatal.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

from .errors import IncompleteFactorization

isqrt = math.isqrt

# Trial division inside factor() scans this far before handing the cofactor
# to rho; on a rho miss it resumes scanning up to the caller's bound.
_FAST_TRIAL_BOUND = 10_000

DEFAULT_FACTOR_EFFORT = 10**6


def primes_up_to(n: int) -> list[int]:
    """The primes <= n in ascending order, by the sieve of Eratosthenes
    over the odd numbers alone: entry i stands for 2i + 1.

    >>> primes_up_to(20)
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return []
    half = (n + 1) >> 1  # the odd numbers 1, 3, ... up to n
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (isqrt(n) + 1) >> 1):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p >> 1  # the entry of p*p; p*(p + 2) is p entries on
            sieve[start::p] = bytes(len(range(start, half, p)))
    return [2, *itertools.compress(range(1, n + 1, 2), sieve)]


# The primes below _FAST_TRIAL_BOUND, sieved once: factor() divides by them,
# and every other small prime here is a prefix of them.
_TRIAL_PRIMES = primes_up_to(_FAST_TRIAL_BOUND)

_SMALL_PRIMES = _TRIAL_PRIMES[:25]  # the primes to 97

# Strong-pseudoprime bases making the test deterministic below 3.317e24.
_MR_BASES = _TRIAL_PRIMES[:12]  # the primes to 37


def is_prime(n: int) -> bool:
    """Strong-pseudoprime test to the twelve prime bases up to 37.

    A proof of primality only for n < 3.317e24.  Above that bound it is a
    strong-probable-prime test, and radicand factors do cross it:
    ``factor(5**44 + 1)`` lists a 28-digit prime.  Proven primality there
    is ROADMAP item 6.

    >>> is_prime(41)
    True
    >>> is_prime(1)
    False
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime: the family's one rule on p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1.

    >>> jacobi(82, 3)
    1
    >>> jacobi(2, 3)
    -1
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol requires positive odd n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _square_flags(z: int) -> bytes:
    flags = bytearray(z)
    for x in range(z):
        flags[x * x % z] = 1
    return bytes(flags)


# (z, flags) for the odd primes z in _SMALL_PRIMES, flags[r] = 1 when r is a
# square mod z, which `_non_residue` reads (z/p) = (p/z) off; 0 counts as a
# square, so a z that divides a composite p is passed over, never taken for
# a non-square
_SQUARES_MOD = tuple((z, _square_flags(z)) for z in _SMALL_PRIMES[1:])


def _non_residue(p: int) -> int | None:
    """The least non-square mod the prime p = 1 mod 8, or None when p
    shows itself composite.

    The least non-square is a prime, and it is odd as 2 is a square mod p.
    For an odd prime z, (z/p) = (p/z) since p = 1 mod 4, so the primes up
    to 97 are tried by looking p mod z up among the squares mod z, with no
    power.  Past them Euler's criterion takes over: z**((p - 1)/2) is -1
    for a non-square and 1 for a square, and anything else proves p
    composite (at the latest at the first z that shares a factor with p).
    """
    for z, squares in _SQUARES_MOD:
        if not squares[p % z]:
            return z
    z, half = _SMALL_PRIMES[-1] + 2, (p - 1) >> 1
    while (euler := pow(z, half, p)) != p - 1:
        if euler != 1:
            return None
        z += 2
    return z


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None when a is not a
    square mod p; the root of 0 is 0.

    One power of a finds the root or shows there is none, so no separate
    Euler test is needed.  For p = 3 mod 4 the root is a**((p + 1)/4), and for
    p = 5 mod 8 Atkin's a*v*(2a*v**2 - 1) with v = (2a)**((p - 5)/8); either
    is a root exactly when it squares back to a.  For p = 1 mod 8, with
    p - 1 = q * 2**m and q odd, x = a**((q - 1)/2) gives both t = a**q = a*x**2
    and Tonelli-Shanks's first guess a*x = a**((q + 1)/2), whose square is
    a*t.  a is a square exactly when t**(2**(m - 1)) = 1; the loop then
    corrects the guess by powers of z**q for the non-square z of
    `_non_residue` until t = 1, keeping root**2 = a*t throughout.  So a
    root returned squares back to a for any odd modulus, and a composite p
    gives a root or None, never an endless loop.

    >>> sqrt_mod(10, 13) in (6, 7)
    True
    >>> sqrt_mod(5, 13) is None
    True
    """
    a %= p
    if a == 0:
        return 0
    if p & 7 != 1:
        if p & 3 == 3:
            root = pow(a, (p + 1) >> 2, p)
        else:
            v = pow(2 * a, (p - 5) >> 3, p)
            root = a * v * (2 * a * v * v - 1) % p
        return root if root * root % p == a else None
    q = p - 1
    m = (q & -q).bit_length() - 1
    q >>= m
    x = pow(a, q >> 1, p)
    t = a * x * x % p
    root = a * x % p
    c = None
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:  # t's order is 2**m: a is no square (or p is composite)
                return None
        if c is None:
            z = _non_residue(p)
            if z is None:
                return None
            c = pow(z, q, p)
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        root = root * b % p
    return root


def binary_power(mul, one, x, e: int):
    """x**e for an int e >= 0 by square-and-multiply, where ``mul`` is the
    product and ``one`` its identity; e = 0 gives ``one`` itself.

    >>> binary_power(lambda a, b: a * b % 1000, 1, 7, 10)
    249
    """
    if e < 0:  # e >> 1 stays -1, so the loop would never end
        raise ValueError("exponent must be >= 0")
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:  # the square past the top bit would go unused
            x = mul(x, x)
    return result


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError("valuation base must be >= 2")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _iroot(n: int, k: int) -> int:
    # floor of the k-th root of n >= 1 for k >= 2, Newton from an overestimate
    if k == 2:
        return math.isqrt(n)
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def perfect_power(n: int):
    """(x, d) with n == x**d and d maximal (so x is not itself a power),
    or None when n is not a perfect power.

    >>> perfect_power(59049)
    (3, 10)
    >>> perfect_power(10) is None
    True
    """
    if n < 2:
        raise ValueError("perfect_power requires n >= 2")
    x, d = n, 1
    for q in primes_up_to(n.bit_length()):
        r = _iroot(x, q)
        while r**q == x:  # the same prime can divide d again
            x, d = r, d * q
            r = _iroot(x, q)
    return (x, d) if d >= 2 else None


class Factorization(NamedTuple):
    """Outcome of a budgeted factorization.

    ``factors`` lists (prime, exponent) pairs sorted by prime; each listed
    prime passed the primality test.  ``complete`` is True iff the product
    of the listed powers equals ``value``; otherwise ``cofactor`` carries
    the unresolved composite part.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    complete: bool

    @property
    def cofactor(self) -> int:
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        return self.value // prod


def _brent_rho(n: int, budget: int):
    # Brent's cycle variant; seeding from n keeps every run reproducible.
    rng = random.Random(0x5EED ^ n)
    spent = 0
    while spent < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # a sign flip leaves gcd(q, n) as it is
                spent += steps
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


def _trial_scan(n: int, lo: int, hi: int):
    # resume trial division past _TRIAL_PRIMES over the 6k+-1 wheel in (lo, hi]
    hi = min(hi, isqrt(n))
    q = lo - lo % 6 + 5
    while q <= hi:
        if n % q == 0:
            return q
        if n % (q + 2) == 0 and q + 2 <= hi:
            return q + 2
        q += 6
    return None


def factor(n: int, effort: int = DEFAULT_FACTOR_EFFORT) -> Factorization:
    """Factor n by trial division up to ``effort`` plus seeded Brent rho.

    ``effort`` bounds both the trial-division limit and the rho iteration
    count per cofactor.  Composite cofactors that survive the budget leave
    ``complete=False``; primality of everything listed is always certified.

    >>> factor(730).factors
    ((2, 1), (5, 1), (73, 1))
    """
    if n < 2:
        raise ValueError("factor requires n >= 2")
    if effort < 0:
        raise ValueError("effort must be >= 0")
    counts: dict[int, int] = {}
    rem = n
    fast_bound = min(effort, _FAST_TRIAL_BOUND)
    for q in _TRIAL_PRIMES:
        if q > fast_bound or q * q > rem:
            break
        while rem % q == 0:
            counts[q] = counts.get(q, 0) + 1
            rem //= q

    leftovers: list[int] = []
    stack = [rem] if rem > 1 else []
    while stack:
        m = stack.pop()
        # no factor up to fast_bound survived the scan above, so a small m is prime
        if m <= fast_bound * fast_bound or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        pp = perfect_power(m)
        if pp is not None:
            base, d = pp
            stack.extend([base] * d)
            continue
        g = _brent_rho(m, effort) if effort > 0 else None
        if g is None:
            g = _trial_scan(m, fast_bound, effort)
        if g is None:
            leftovers.append(m)
            continue
        stack.append(g)
        stack.append(m // g)

    ordered = tuple(sorted(counts.items()))
    return Factorization(value=n, factors=ordered, complete=not leftovers)


def divisors_of(f: Factorization) -> list[int]:
    """All positive divisors from a complete factorization, sorted.

    >>> divisors_of(factor(12))
    [1, 2, 3, 4, 6, 12]
    """
    if not f.complete:
        raise IncompleteFactorization(f"cannot enumerate divisors of {f.value}")
    divs = [1]
    for p, e in f.factors:
        block = divs
        for _ in range(e):
            block = [d * p for d in block]
            divs = divs + block
    return sorted(divs)


def squarefree_decompose(n: int,
                         factorization: Factorization | None = None) -> tuple[int, int]:
    """Write n = b**2 * d with d squarefree; returns (b, d).

    Reads ``factorization`` when given, else factors n at the default
    effort.  Requires a complete factorization and raises
    IncompleteFactorization otherwise, because squarefreeness of the
    cofactor cannot be certified.

    >>> squarefree_decompose(325)
    (5, 13)
    """
    if n < 1:
        raise ValueError("squarefree_decompose requires n >= 1")
    if n == 1:
        return 1, 1
    f = factorization if factorization is not None else factor(n)
    if f.value != n:
        raise ValueError("factorization is for a different value")
    if not f.complete:
        raise IncompleteFactorization(
            f"factorization of {n} incomplete within budget")
    b = 1
    d = 1
    for p, e in f.factors:
        b *= p ** (e // 2)
        if e % 2:
            d *= p
    return b, d


def is_wieferich(p: int) -> bool:
    """True iff 2**(p-1) == 1 mod p**2 (p an odd prime).

    >>> is_wieferich(1093)
    True
    """
    if p < 2 or not is_prime(p):
        raise ValueError("is_wieferich requires a prime")
    return pow(2, p - 1, p * p) == 1
