"""Supernatural numbers: rank-one subgroups of Q and the ECRS dichotomy.

A noncyclic subgroup U of the rationals is described up to isomorphism by a
supernatural number: a prime -> multiplicity map where multiplicities may be
infinite.  Infinite multiplicities are carried as an explicit prime set, so
genuinely infinite objects are represented by finite data; arbitrary infinite
supports with finite multiplicities are approximated by prefixes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Sequence

from .errors import SchemaError
from .realization import echo, json_int, json_ints, parsing

INFINITE = "infinite"  # sentinel for infinite rank / index values

# Miller-Rabin with the primes up to 41 as bases has no strong pseudoprime
# below 3,317,044,064,679,887,385,961,981 (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality: exact for n below 3.3 * 10^24, a strong
    probable-prime test to the same bases above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Trial division runs through the divisors below this bound; gcd
# refinement takes the cofactors it leaves.
_TRIAL_BOUND = 1 << 10
_TRIAL_DIVISORS = (2, *range(3, _TRIAL_BOUND, 2))


def factorize(xs: Sequence[int]) -> list[tuple[int, int, bool]]:
    """A factorization of prod(xs) into pairwise-coprime factors above 1:
    (factor, exponent, is_prime(factor)) triples sorted by factor.

    Trial division below _TRIAL_BOUND takes out the small primes.  The
    cofactors it leaves are refined by gcds alone (Bernstein, "Factoring
    into coprimes in essentially linear time", J. Algorithms 54, 2005, in
    its naive quadratic form): two factors a, b with g = gcd(a, b) > 1
    become g, a/g and b/g until the factors are pairwise coprime.  So the
    cost is polynomial in the digits, not in the prime factors.  A factor
    above _TRIAL_BOUND^2 that no other input splits may be composite; an x
    below that bound is split into primes."""
    small: dict[int, int] = {}
    todo: list[tuple[int, int]] = []
    for n in xs:
        if n < 1:
            raise ValueError(f"cannot factor {n}")
        for d in _TRIAL_DIVISORS:
            if d * d > n:
                break
            while n % d == 0:
                small[d] = small.get(d, 0) + 1
                n //= d
        # n is 1, a prime below _TRIAL_BOUND, or free of such primes
        if n >= _TRIAL_BOUND:
            todo.append((n, 1))
        elif n > 1:
            small[n] = small.get(n, 0) + 1
    # Each split lowers the product of the values held, so this stops.
    coprime: dict[int, int] = {}
    while todo:
        a, e = todo.pop()
        for b in coprime:
            g = math.gcd(a, b)
            if g > 1:
                f = coprime.pop(b)
                todo += [(x, k) for x, k in ((g, e + f), (a // g, e),
                                             (b // g, f)) if x > 1]
                break
        else:
            coprime[a] = e
    return [(x, e, is_prime(x))
            for x, e in sorted({**small, **coprime}.items())]


class SupernaturalNumber(namedtuple("SupernaturalNumber",
                                    "finite_part infinite_primes")):
    """finite_part: prime -> positive multiplicity (a dict, copied; empty
    when omitted); infinite_primes: multiplicity oo (a frozenset)."""

    __slots__ = ()

    def __new__(cls, finite_part: dict[int, int] | None = None,
                infinite_primes: Iterable[int] = ()):
        finite_part = {} if finite_part is None else dict(finite_part)
        infinite_primes = frozenset(infinite_primes)
        overlap = set(finite_part) & infinite_primes
        if overlap:
            raise SchemaError(
                f"primes {echo(sorted(overlap))} both finite and infinite")
        small = [p for p in (*finite_part, *infinite_primes) if p < 2]
        if small:
            raise SchemaError(
                f"primes must be at least 2, got {echo(sorted(small))}")
        composite = [p for p in (*finite_part, *infinite_primes)
                     if not is_prime(p)]
        if composite:
            raise SchemaError(
                f"keys must be prime, got {echo(sorted(composite))}")
        for p, e in finite_part.items():
            if e <= 0:
                raise SchemaError(f"multiplicity of {p} must be positive, got {e}")
        return super().__new__(cls, finite_part, infinite_primes)

    @classmethod
    def from_json(cls, obj: dict) -> "SupernaturalNumber":
        with parsing("supernatural number"):
            # dict.get and dict.items raise TypeError on anything but an object
            finite = dict.items(dict.get(obj, "finite", {}))
            return cls({json_int(p): json_int(e) for p, e in finite},
                       json_ints(dict.get(obj, "infinite", [])))


class FactorSequence(namedtuple("FactorSequence", "factors")):
    """Ordered finite prefix p_2, p_3, ... of telescoped factors, each > 1,
    stored as a tuple.  Its length and iteration are those of the factors."""

    __slots__ = ()

    def __new__(cls, factors: Iterable[int]):
        factors = tuple(factors)
        odd = [p for p in factors
               if not isinstance(p, int) or isinstance(p, bool)]
        if odd:
            raise SchemaError(
                f"every factor must be an integer, got {echo(odd[0])}")
        if any(p <= 1 for p in factors):
            raise SchemaError("every factor must exceed 1")
        return super().__new__(cls, factors)

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


def _ge(a, b) -> bool:
    """a >= b where either side may be the INFINITE sentinel."""
    if a == INFINITE:
        return True
    if b == INFINITE:
        return False
    return a >= b


class EcrsDecision(namedtuple("EcrsDecision", "exists size bounded reason")):
    """size: exact, INFINITE if unbounded, None if unknown or absent."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "size": self.size if not isinstance(self.size, int) else str(self.size),
            "bounded": self.bounded,
            "reason": self.reason,
        }


def decide_ecrs(rank_g: int | str, u: SupernaturalNumber,
                lam: int | str) -> EcrsDecision:
    """The ECRS existence dichotomy for (G, H) with tau(G) of supernatural
    number u, lam = |tau(G)/tau(H)| and rank_g = rank G (INFINITE allowed).

    With an infinite-multiplicity prime present, a realization always exists
    and can be made bounded exactly when lam is finite.  Without one, a
    realization exists iff rank G <= lam, and every bounded one has size lam.
    """
    if rank_g != INFINITE and int(rank_g) < 1:
        raise ValueError("rank must be >= 1")
    if u.infinite_primes:
        if lam == INFINITE:
            return EcrsDecision(True, INFINITE, False, "p-divisible-unbounded")
        return EcrsDecision(True, None, True, "p-divisible-bounded")
    if not _ge(lam, rank_g):
        return EcrsDecision(False, None, None, "rank-exceeds-index")
    if lam == INFINITE:
        return EcrsDecision(True, INFINITE, False, "index-infinite-unbounded")
    return EcrsDecision(True, int(lam), True, "size-equals-index")
