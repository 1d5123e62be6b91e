"""Supernatural numbers: rank-one subgroups of Q and the ECRS dichotomy.

A noncyclic subgroup U of the rationals is described up to isomorphism by a
supernatural number: a prime -> multiplicity map where multiplicities may be
infinite.  Infinite multiplicities are carried as an explicit prime set, so
genuinely infinite objects are represented by finite data; arbitrary infinite
supports with finite multiplicities are approximated by prefixes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import SchemaError
from .realization import echo, json_int, json_list, parsing

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


# Trial division runs through the divisors below this bound; is_prime,
# perfect-power roots and Pollard-Brent rho take what it leaves.
_TRIAL_BOUND = 1 << 10
_TRIAL_DIVISORS = (2, *range(3, _TRIAL_BOUND, 2))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization, at a cost polynomial in the digits of n in
    practice rather than in n: trial division below _TRIAL_BOUND, then
    is_prime and _split on the cofactor."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for d in _TRIAL_DIVISORS:
        if d * d > n:
            if n > 1:
                out[n] = out.get(n, 0) + 1
            return out
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
    else:
        for f in _split(n):
            for p, e in factorize(f).items():
                out[p] = out.get(p, 0) + e
    return out


def _split(n: int) -> list[int]:
    """Factors of a composite n with no prime factor below _TRIAL_BOUND,
    each above 1, multiplying to n: the root r, k times, when n = r^k, and
    otherwise a divisor that Pollard-Brent rho finds and its cofactor.  Rho
    alone would take about sqrt(r) steps on a square r^2."""
    # every prime factor exceeds _TRIAL_BOUND = 2^10, so r^k has over 10k bits
    for k in range(2, n.bit_length() // 10 + 1):
        r = _iroot(n, k)
        if r ** k == n:
            return [r] * k
    f = _rho_divisor(n)
    return [f, n // f]


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of
    Pollard's rho (Brent 1980): iterate x -> x^2 + c mod n, batching the
    differences into one gcd every 128 steps, and move to the next c on
    the rare run whose cycle closes mod n itself."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:      # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@dataclass(frozen=True)
class SupernaturalNumber:
    """finite_part: prime -> positive multiplicity; infinite_primes: multiplicity oo."""

    finite_part: dict[int, int] = field(default_factory=dict)
    infinite_primes: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "finite_part", dict(self.finite_part))
        object.__setattr__(self, "infinite_primes", frozenset(self.infinite_primes))
        overlap = set(self.finite_part) & self.infinite_primes
        if overlap:
            raise SchemaError(
                f"primes {echo(sorted(overlap))} both finite and infinite")
        small = [p for p in (*self.finite_part, *self.infinite_primes) if p < 2]
        if small:
            raise SchemaError(
                f"primes must be at least 2, got {echo(sorted(small))}")
        composite = [p for p in (*self.finite_part, *self.infinite_primes)
                     if not is_prime(p)]
        if composite:
            raise SchemaError(
                f"keys must be prime, got {echo(sorted(composite))}")
        for p, e in self.finite_part.items():
            if e <= 0:
                raise SchemaError(f"multiplicity of {p} must be positive, got {e}")

    def multiplicity(self, p: int):
        if p in self.infinite_primes:
            return INFINITE
        return self.finite_part.get(p, 0)

    def divides(self, x: Fraction) -> bool:
        """Whether x lies in the subgroup of Q with this supernatural number,
        i.e. the denominator of x fits under the multiplicities."""
        for p, e in factorize(x.denominator).items():
            m = self.multiplicity(p)
            if m != INFINITE and e > m:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "finite": {str(p): e for p, e in sorted(self.finite_part.items())},
            "infinite": sorted(self.infinite_primes),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SupernaturalNumber":
        with parsing("supernatural number"):
            # dict.get and dict.items raise TypeError on anything but an object
            finite = dict.items(dict.get(obj, "finite", {}))
            return cls({json_int(p): json_int(e) for p, e in finite},
                       [json_int(p)
                        for p in json_list(dict.get(obj, "infinite", []))])


@dataclass(frozen=True)
class FactorSequence:
    """Ordered finite prefix p_2, p_3, ... of telescoped factors, each > 1."""

    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(p) for p in self.factors))
        if any(p <= 1 for p in self.factors):
            raise SchemaError("every factor must exceed 1")

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


def from_factors(seq: FactorSequence | Sequence[int]) -> SupernaturalNumber:
    """Supernatural number of the product of a finite factor prefix."""
    factors = list(seq)
    if not factors:
        raise SchemaError("empty factor sequence")
    acc: dict[int, int] = {}
    for p in factors:
        for q, e in factorize(p).items():
            acc[q] = acc.get(q, 0) + e
    return SupernaturalNumber(acc)


def quotient_order(u: SupernaturalNumber, l: int) -> int:
    """|U/lU|: primes of l with finite multiplicity in U contribute fully,
    infinite-multiplicity primes contribute 1 (multiplication by them is an
    automorphism of U)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    out = 1
    for p, e in factorize(l).items():
        if p not in u.infinite_primes:
            out *= p ** e
    return out


def _ge(a, b) -> bool:
    """a >= b where either side may be the INFINITE sentinel."""
    if a == INFINITE:
        return True
    if b == INFINITE:
        return False
    return a >= b


@dataclass(frozen=True)
class EcrsDecision:
    exists: bool
    size: int | str | None   # exact size, INFINITE for unbounded, None if unknown/absent
    bounded: bool | None
    reason: str

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
