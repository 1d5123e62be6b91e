import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dimgroup.errors import SchemaError
from dimgroup.supernatural import (INFINITE, FactorSequence,
                                   SupernaturalNumber, decide_ecrs,
                                   factorize, is_prime)


# Reached by no command; kept here as a checked definition.
def is_p_divisible(u: SupernaturalNumber, p: int) -> bool:
    return p in u.infinite_primes


# The JSON form that SupernaturalNumber.from_json reads; no command writes it.
def to_json(u: SupernaturalNumber) -> dict:
    return {
        "finite": {str(p): e for p, e in sorted(u.finite_part.items())},
        "infinite": sorted(u.infinite_primes),
    }


def test_is_p_divisible():
    u = SupernaturalNumber({3: 1}, frozenset([2]))
    assert is_p_divisible(u, 2)
    assert not is_p_divisible(u, 3)
    assert not is_p_divisible(SupernaturalNumber({7: 4}), 7)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_decide_ecrs_examples():
    no_inf = SupernaturalNumber({2: 3, 5: 2})
    d = decide_ecrs(3, no_inf, 2)
    assert d.exists is False and d.reason == "rank-exceeds-index"

    d = decide_ecrs(2, SupernaturalNumber({}, frozenset([2])), 1)
    assert d.exists is True and d.bounded is True

    d = decide_ecrs(2, no_inf, 5)
    assert d.exists is True and d.size == 5


def test_decide_ecrs_infinite_cases():
    inf_group = SupernaturalNumber({3: 1}, frozenset([2]))
    assert decide_ecrs(INFINITE, inf_group, INFINITE).exists
    assert decide_ecrs(INFINITE, inf_group, INFINITE).bounded is False
    assert decide_ecrs(5, inf_group, 2).exists   # no rank constraint here
    no_inf = SupernaturalNumber({3: 1})
    assert decide_ecrs(INFINITE, no_inf, 7).exists is False
    assert decide_ecrs(INFINITE, no_inf, INFINITE).exists is True


def test_factor_sequence_validation():
    with pytest.raises(Exception):
        FactorSequence((1, 2))


@pytest.mark.parametrize("odd", [7.9, 7.0, "13", True, Fraction(7), None])
def test_factor_sequence_rejects_non_integers(odd):
    # int() would truncate 7.9 to 7 and build a realization for p = 7.
    with pytest.raises(SchemaError, match="every factor must be an integer"):
        FactorSequence((odd, 13))
    with pytest.raises(SchemaError, match="every factor must be an integer"):
        FactorSequence((13, odd))


def test_factor_sequence_keeps_integers():
    assert FactorSequence([7, 13]).factors == (7, 13)
    assert list(FactorSequence((7, 2 ** 80 + 1))) == [7, 2 ** 80 + 1]


def test_json_round_trip():
    u = SupernaturalNumber({2: 3, 5: 1}, frozenset([7]))
    assert SupernaturalNumber.from_json(to_json(u)) == u
    assert to_json(u) == {"finite": {"2": 3, "5": 1}, "infinite": [7]}


@pytest.mark.parametrize("finite,infinite", [
    ({1: 2}, ()), ({0: 1}, ()), ({}, (1,)), ({}, (-2,)), ({2: 1}, (0, 3)),
])
def test_supernatural_number_keys_are_at_least_two(finite, infinite):
    with pytest.raises(SchemaError, match="at least 2"):
        SupernaturalNumber(finite, frozenset(infinite))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20000) if is_prime(n)] == \
        [n for n in range(-3, 20000) if _is_prime(n)]


@pytest.mark.parametrize("n", [
    # the least strong pseudoprimes to the first 1, 2, ..., 12 prime bases
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    # Carmichael numbers and products of two large primes
    561, 41041, 825265, (2**61 - 1) * (2**89 - 1), (2**127 - 1) ** 2,
])
def test_is_prime_rejects_composites_that_fool_weaker_tests(n):
    assert not is_prime(n)


@pytest.mark.parametrize("p", [2**61 - 1, 10**18 + 3, 2**127 - 1,
                               2**521 - 1])
def test_is_prime_accepts_large_primes(p):
    assert is_prime(p)


@pytest.mark.parametrize("finite,infinite", [
    ({4: 1}, ()), ({}, (91,)), ({2: 1}, (2047,)), ({561: 1}, (3,)),
])
def test_supernatural_number_keys_are_prime(finite, infinite):
    with pytest.raises(SchemaError, match="prime"):
        SupernaturalNumber(finite, frozenset(infinite))


@pytest.mark.parametrize("obj", [
    {"finite": {"2": 1.5}}, {"finite": {"2": True}}, {"finite": {"2.0": 1}},
    {"infinite": [2.0]}, {"finite": [["2", 1]]}, {"infinite": 2}, [2],
    {"infinite": "23"}, {"infinite": {"2": 1}},
])
def test_supernatural_number_json_is_parsed_strictly(obj):
    with pytest.raises(SchemaError):
        SupernaturalNumber.from_json(obj)


def test_supernatural_number_json_round_trip():
    u = SupernaturalNumber({2: 3, 5: 1}, frozenset([7]))
    assert SupernaturalNumber.from_json(to_json(u)) == u
    assert SupernaturalNumber.from_json({"finite": {"3": "2"}}) \
        == SupernaturalNumber({3: 2})


def _random_prime(rng, bits):
    while True:
        n = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
        if is_prime(n):
            return n


def _trial_division(n):
    """Prime factorization by trial division to the square root."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _check_factorization(xs, factors):
    """Pairwise-coprime factors above 1, flagged by is_prime, in order,
    whose powers multiply to the product of xs."""
    assert [x for x, _, _ in factors] == sorted({x for x, _, _ in factors})
    assert all(x > 1 and e >= 1 and prime == is_prime(x)
               for x, e, prime in factors)
    assert all(math.gcd(a, b) == 1
               for i, (a, _, _) in enumerate(factors)
               for b, _, _ in factors[i + 1:])
    assert math.prod(x ** e for x, e, _ in factors) == math.prod(xs)


def _primes_of(xs):
    """The prime factorization of prod(xs), as factorize writes it."""
    out = {}
    for n in xs:
        for p, e in _trial_division(n).items():
            out[p] = out.get(p, 0) + e
    return [(p, e, True) for p, e in sorted(out.items())]


@given(st.lists(st.one_of(st.integers(1, 2**20 - 1),
                          st.integers(1, 2**80)), max_size=8))
def test_factorize_is_a_coprime_factorization(xs):
    factors = factorize(xs)
    _check_factorization(xs, factors)
    if all(x < 2**20 for x in xs):
        assert factors == _primes_of(xs)


def test_factorize_small_numbers():
    for n in range(1, 5000):
        assert factorize([n]) == _primes_of([n])


def test_factorize_splits_products_of_two_30_bit_primes():
    """A product of two large primes is split by a gcd with another input
    that shares one of them."""
    rng = random.Random(30)
    for _ in range(8):
        p, q, r = (_random_prime(rng, 30) for _ in range(3))
        assert factorize([p * q]) == [(p * q, 1, False)]
        factors = factorize([p * q, p * r])
        _check_factorization([p * q, p * r], factors)
        assert factors == sorted([(p, 2, True), (q, 1, True), (r, 1, True)])


@pytest.mark.parametrize("p,e", [
    (2, 40), (1031, 2), (1031, 7), (2**31 - 1, 3), (10**18 + 3, 2),
    (2**61 - 1, 4),
])
def test_factorize_prime_powers(p, e):
    """A power of a large prime stays whole; next to its base it splits."""
    assert factorize([p ** e, p]) == [(p, e + 1, True)]
    assert factorize([p ** e]) == ([(p, e, True)] if p < 2**10
                                   else [(p ** e, 1, False)])


def test_factorize_mixed_products():
    """Each prime of the product is itself an input, so the coprime
    factors are the primes."""
    rng = random.Random(31)
    for _ in range(8):
        parts = [_random_prime(rng, rng.randint(2, 28)) for _ in range(4)]
        xs = [math.prod(parts) * parts[0], *parts]
        assert factorize(xs) == _primes_of(xs)


def test_factorize_two_64_bit_primes():
    """Products of 64-bit primes are refined by gcds, never factored."""
    q, p = 2**64 - 83, 2**64 - 59
    assert is_prime(q) and is_prime(p)
    assert factorize([p * q]) == [(p * q, 1, False)]
    assert factorize([p * q, 3 * p * p * q]) == \
        [(3, 1, True), (q, 2, True), (p, 3, True)]


def test_factorize_rejects_nonpositive_numbers():
    with pytest.raises(ValueError):
        factorize([5, 0])
