import math
import random
from fractions import Fraction

import pytest

from dimgroup.errors import SchemaError
from dimgroup.supernatural import (INFINITE, FactorSequence,
                                   SupernaturalNumber, decide_ecrs,
                                   factorize, from_factors, is_prime,
                                   quotient_order)


def test_from_factors_examples():
    assert from_factors(FactorSequence((2, 2, 2))).finite_part == {2: 3}
    assert from_factors(FactorSequence((6, 10))).finite_part == {2: 2, 3: 1, 5: 1}
    assert from_factors(FactorSequence((7,))).finite_part == {7: 1}


# Reached by no command; kept here as a checked definition.
def is_p_divisible(u: SupernaturalNumber, p: int) -> bool:
    return p in u.infinite_primes


def test_is_p_divisible():
    u = SupernaturalNumber({3: 1}, frozenset([2]))
    assert is_p_divisible(u, 2)
    assert not is_p_divisible(u, 3)
    assert not is_p_divisible(SupernaturalNumber({7: 4}), 7)


def test_quotient_order_examples():
    no_inf = SupernaturalNumber({2: 5, 3: 5, 5: 2})
    assert quotient_order(no_inf, 6) == 6          # U/lU = Z/lZ
    assert quotient_order(SupernaturalNumber({}, frozenset([2])), 2) == 1
    u = SupernaturalNumber({3: 5}, frozenset([2]))
    assert quotient_order(u, 12) == 3


def quotient_order_bruteforce(u: SupernaturalNumber, l: int) -> int:
    """Independent oracle for |U/lU|.

    U/lU is cyclic, generated by the class of a deep-level generator
    g = 1/(finite part * infinite-prime-prefix); once the prefix depth
    exceeds every p-adic valuation of l the quotient stabilizes, and the
    order of [g] is the least n > 0 with n*g in lU.  Membership in lU is
    decided purely from the definition: x in lU iff x/l has denominator
    dividing the supernatural number.
    """
    fin = 1
    for p, e in u.finite_part.items():
        fin *= p ** e
    inf = 1
    for p in u.infinite_primes:
        inf *= p
    depth = l.bit_length() + 2   # deeper than any v_p(l)
    g = Fraction(1, fin * inf ** depth)
    for n in range(1, l + 1):
        if u.divides(n * g / l):
            return n
    return l


def test_quotient_order_against_bruteforce_and_properties():
    rng = random.Random(17)
    primes = [2, 3, 5, 7, 11, 13, 17]
    for _ in range(40):
        chosen = rng.sample(primes, rng.randint(1, 4))
        fin = {p: rng.randint(1, 4) for p in chosen[:-1]}
        inf = frozenset(chosen[-1:]) if rng.random() < 0.7 else frozenset()
        u = SupernaturalNumber(fin, inf - set(fin))
        for l in range(1, 31):
            q = quotient_order(u, l)
            assert q == quotient_order_bruteforce(u, l)
            assert l % q == 0
            full = all(p not in u.infinite_primes
                       for p in range(2, l + 1) if l % p == 0 and _is_prime(p))
            assert (q == l) == full
            for m in range(1, 31):
                if math.gcd(l, m) == 1:
                    assert quotient_order(u, l * m) == q * quotient_order(u, m)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_divides_membership():
    u = SupernaturalNumber({3: 2}, frozenset([2]))
    assert u.divides(Fraction(1, 9))
    assert u.divides(Fraction(1, 2 ** 30))
    assert not u.divides(Fraction(1, 27))
    assert not u.divides(Fraction(1, 5))


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
    with pytest.raises(Exception):
        from_factors(FactorSequence(()))


def test_json_round_trip():
    u = SupernaturalNumber({2: 3, 5: 1}, frozenset([7]))
    assert SupernaturalNumber.from_json(u.to_json()) == u
    assert u.to_json() == {"finite": {"2": 3, "5": 1}, "infinite": [7]}


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
    assert SupernaturalNumber.from_json(u.to_json()) == u
    assert SupernaturalNumber.from_json({"finite": {"3": "2"}}) \
        == SupernaturalNumber({3: 2})


def _random_prime(rng, bits):
    while True:
        n = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
        if is_prime(n):
            return n


def _check_factorization(n, factors):
    """Prime keys and a product of n: by unique factorization, the one
    right answer."""
    assert math.prod(p ** e for p, e in factors.items()) == n
    assert all(is_prime(p) and e >= 1 for p, e in factors.items())


def test_factorize_small_numbers():
    for n in range(1, 5000):
        _check_factorization(n, factorize(n))


def test_factorize_splits_products_of_two_30_bit_primes():
    rng = random.Random(30)
    for _ in range(8):
        p, q = _random_prime(rng, 30), _random_prime(rng, 30)
        factors = factorize(p * q)
        _check_factorization(p * q, factors)
        assert set(factors) == {p, q}


@pytest.mark.parametrize("p,e", [
    (2, 40), (1031, 2), (1031, 7), (2**31 - 1, 3), (10**18 + 3, 2),
    (2**61 - 1, 4),
])
def test_factorize_prime_powers(p, e):
    assert factorize(p ** e) == {p: e}


def test_factorize_mixed_products():
    rng = random.Random(31)
    for _ in range(8):
        parts = [_random_prime(rng, rng.randint(2, 28)) for _ in range(4)]
        n = math.prod(parts) * parts[0]
        _check_factorization(n, factorize(n))
