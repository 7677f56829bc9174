"""Integer layer: the primality test's proven range and factorization."""

from quadpencil.intutil import factorint, is_prime

# psi_12, the least strong pseudoprime to the first 12 prime bases 2..37
# (Sorenson and Webster, Math. Comp. 86, 2017), far below the proven bound.
PSI_12 = 318665857834031151167461
PSI_12_FACTORS = (399165290221, 798330580441)


def test_is_prime_rejects_psi_12():
    p, q = PSI_12_FACTORS
    assert p * q == PSI_12
    assert not is_prime(PSI_12)
    assert is_prime(p) and is_prime(q)


def test_factorint_splits_psi_12():
    p, q = PSI_12_FACTORS
    assert factorint(PSI_12) == {p: 1, q: 1}
    assert factorint(-41 * 41 * PSI_12) == {41: 2, p: 1, q: 1}


def test_is_prime_small_values():
    primes = [n for n in range(200) if all(n % d for d in range(2, n)) and n > 1]
    assert [n for n in range(200) if is_prime(n)] == primes
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
