"""Small exact integer helpers: a prime sieve, primality and the Möbius function.

The arguments met in this package are small (primes up to
`numberfield.MAX_PRIME`, Witt ranks of class at most a few dozen), so a
sieve and trial division are exact and cheap.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt


def primes_upto(n):
    """The primes p <= n, in increasing order (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return list(compress(range(n + 1), sieve))


def is_prime(n):
    """Primality by trial division over 2, 3 and 6k +- 1."""
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    for d in range(5, isqrt(n) + 1, 6):
        if n % d == 0 or n % (d + 2) == 0:
            return False
    return True


def mobius(n):
    """The Möbius function mu(n) for n >= 1, by trial division."""
    if n < 1:
        raise ValueError(f"mobius needs n >= 1, got {n}")
    sign = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign
