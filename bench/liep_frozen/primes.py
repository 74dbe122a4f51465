"""Small primality helper used to validate field and window parameters."""


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for the small primes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True
