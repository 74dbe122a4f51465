"""Small primality helper and the input gates of the public API.

``is_int`` is the one integer predicate, ``require_int`` its raising gate,
and ``require_prime`` the prime gate of field and window parameters.

Trial division by the thirteen primes 2..41 settles every n < 43^2; above
that, deterministic Miller-Rabin on the same thirteen bases is proven exact
for n < 3317044064679887385961981 (Sorenson & Webster, Math. Comp. 86 (2017)
985-1003; 2..37 alone fail at 318665857834031151167461); larger n raise
ValueError rather than get a guess.
"""

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n below 3.3 . 10^24; larger n raise ValueError, and no
    non-int (a float such as 7.0, or a bool) is prime."""
    if not is_int(n):
        return False
    if n >= _BOUND:
        raise ValueError(f"primality is only decided below {_BOUND}")
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # a composite this small has a prime factor below 43
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d . 2^s with d odd
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def is_int(x) -> bool:
    """The one integer predicate: an int, and not a bool (int() would read 1.7 as 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_int(x, what: str) -> None:
    """The one integer gate of the public API: raise ValueError("<what> <x!r> is not an integer")."""
    if not is_int(x):
        raise ValueError(f"{what} {x!r} is not an integer")


def require_prime(p: int) -> None:
    """The one prime gate of the public API: raise ValueError("<p> is not prime") unless p is."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
