"""Exact rational scalars.

Every quantity in this package is an exact rational in lowest terms.  No
float ever enters a comparison; predicates are decided by integer
arithmetic inside the rational type.  gmpy2.mpq is used when available
(roughly an order of magnitude faster than fractions.Fraction), with
Fraction as a drop-in fallback.
"""
from __future__ import annotations

from typing import Callable

from .errors import DomainError, ParameterError

try:  # pragma: no cover - exercised implicitly by the whole suite
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)

Scalar = Q  # alias for annotations; instances are gmpy2.mpq (or Fraction)


def as_scalar(x) -> "Q":
    """Coerce int, str, Fraction, or scalar to the exact rational type.

    Strings accept "p/q", integer literals, and exact decimal literals
    ("0.15" -> 3/20).  Floats are rejected: a float argument is almost
    always an accidental precision leak.  A rational of the scalar type
    comes back as itself: it is immutable, so a copy would only cost time
    and keep two equal objects alive where one would do.
    """
    if type(x) is Q:
        return x
    if isinstance(x, float):
        raise DomainError("floats are not accepted; pass a string or rational")
    try:
        return Q(x)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"not a rational scalar: {x!r}") from exc


# bits of a computed numerator or denominator that every backend can
# write (CPython's 4,300-digit int-string limit is about 14,284 bits)
_MAX_BITS = 14_000


def scalar_str(x) -> str:
    """Canonical text form: 'p/q' in lowest terms, or bare 'p' for integers.

    Raises ParameterError when the text cannot be written, as it does on
    the Fraction backend for integers past CPython's int-string digit
    limit (``serialize.parse_scalar`` reads such text the same way).
    """
    try:
        return str(x) if type(x) is Q else str(Q(x))
    except ValueError as e:
        raise ParameterError(f"cannot write rational: {e}") from None


def is_dyadic(x) -> bool:
    d = int(Q(x).denominator)
    return d & (d - 1) == 0


def largest_dyadic_where(pred: Callable[["Q"], bool], k_max: int = 200) -> "Q":
    """Largest t = 2^-k (k >= 1) with pred(t) true.

    pred must be monotone: true at t implies true at every smaller dyadic.
    Raises if no admissible k <= k_max exists; callers pass predicates that
    hold for all sufficiently small t, so exhaustion means a caller bug.
    """
    t = Q(1, 2)
    for _ in range(k_max):
        if pred(t):
            return t
        t = t / 2
    raise DomainError("no admissible dyadic scale found (predicate never true)")
