"""Digit-counting sequences that supply product exponents.

``thue_morse(n)`` is the parity of the number of 1 bits of n;
``rudin_shapiro(n)`` (Golay-Shapiro) is the parity of the number of
occurrences of the block ``11`` in the binary expansion of n.  Block
occurrences are counted with overlaps everywhere in this module, so
``111`` contains two ``11`` blocks; this matches the recursive
definitions and is the convention adopted for every base.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence, Union

from .errors import InputError


class ExponentKind(Enum):
    """Exponent sequence attached to a product.

    Values double as the CLI codes: ``pm-*`` kinds take values in
    {-1, +1}, the bare kinds in {0, 1}, and ``plain`` is constantly 1.
    """

    PM_THUE = "pm-t"
    ZERO_ONE_THUE = "t"
    PM_RS = "pm-v"
    ZERO_ONE_RS = "v"
    PLAIN = "plain"

    @classmethod
    def from_code(cls, code: str) -> "ExponentKind":
        for kind in cls:
            if kind.value == code:
                return kind
        raise InputError(f"unknown exponent kind {code!r}; "
                         f"expected one of {[k.value for k in cls]}")


def _check_index(n: int) -> None:
    if n < 0:
        raise InputError(f"sequence index must be nonnegative, got {n}")


def thue_morse(n: int) -> int:
    """t_n: the sum, modulo 2, of the binary digits of n."""
    _check_index(n)
    return n.bit_count() & 1


def rudin_shapiro(n: int) -> int:
    """v_n: the number, modulo 2, of overlapping ``11`` blocks in binary n.

    Equivalent to the recursion v_0 = 0, v_{2n} = v_n, v_{4n+1} = v_n,
    v_{4n+3} = 1 - v_{2n+1}; adjacent 1-bit pairs are exactly the set
    bits of ``n & (n >> 1)``.
    """
    _check_index(n)
    return (n & (n >> 1)).bit_count() & 1


def block_parity(word: Union[str, Sequence[int]], base: int, n: int) -> int:
    """Parity of the number of overlapping occurrences of ``word`` in the
    base-``base`` digits of n.

    ``word`` is a nonempty digit string (or sequence of digit values) with
    every digit in [0, base).  The expansion of 0 is the single digit 0.
    ``block_parity("1", 2, n)`` equals ``thue_morse(n)`` and
    ``block_parity("11", 2, n)`` equals ``rudin_shapiro(n)``.
    """
    if base < 2:
        raise InputError(f"base must be >= 2, got {base}")
    _check_index(n)
    if isinstance(word, str):
        try:
            w = [int(ch) for ch in word]
        except ValueError:
            raise InputError(f"malformed digit word {word!r}") from None
    else:
        w = list(word)
    if not w:
        raise InputError("digit word must be nonempty")
    for d in w:
        if not 0 <= d < base:
            raise InputError(f"digit {d} out of range for base {base}")

    digits = []
    m = n
    while m:
        digits.append(m % base)
        m //= base
    if not digits:
        digits = [0]
    digits.reverse()

    count = 0
    k = len(w)
    for i in range(len(digits) - k + 1):
        if digits[i:i + k] == w:
            count += 1
    return count & 1


def exponent(kind: ExponentKind, n: int) -> int:
    """Uniform exponent access: the value of the kind's sequence at n."""
    _check_index(n)
    if kind is ExponentKind.PLAIN:
        return 1
    if kind is ExponentKind.PM_THUE:
        return 1 - 2 * thue_morse(n)
    if kind is ExponentKind.ZERO_ONE_THUE:
        return thue_morse(n)
    if kind is ExponentKind.PM_RS:
        return 1 - 2 * rudin_shapiro(n)
    if kind is ExponentKind.ZERO_ONE_RS:
        return rudin_shapiro(n)
    raise InputError(f"unknown kind {kind!r}")


def prefix_signed_sum(kind: ExponentKind, count: int) -> int:
    """Exact partial sum of the +-1 exponents over n = 0 .. count-1."""
    if kind not in (ExponentKind.PM_THUE, ExponentKind.PM_RS):
        raise InputError(f"prefix_signed_sum requires a pm kind, got {kind}")
    if count <= 0:
        raise InputError(f"count must be positive, got {count}")
    return sum(exponent(kind, n) for n in range(count))
