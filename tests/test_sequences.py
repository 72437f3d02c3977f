import pytest
from hypothesis import given, strategies as st

from digitprod import (ExponentKind, InputError, block_parity, exponent,
                       prefix_signed_sum, rudin_shapiro, thue_morse)

THUE_MORSE_PREFIX = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1]


def test_thue_morse_prefix():
    assert [thue_morse(n) for n in range(12)] == THUE_MORSE_PREFIX


def test_thue_morse_values():
    assert thue_morse(0) == 0
    assert thue_morse(5) == 0


def test_rudin_shapiro_values():
    assert rudin_shapiro(0) == 0
    # 3 = 11b has one overlapping 11 block; 7 = 111b has two
    assert rudin_shapiro(3) == 1
    assert rudin_shapiro(7) == 0
    assert [rudin_shapiro(n) for n in range(4)] == [0, 0, 0, 1]


def test_negative_index_rejected():
    with pytest.raises(InputError):
        thue_morse(-1)
    with pytest.raises(InputError):
        rudin_shapiro(-3)


@given(st.integers(min_value=0, max_value=2 ** 62))
def test_thue_morse_recurrence(n):
    assert thue_morse(2 * n) == thue_morse(n)
    assert thue_morse(2 * n + 1) == 1 - thue_morse(n)


@given(st.integers(min_value=0, max_value=2 ** 60))
def test_rudin_shapiro_recurrence(n):
    assert rudin_shapiro(2 * n) == rudin_shapiro(n)
    assert rudin_shapiro(4 * n + 1) == rudin_shapiro(n)
    assert rudin_shapiro(4 * n + 3) == 1 - rudin_shapiro(2 * n + 1)


def test_rudin_shapiro_matches_block_count():
    # direct count of overlapping "11" in the binary string
    for n in range(2 ** 12):
        bits = bin(n)[2:]
        count = sum(1 for i in range(len(bits) - 1) if bits[i:i + 2] == "11")
        assert rudin_shapiro(n) == count % 2


def test_block_parity_examples():
    assert block_parity("1", 2, 6) == 0  # 110b has two ones
    assert block_parity("2", 3, 5) == 1  # 12 in base 3
    assert block_parity([1, 1], 2, 7) == 0


def test_block_parity_matches_named_sequences():
    for n in range(4096):
        assert block_parity("1", 2, n) == thue_morse(n)
        assert block_parity("11", 2, n) == rudin_shapiro(n)


def test_block_parity_rejects_bad_digits():
    with pytest.raises(InputError):
        block_parity("2", 2, 5)
    with pytest.raises(InputError):
        block_parity("", 2, 5)
    with pytest.raises(InputError):
        block_parity("1", 1, 5)


def test_exponent_dispatch():
    assert exponent(ExponentKind.PM_THUE, 0) == 1
    assert exponent(ExponentKind.PM_THUE, 1) == -1
    assert exponent(ExponentKind.ZERO_ONE_RS, 3) == 1
    assert exponent(ExponentKind.PLAIN, 12345) == 1
    assert exponent(ExponentKind.ZERO_ONE_THUE, 5) == thue_morse(5)
    assert exponent(ExponentKind.PM_RS, 7) == 1 - 2 * rudin_shapiro(7)


def test_prefix_signed_sum_thue():
    assert prefix_signed_sum(ExponentKind.PM_THUE, 2) == 0
    for k in range(1, 17):
        assert prefix_signed_sum(ExponentKind.PM_THUE, 2 ** k) == 0


def test_prefix_signed_sum_matches_block_parity():
    for count in (1, 2, 3, 100, 257):
        for kind, word in ((ExponentKind.PM_THUE, "1"), (ExponentKind.PM_RS, "11")):
            assert prefix_signed_sum(kind, count) == sum(
                1 - 2 * block_parity(word, 2, n) for n in range(count))


def test_prefix_signed_sum_rejects_other_kinds():
    with pytest.raises(InputError):
        prefix_signed_sum(ExponentKind.PLAIN, 10)
    with pytest.raises(InputError):
        prefix_signed_sum(ExponentKind.ZERO_ONE_THUE, 10)


def test_kind_codes_round_trip():
    for kind in ExponentKind:
        assert ExponentKind.from_code(kind.value) is kind
    with pytest.raises(InputError):
        ExponentKind.from_code("bogus")


@pytest.mark.parametrize("call", [
    lambda: prefix_signed_sum(ExponentKind.PM_THUE, 0),
    lambda: block_parity("1x", 2, 5),
    lambda: exponent("pm-t", 3),  # a kind's code is not an ExponentKind
], ids=["zero-count", "malformed-word", "kind-code-string"])
def test_validation_raises_input_error(call):
    with pytest.raises(InputError) as info:
        call()
    assert info.type is InputError
