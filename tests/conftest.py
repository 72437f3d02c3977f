"""Shared helpers: random balanced rationals, independent oracles, a
guard that fails any engine or oracle work, and an oracle call recorder.

Setting HYPOTHESIS_PROFILE loads that Hypothesis profile.  The ``ci``
profile derandomizes the examples and prints the blob that replays a
failure (``@reproduce_failure``), so a failure in CI reproduces locally
with ``HYPOTHESIS_PROFILE=ci``; each test's ``max_examples`` is kept.

The oracles here never touch the accelerated evaluation paths: they sum
float64 logarithms of the raw factors directly, so they stay independent
of the dyadic-split and fixed-point machinery they are used to check.
Euler's gamma comes from an Euler-Maclaurin sum, never from
``mpmath.euler``, and the Flajolet-Martin phi from that gamma and
perfbench's Thue-Morse oracle, which shares no code with the package.
"""

import functools
import importlib.util
import math
import os
import pathlib
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from digitprod import FactoredRational, evaluator

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def popcount_parity(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values.astype(np.uint64)).astype(np.int64) & 1


def pair_parity(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    return np.bitwise_count(v & (v >> np.uint64(1))).astype(np.int64) & 1


def naive_signed_product(rational: FactoredRational, start: int, terms: int,
                         sequence: str = "t") -> float:
    """Double-precision partial product prod_{n<terms} R(n)^{(-1)^{s_n}}."""
    n = np.arange(start, terms, dtype=np.float64)
    logs = np.full_like(n, math.log(float(rational.scale)))
    for f in rational.factors:
        logs += f.multiplicity * np.log(n + float(f.offset))
    idx = np.arange(start, terms, dtype=np.uint64)
    parity = popcount_parity(idx) if sequence == "t" else pair_parity(idx)
    eps = (1 - 2 * parity).astype(np.float64)
    return math.exp(float(np.dot(eps, logs)))


def random_pm_convergent(rng: random.Random, max_pairs: int = 3) -> FactoredRational:
    """Balanced rational with distinct offsets in (0, 4], net degree zero."""
    pairs = rng.randint(1, max_pairs)
    offsets = {}
    while len(offsets) < 2 * pairs:
        den = rng.randint(1, 8)
        num = rng.randint(1, 4 * den)
        offsets[Fraction(num, den)] = 0
    keys = sorted(offsets)
    rng.shuffle(keys)
    for i, a in enumerate(keys):
        offsets[a] = 1 if i < pairs else -1
    return FactoredRational.from_offsets(offsets)


def product_of(*powers) -> FactoredRational:
    """prod r^k over the pairs (r, k), merged offset by offset in Fraction
    arithmetic; the package itself composes rationals only by ``regroup``."""
    offsets, scale = {}, Fraction(1)
    for r, k in powers:
        scale *= r.scale ** k
        for f in r.factors:
            offsets[f.offset] = offsets.get(f.offset, 0) + k * f.multiplicity
    return FactoredRational.from_offsets(offsets, scale)


def random_fully_convergent(rng: random.Random) -> FactoredRational:
    """Balanced rational with equal offset sums (p_1 = 0)."""
    while True:
        a = Fraction(rng.randint(1, 16), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 16), rng.randint(1, 4))
        c = Fraction(rng.randint(1, 16), rng.randint(1, 4))
        d = a + b - c
        if d > 0 and len({a, b, c, d}) == 4:
            return FactoredRational.from_offsets({a: 1, b: 1, c: -1, d: -1})


@pytest.fixture
def rng():
    return random.Random(20260810)


def forbid_engine_and_oracles(monkeypatch):
    """Make the engine's table and head and both oracles fail when called,
    so that a refusal is shown to come before any of that work."""
    def no_work(*args):
        raise AssertionError("worked before the refusal")
    for name in ["_scaled_table", "_head", "eval_pm_thue", "eval_pm_rs"]:
        monkeypatch.setattr(evaluator, name, no_work)


def record_oracle_calls(monkeypatch, *names):
    """Wrap each named oracle in ``evaluator``; the returned list records
    the names in call order."""
    calls = []

    def recorder(name):
        oracle = getattr(evaluator, name)

        def record(spec, opts):
            calls.append(name)
            return oracle(spec, opts)
        return record
    for name in names:
        monkeypatch.setattr(evaluator, name, recorder(name))
    return calls


@functools.lru_cache(maxsize=None)
def euler_gamma_reference(digits: int) -> mpmath.mpf:
    """Euler's gamma to ``digits`` digits, without ``mpmath.euler``:

        gamma = H_n - ln n - 1/(2n) + sum_{k>=1} B_2k / (2k n^2k),

    with n = 10 * digits, so that the terms fall far below 10^-digits
    long before the asymptotic series turns; the sum stops there, off by
    less than its first omitted term."""
    n = 10 * digits
    with mpmath.workdps(digits + 20):
        harmonic = mpmath.fsum(1 / mpmath.mpf(k) for k in range(1, n + 1))
        value = harmonic - mpmath.log(n) - mpmath.mpf(1) / (2 * n)
        threshold = mpmath.mpf(10) ** -(digits + 15)
        k = 1
        while True:
            term = mpmath.bernoulli(2 * k) / (2 * k * mpmath.mpf(n) ** (2 * k))
            if abs(term) < threshold:
                return +value
            value += term
            k += 1


def _perfbench_oracle():
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def fm_phi_reference() -> mpmath.mpf:
    """The Flajolet-Martin phi = 2^(-1/2) e^gamma (2/3) R to 320 digits,
    from ``euler_gamma_reference`` and perfbench's Thue-Morse oracle for
    R = prod_{n>=1} ((4n+1)(4n+2) / (4n(4n+3)))^((-1)^t_n) (about 4 s)."""
    digits = 320
    tm = _perfbench_oracle().ThueMorseOracle(digits, Fraction(3, 4))
    with mpmath.workdps(digits + 15):
        ratio = tm.product({Fraction(1, 4): 1, Fraction(1, 2): 1,
                            Fraction(0): -1, Fraction(3, 4): -1})
        return mpmath.exp(euler_gamma_reference(digits)) / mpmath.sqrt(2) * 2 / 3 * ratio
