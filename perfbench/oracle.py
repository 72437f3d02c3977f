"""Reference values and exact checks that use mpmath and the standard
library only, never ``digitprod``, so a changed engine cannot certify
itself.

* Closed forms are evaluated from trees in the ``catalog --format json``
  schema, with Gamma(1/4) from ``mpmath.gamma`` and e^gamma from
  ``mpmath.euler``.
* Thue-Morse products without a closed form, prod_{n>=1} prod_i
  (n+a_i)^(m_i (-1)^t_n), come from a scaled tail Dirichlet series: exact
  logarithms for n < M, then sum_j (-1)^(j+1) p_j / j * S(j) with power sums
  p_j = sum_i m_i a_i^j and S(s) = sum_{n>=M} (-1)^t_n n^-s.  Splitting
  n >= 2M by parity (t_2n = t_n, t_2n+1 = 1 - t_n) gives

      S(s) = sum_{M<=n<2M} (-1)^t_n n^-s - 2^-s sum_{k>=1} C(-s,k) 2^-k S(s+k),

  which is run downward in s; beyond the working bit count only the first
  sum matters.  This method shares no code or parameters with the
  package's dyadic-split evaluator.
* Symbolic reductions are checked in exact rational arithmetic against
  the relation G(x/2) - G((x+1)/2) - G(x) = log(1+x).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, Tuple

import mpmath


def thue_morse_sign(n: int) -> int:
    return -1 if bin(n).count("1") & 1 else 1


# ---------------------------------------------------------------------------
# Closed-form trees
# ---------------------------------------------------------------------------

def _rational(text: str) -> mpmath.mpf:
    q = Fraction(text)
    return mpmath.mpf(q.numerator) / q.denominator


_CONSTANTS = {
    "pi": lambda: +mpmath.pi,
    "gamma_quarter": lambda: mpmath.gamma(mpmath.mpf(1) / 4),
    "e_gamma": lambda: mpmath.exp(mpmath.euler),
}


def eval_tree(node: dict, dps: int) -> mpmath.mpf:
    """Evaluate a closed-form tree at ``dps`` digits plus guard digits."""
    with mpmath.workdps(dps + 10):
        return _eval_node(node)


def _eval_node(node: dict) -> mpmath.mpf:
    kind = node["type"]
    if kind == "rational":
        return _rational(node["value"])
    if kind == "const":
        return _CONSTANTS[node["name"]]()
    if kind == "pow":
        base = _eval_node(node["base"])
        e = Fraction(node["exponent"])
        if e.denominator == 1:
            return base ** e.numerator
        return mpmath.exp(mpmath.log(base) * e.numerator / e.denominator)
    if kind == "mul":
        return mpmath.fprod(_eval_node(f) for f in node["factors"])
    if kind == "add":
        return mpmath.fsum(_eval_node(t) for t in node["terms"])
    if kind == "sub":
        return _eval_node(node["left"]) - _eval_node(node["right"])
    if kind == "div":
        return _eval_node(node["num"]) / _eval_node(node["den"])
    raise ValueError(f"unknown closed-form node {kind!r}")


def tree_exponents(node: dict) -> Dict[int, Fraction]:
    """Prime exponents of a tree that is a rational power product."""
    kind = node["type"]
    if kind == "rational":
        return rational_exponents(Fraction(node["value"]))
    if kind == "pow":
        e = Fraction(node["exponent"])
        return _clean({p: v * e for p, v in tree_exponents(node["base"]).items()})
    if kind == "mul":
        out: Dict[int, Fraction] = {}
        for f in node["factors"]:
            for p, v in tree_exponents(f).items():
                out[p] = out.get(p, Fraction(0)) + v
        return _clean(out)
    raise ValueError(f"{kind!r} node is not a rational power product")


# ---------------------------------------------------------------------------
# Thue-Morse products by the tail Dirichlet series
# ---------------------------------------------------------------------------

class ThueMorseOracle:
    """log prod_{n>=1} prod_i (n+a_i)^(m_i (-1)^t_n) for balanced offsets.

    One table S(1..j_max) serves every product whose offsets satisfy
    |a_i| <= max_offset; building it costs about a second at 80 digits.
    """

    def __init__(self, dps: int, max_offset: Fraction, m: int = 64):
        if not 0 <= max_offset < m / 4:
            raise ValueError("offsets must stay well below the tail start M")
        self.dps = dps
        self.m = m
        ratio = max(float(max_offset), 1.0) / m
        self.j_max = int(math.ceil((dps + 15) / -math.log10(ratio))) + 2
        self.table = self._tail_table()

    def _tail_table(self) -> List[mpmath.mpf]:
        m = self.m
        with mpmath.workdps(self.dps + 15):
            bits = mpmath.mp.prec
            top = self.j_max + bits
            signs = [thue_morse_sign(n) for n in range(m, 2 * m)]
            inverse = [mpmath.mpf(1) / n for n in range(m, 2 * m)]
            powers = list(inverse)
            block = [mpmath.mpf(0)]  # block[s] = sum_{M<=n<2M} eps_n n^-s
            for _ in range(top):
                block.append(mpmath.fsum(e * p for e, p in zip(signs, powers)))
                powers = [p * x for p, x in zip(powers, inverse)]
            cutoff = mpmath.mpf(2) ** -(bits + 20)
            table = [mpmath.mpf(0)] * (top + 1)
            for s in range(top, 0, -1):
                correction = mpmath.mpf(0)
                binomial = mpmath.mpf(1)
                for k in range(1, top - s + 1):
                    binomial = binomial * (-s - k + 1) / k
                    term = binomial * table[s + k] / mpmath.mpf(2) ** k
                    correction += term
                    if abs(term) < cutoff * abs(block[s]):
                        break
                table[s] = block[s] - correction / mpmath.mpf(2) ** s
            return table[:self.j_max + 1]

    def log_product(self, offsets: Dict[Fraction, int]) -> mpmath.mpf:
        """Sum over n >= 1 of (-1)^t_n sum_i m_i log(n + a_i)."""
        if sum(offsets.values()) != 0:
            raise ValueError("offsets must be balanced (multiplicities sum to 0)")
        with mpmath.workdps(self.dps + 15):
            points = [(_rational(str(a)), mult) for a, mult in offsets.items()]
            head = mpmath.fsum(
                thue_morse_sign(n) * mult * mpmath.log(n + a)
                for n in range(1, self.m) for a, mult in points)
            tail = mpmath.mpf(0)
            powers = [mpmath.mpf(1)] * len(points)
            for j in range(1, self.j_max + 1):
                powers = [p * a for p, (a, _) in zip(powers, points)]
                pj = mpmath.fsum(p * mult for p, (_, mult) in zip(powers, points))
                sign = 1 if j % 2 else -1
                tail += sign * pj / j * self.table[j]
            return head + tail

    def product(self, offsets: Dict[Fraction, int]) -> mpmath.mpf:
        with mpmath.workdps(self.dps + 15):
            return mpmath.exp(self.log_product(offsets))

    def h(self, x: Fraction) -> mpmath.mpf:
        """h(x) = f(x/2, (x+1)/2) = prod_{n>=1} ((n+x/2)/(n+(x+1)/2))^eps_n."""
        return self.product({x / 2: 1, (x + 1) / 2: -1})


# ---------------------------------------------------------------------------
# Exact arithmetic for symbolic reductions
# ---------------------------------------------------------------------------

def _clean(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def _factor_int(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def rational_exponents(q: Fraction) -> Dict[int, Fraction]:
    if q <= 0:
        raise ValueError(f"not a positive rational: {q}")
    out = {p: Fraction(e) for p, e in _factor_int(q.numerator).items()}
    for p, e in _factor_int(q.denominator).items():
        out[p] = out.get(p, Fraction(0)) - e
    return _clean(out)


_FACTOR_RE = re.compile(r"\((\d*)n([+-]\d+)?\)(?:\^(\d+))?")


def parse_product_text(text: str) -> Tuple[Dict[Fraction, int], Fraction]:
    """Offsets {a_i: m_i} and R(0) of a catalog rational such as
    ``(2n-1)(4n+1)/((2n+1)(4n-1))``, written as affine factors (kn+b)^e."""
    text = text.replace(" ", "")
    level = 0
    cut = None
    for i, ch in enumerate(text):
        level += (ch == "(") - (ch == ")")
        if ch == "/" and level == 0:
            cut = i
    sides = [(text if cut is None else text[:cut], 1)]
    if cut is not None:
        den = text[cut + 1:]
        if den.startswith("((") and den.endswith("))"):
            den = den[1:-1]
        sides.append((den, -1))
    offsets: Dict[Fraction, int] = {}
    at_zero = Fraction(1)
    for side, sign in sides:
        lead = re.match(r"\d*", side).group()
        if lead:
            at_zero *= Fraction(int(lead)) ** sign
        for k, b, e in _FACTOR_RE.findall(side):
            k = int(k or 1)
            b = int(b or 0)
            e = int(e or 1)
            offsets[Fraction(b, k)] = offsets.get(Fraction(b, k), 0) + sign * e
            at_zero *= Fraction(b) ** (sign * e)
    return _clean(offsets), at_zero


def certificate_problems(certificate: Dict[Fraction, Fraction],
                         target: Dict[Fraction, Fraction],
                         log_const: Dict[Fraction, Fraction],
                         expected: Dict[int, Fraction]) -> List[str]:
    """Reasons a reduction certificate is wrong; empty when it is exact.

    sum_x lambda_x (G(x/2) - G((x+1)/2) - G(x)) must equal the target
    G-part, and prod (1+x)^lambda_x times prod q^c_q must have the
    expected prime exponents.
    """
    problems = []
    combined: Dict[Fraction, Fraction] = {}
    exponents: Dict[int, Fraction] = {}
    for x, lam in certificate.items():
        if x <= -1:
            problems.append(f"relation point {x} has no real log(1+x)")
            continue
        for point, coef in ((x / 2, 1), ((x + 1) / 2, -1), (x, -1)):
            combined[point] = combined.get(point, Fraction(0)) + coef * lam
        for p, e in rational_exponents(1 + x).items():
            exponents[p] = exponents.get(p, Fraction(0)) + e * lam
    for q, c in log_const.items():
        for p, e in rational_exponents(q).items():
            exponents[p] = exponents.get(p, Fraction(0)) + e * c
    if _clean(combined) != _clean(dict(target)):
        problems.append("certificate does not reproduce the G-part")
    if _clean(exponents) != _clean(dict(expected)):
        problems.append("certificate constant differs from the reference")
    return problems
