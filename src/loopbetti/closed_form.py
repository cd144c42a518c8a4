"""Closed combinatorial formulas for the loop-space Betti numbers.

Everything here is exact integer combinatorics: the weighted multi-index
sum computing pinched Betti numbers from the tables of the orbit space and
the fixed set, its specialization to the glued-spheres example, the
concentrated-ambient quotient table, the loop-space assembly over all smash
powers, and the rational generating function conjecturally matching it.

Binomial convention throughout: C(m, k) = 0 when m < 0, k < 0 or k > m, and
C(0, 0) = 1; no generalized binomials.
"""

from __future__ import annotations

from math import comb
from typing import Mapping, NamedTuple, Sequence

from .homology import BettiTable, UncertifiedRangeError


def binom(m: int, k: int) -> int:
    """Binomial coefficient under the zero-outside-range convention."""
    if m < 0 or k < 0 or k > m:
        return 0
    return comb(m, k)


def c_coeff(dim_lambda: int, dim_mu: int, s: int) -> int:
    """Number of compositions of s made of dim_lambda ones and dim_mu parts
    that are at least two: C(I+J, J) * C(s-I-J-1, J-1).

    The first factor shuffles the ones among the larger parts; the second
    counts the nonnegative solutions of b_1 + ... + b_J = s - I - 2J.
    """
    i, j = dim_lambda, dim_mu
    return binom(i + j, j) * binom(s - i - j - 1, j - 1)


class BettiInput(NamedTuple):
    """Betti tables of the orbit space and of the fixed set."""

    betti_orbit: BettiTable
    betti_fixed: BettiTable

    def require(self, t_max: int) -> None:
        """Raise UncertifiedRangeError unless both tables cover 0..t_max."""
        for table in self:
            if not all(table.covers(p) for p in range(t_max + 1)):
                raise UncertifiedRangeError(f"input table not certified through dimension {t_max}")


def _weighted_products(table: BettiTable, max_parts: int, max_total: int) -> list[dict[int, int]]:
    """w[d][l] = sum over d-tuples of dimensions totalling l of the product
    of table entries; w[0] = {0: 1} for the empty tuple.  Degree 0 counts:
    a disconnected space has a nonzero reduced b_0."""
    support = {}
    for p in range(max_total + 1):
        v = table[p]
        if v:
            support[p] = v
    out: list[dict[int, int]] = [{0: 1}]
    for _ in range(max_parts):
        prev = out[-1]
        nxt: dict[int, int] = {}
        for total, weight in prev.items():
            for p, v in support.items():
                if total + p <= max_total:
                    nxt[total + p] = nxt.get(total + p, 0) + weight * v
        out.append(nxt)
    return out


def betti_pinched_formula_table(inp: BettiInput, s: int, t_max: int) -> list[int]:
    """The t-th Betti numbers of the pinched subset of the s-fold smash
    power for t = 0..t_max.

    Sum over multi-index pairs (lam, mu) of dimensions, degree 0 included,
    lam possibly empty and mu nonempty, with
    |lam| + |mu| = t - s + dim lam + dim mu + 1 and
    2 <= dim lam + dim mu + 1 <= s, of
    c_coeff * prod(betti_orbit over lam) * prod(betti_fixed over mu).
    The sum is finite because dim lam + dim mu < s and |lam| + |mu| <= t.
    The weighted products of
    totals up to t_max hold those of every smaller total, so one table per
    input serves every t.
    """
    if s < 2:
        raise ValueError("the pinched formula needs s >= 2")
    inp.require(t_max)
    w_orbit = _weighted_products(inp.betti_orbit, s, t_max)
    w_fixed = _weighted_products(inp.betti_fixed, s, t_max)
    out = [0] * (t_max + 1)
    for i in range(0, s - 1):
        for j in range(1, s - i):
            coeff = c_coeff(i, j, s)
            if coeff == 0:
                continue
            # |lam| + |mu| = t - shift, and shift >= 0 as i + j <= s - 1
            shift = s - i - j - 1
            for l_tot, wl in w_orbit[i].items():
                for m_tot, wm in w_fixed[j].items():
                    t = l_tot + m_tot + shift
                    if t <= t_max:
                        out[t] += coeff * wl * wm
    return out


def betti_pinched_formula(inp: BettiInput, s: int, t: int) -> int:
    """The t-th Betti number of the pinched subset of the s-fold smash
    power; see ``betti_pinched_formula_table``, whose checks it runs."""
    table = betti_pinched_formula_table(inp, s, t)
    return table[t] if t >= 0 else 0


def betti_pinched_example(s: int, n: int) -> int:
    """Pinched Betti numbers when the orbit space is a 2-sphere and the fixed
    set a circle: sum_{J=1}^{2s-3} C(n-s+1+J, J) * C(2s-n-J-2, J-1)."""
    if s < 2:
        raise ValueError("needs s >= 2")
    return sum(
        binom(n - s + 1 + j, j) * binom(2 * s - n - j - 2, j - 1)
        for j in range(1, max(2 * s - 3, 0) + 1)
    )


def quotient_betti_concentrated(s: int, pinched: BettiTable) -> BettiTable:
    """Betti table of (ambient smash power) / (pinched subset) when the
    ambient homology is a single class in dimension 2s.

    Exactness then forces: one class at 2s, nothing at 2s - 1 or above 2s,
    and the pinched homology shifted up by one below.  Requires the pinched
    table to vanish at 2s - 2 and 2s - 1.
    """
    if s < 1:
        raise ValueError("needs s >= 1")
    for n in (2 * s - 2, 2 * s - 1):
        if pinched[n] != 0:
            raise ValueError(
                "the concentrated quotient table needs the pinched homology "
                f"to vanish at dimension {n}"
            )
    entries = {2 * s: 1}
    for n in range(1, 2 * s - 1):
        v = pinched[n - 1]
        if v:
            entries[n] = v
    return BettiTable(entries, certified=2 * s, zero_from=2 * s + 1)


def loop_betti(quotients: Mapping[int, BettiTable], n: int) -> int:
    """Loop-space Betti number in degree n: the sum over s of the quotient
    tables.  Quotients for s = 1..n must be supplied: the quotient of index
    s first contributes in degree s, so larger s cannot reach degree n."""
    if n < 1:
        raise ValueError("reduced loop-space degrees start at 1")
    missing = [s for s in range(1, n + 1) if s not in quotients]
    if missing:
        raise UncertifiedRangeError(
            f"cutoff not certified: missing quotient tables for s in {missing}"
        )
    return sum(quotients[s][n] for s in range(1, n + 1))


def loop_betti_example(n: int) -> int:
    """Loop-space Betti numbers for the glued-spheres example, in closed form.

    Even degrees 2k get one class from the top cell of the k-th quotient
    plus shifted pinched contributions from higher smash powers; odd degrees
    get only the shifted contributions, with the inner sum truncated where
    the binomials vanish.
    """
    if n < 1:
        raise ValueError("reduced loop-space degrees start at 1")
    if n % 2 == 0:
        k = n // 2
        return 1 + sum(
            binom(2 * k - r + j, j) * binom(2 * r - 2 * k - j - 1, j - 1)
            for r in range(k + 1, 2 * k + 1)
            for j in range(1, max(2 * r - 3, 0) + 1)
        )
    k = (n - 1) // 2
    return sum(
        binom(2 * k - r + j + 1, j) * binom(2 * r - 2 * k - j - 2, j - 1)
        for r in range(k + 2, 2 * k + 2)
        for j in range(1, r - k)
    )


EXAMPLE_LOOP_BETTI_1_TO_12 = (0, 2, 1, 5, 5, 14, 19, 42, 66, 131, 221, 417)


def series_coeffs(
    numerator: Sequence[int], denominator: Sequence[int], n_max: int
) -> tuple[int, ...]:
    """Power-series coefficients of numerator/denominator through degree
    n_max.  The denominator's constant coefficient must be 1; the
    coefficients then satisfy the linear recurrence it induces."""
    if not denominator or denominator[0] != 1:
        raise ValueError("denominator must have constant coefficient 1")
    coeffs: list[int] = []
    for n in range(n_max + 1):
        value = numerator[n] if n < len(numerator) else 0
        for k in range(1, min(n, len(denominator) - 1) + 1):
            value -= denominator[k] * coeffs[n - k]
        coeffs.append(value)
    return tuple(coeffs)


def poincare_coeffs(n_max: int) -> tuple[int, ...]:
    """Coefficients of (1 - x) / (1 - x - 2x^2 + x^3) through degree n_max.

    The induced recurrence is a_n = a_{n-1} + 2 a_{n-2} - a_{n-3} with
    a_0 = 1, a_1 = 0, a_2 = 2.  The degree-0 coefficient is 1 while the
    reduced Betti number there is 0, so comparisons start at degree 1.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return series_coeffs((1, -1), (1, -1, -2, 1), n_max)


def conjecture_rows(n_max: int) -> list[tuple[int, int, int, bool]]:
    """Rows (n, closed-form value, series coefficient, asserted) where only
    degrees 1..12 are asserted equal; beyond that the match is conjectural."""
    series = poincare_coeffs(n_max)
    return [
        (n, loop_betti_example(n), series[n], n <= 12)
        for n in range(1, n_max + 1)
    ]
