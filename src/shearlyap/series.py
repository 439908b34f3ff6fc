"""Expectations over the geometric block-length distribution.

Block run lengths (a, b) are i.i.d. geometric with weight 2^-(a+b), so
every quantity of interest is a double series  sum 2^-(a+b) f(a, b).
A truncated sum calls a vectorized f once, on the whole grid, and is
exact: the result is the correctly rounded exact sum of the terms, the same
double math.fsum returns for them, whatever their order.  Error-free
extraction gets it in two or three whole-array passes: each pass rounds
every remaining term to a power-of-two grid, sums the rounded parts exactly
and keeps the exact remainders, whose sum is then bounded; the bound proves
which double the exact sum rounds to.  Where it does not (a sum near a
rounding midpoint, zero, huge or near-subnormal sums, non-finite terms, or
more than 2^25 terms), math.fsum sums the terms itself.  The doubling check
sums one evaluation of the integrand, on the doubled grid, and its corner.
Moments of the form  sum 2^-a a^n  are integers and are computed exactly
by recurrence, which gives exact values for integer-q moment expansions.

The 2^-(a+b) weights encode a fair coin.  A biased coin (probability p of
the lower shear) would weight blocks by p^a q^b with mean block length
1/(p q); only this module's weight function and the engine's block-scale
divisor would change, nothing in the cone or growth machinery.  That
generalization is deliberately not implemented.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .linalg import DomainError

__all__ = [
    "NonConvergenceError",
    "SeriesConfig",
    "SeriesResult",
    "DEFAULT_SERIES",
    "truncated_sum",
    "expect_block",
    "expect_block_report",
    "kappa",
    "polylog_half",
    "expect_block_exact_poly",
]

_MAX_INDEX = 1024  # engine's cache holds 24 grids of (2N)^2 doubles: 0.8 GB at N = 1024
_POLYLOG_MAX = 12
_SUM_MAX_TERMS = 1 << 25  # terms extracted at most: 2^M stays far below 2^53
_EXTRACT_EMAX = 1000  # largest extraction sigma: below it no partial sum of the terms overflows
_EXTRACT_EMIN = -900  # smallest remainder bound: the taus and the bound stay normal doubles
_REBUILD_BLOCK = 8192  # terms per block when the third pass rebuilds the remainder


class NonConvergenceError(RuntimeError):
    """Doubling the truncation moved the sum by more than the tail tolerance,
    or the sum is not finite, or a moment sum underflows below the normal
    doubles (to zero its log is undefined; subnormal it has lost bits)."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation limit and tail tolerance for the weighted double sums.

    The doubling check compares the sum truncated at max_index with the sum
    truncated at 2*max_index; the difference must stay below tail_tol,
    in absolute terms for order-one sums or relative to the sum's magnitude
    for large moment sums (double precision cannot resolve an absolute
    1e-12 on a sum of size 1e6).  max_index is at most 1024, which bounds the
    memory of the bound-function grid cache.
    """

    max_index: int = 64
    tail_tol: float = 1e-12

    def __post_init__(self):
        if not 8 <= self.max_index <= _MAX_INDEX:
            raise DomainError(f"max_index must be in 8..{_MAX_INDEX}, got {self.max_index}")
        if not self.tail_tol > 0:
            raise DomainError(f"tail_tol must be positive, got {self.tail_tol}")


@dataclass(frozen=True)
class SeriesResult:
    value: float
    tail_estimate: float
    truncation: int


DEFAULT_SERIES = SeriesConfig()


@functools.lru_cache(maxsize=2)  # the doubling check sums at two sizes
def _grid(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, 2^-(a+b)) on the grid 1..limit x 1..limit; read-only, shared by
    every sum of that size."""
    idx = np.arange(1, limit + 1, dtype=np.float64)
    aa, bb = np.meshgrid(idx, idx, indexing="ij")
    weights = np.exp2(-(aa + bb))
    for x in (aa, bb, weights):
        x.flags.writeable = False
    return aa, bb, weights


def _extract(r: np.ndarray, sigma: float, out: np.ndarray) -> float:
    """Leaves q = (sigma + r) - sigma in out (which may be r) and returns its sum."""
    np.add(r, sigma, out=out)
    out -= sigma
    return float(out.sum())


def _certified(taus: list[float], b: float) -> float | None:
    """The double every sum within b of sum(taus) rounds to, if one non-zero
    double takes them all (rounding is monotone); otherwise None."""
    total = math.fsum(taus + [-b])
    return total if total == math.fsum(taus + [b]) != 0.0 else None


def _extracted_sum(flat: np.ndarray) -> float | None:
    """math.fsum(flat.tolist()) certified in two or three whole-array passes,
    or None where the certificate does not decide it.

    Error-free vector extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput.
    31, 2008): take n terms r, 2^M >= n + 2, and a power of two sigma with
    every |r_i| <= 2^-M sigma.  Then q = (sigma + r) - sigma is computed
    without error, is a multiple of 2^-53 sigma and at most 2^-M sigma in
    size, so tau = q.sum() is exact in any order; and r - q is exact and at
    most 2^-53 sigma.  Each pass takes one tau out of the remainder and
    moves sigma to 2^(M-53) sigma, so after it the remainder sums to less
    than b = 2^(M-53) sigma_last.  If the taus minus b and the taus plus b
    round (math.fsum) to the same non-zero double, the exact sum rounds to
    it too.  The remainder after one pass lives in the buffer of q, which
    the second pass overwrites, so a third pass rebuilds the remainder
    after two.

    None for no terms or more than _SUM_MAX_TERMS, for a largest |term| that
    is zero or not finite (nan, inf and signed zeros stay fsum's), for sigma
    above 2^_EXTRACT_EMAX (where fsum's partial sums may overflow, and its
    OverflowError stays) or b below 2^_EXTRACT_EMIN (near the subnormals),
    and after three undecided passes.
    """
    if not 0 < flat.size <= _SUM_MAX_TERMS:
        return None
    mu = max(flat.max(), -flat.min())
    if not 0.0 < mu < math.inf:
        return None
    m = (flat.size + 1).bit_length()  # M
    exp = math.frexp(mu)[1] + m  # mu < 2^-M sigma
    if exp > _EXTRACT_EMAX or exp + 2 * (m - 53) < _EXTRACT_EMIN:
        return None
    # sigma of passes 1-3; sigma[j] also bounds the remainder after pass j
    sigma = [math.ldexp(1.0, exp + j * (m - 53)) for j in range(4)]
    q = np.empty_like(flat)
    taus = [_extract(flat, sigma[0], q)]
    np.subtract(flat, q, out=q)
    taus.append(_extract(q, sigma[1], q))
    total = _certified(taus, sigma[2])
    if total is not None or exp + 3 * (m - 53) < _EXTRACT_EMIN:
        return total
    # the remainder after two passes, rebuilt into q block by block: a second
    # whole-array buffer would be faulted in afresh on every call
    scratch = np.empty(_REBUILD_BLOCK)
    for i in range(0, flat.size, _REBUILD_BLOCK):
        block, q_block = flat[i:i + _REBUILD_BLOCK], q[i:i + _REBUILD_BLOCK]
        r = scratch[:block.size]
        _extract(block, sigma[0], r)
        np.subtract(block, r, out=r)
        np.subtract(r, q_block, out=q_block)
    taus.append(_extract(q, sigma[2], q))
    return _certified(taus, sigma[3])


def _exact_sum(terms: np.ndarray) -> float:
    """math.fsum(terms.ravel().tolist()), bit for bit, whatever the order.

    _extracted_sum decides almost every series sum in two passes, and most
    of the rest in three: its certificate is a bound b on the terms left
    after the passes, and two math.fsum calls show that every value within
    b of the extracted part rounds to one double.  Where they do not agree,
    and for inputs the extraction declines (no terms, too many, zero,
    non-finite or huge ones, sums near the subnormals), math.fsum sums the
    list itself, so its values, signed zeros and exceptions stay.
    """
    flat = terms.ravel()
    total = _extracted_sum(flat)
    return math.fsum(flat.tolist()) if total is None else total


def truncated_sum(f: Callable, limit: int) -> float:
    """sum_{a,b=1}^{limit} 2^-(a+b) f(a, b), summed exactly.

    f is called once, on the limit x limit arrays of a and b.  The result is
    the correctly rounded sum of the weighted terms, equal bit for bit to
    math.fsum over them (see _exact_sum), whatever their order.
    """
    aa, bb, weights = _grid(limit)
    return _exact_sum(weights * f(aa, bb))


def expect_block_report(f: Callable, cfg: SeriesConfig = DEFAULT_SERIES) -> SeriesResult:
    """Expectation of f(a, b) under the 2^-(a+b) weights, with tail estimate.
    f is called once, on the 2N grid (N = cfg.max_index); the N sum reads its corner."""
    table = None

    def tabulated(a, b):
        nonlocal table
        if table is None:
            table = f(a, b)
            if np.shape(table) != a.shape:  # a scalar; broadcasting every table slowed sweeps 3 %
                table = np.broadcast_to(table, a.shape)
        return table[:a.shape[0], :a.shape[1]]

    s2 = truncated_sum(tabulated, 2 * cfg.max_index)
    s1 = truncated_sum(tabulated, cfg.max_index)
    if not math.isfinite(s2):
        raise NonConvergenceError(
            f"series sum is not finite ({s2}): its terms overflow double precision, "
            "as moment terms f^q do at large |q|; a larger max_index cannot help"
        )
    tail = abs(s2 - s1)
    allowance = max(cfg.tail_tol, cfg.tail_tol * abs(s2))
    if not tail <= allowance:
        raise NonConvergenceError(
            f"series tail estimate {tail:.3e} exceeds tolerance {allowance:.3e} "
            f"at truncation {cfg.max_index} (sum ~ {s2:.6g}); increase max_index"
        )
    return SeriesResult(value=s2, tail_estimate=tail, truncation=2 * cfg.max_index)


def expect_block(f: Callable, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    return expect_block_report(f, cfg).value


@functools.lru_cache(maxsize=1)
def kappa() -> float:
    """The constant 2 * sum_{a>=1} 2^-a log(a)  ~  1.0157.

    120 terms leave a tail below 2^-120 * (log 120 + 2), far under 1e-12.
    """
    return 2.0 * math.fsum(math.ldexp(math.log(a), -a) for a in range(1, 121))


@functools.lru_cache(maxsize=None)
def polylog_half(n: int) -> int:
    """Exact integer value of sum_{a>=1} 2^-a a^n for 0 <= n <= 12.

    Shifting a -> a+1 gives the recurrence T_n = 1 + sum_{k<n} C(n,k) T_k:
    1, 2, 6, 26, 150, 1082, 9366, ...
    """
    if not 0 <= n <= _POLYLOG_MAX:
        raise DomainError(f"polylog_half supports 0 <= n <= {_POLYLOG_MAX}, got {n}")
    if n == 0:
        return 1
    return 1 + sum(math.comb(n, k) * polylog_half(k) for k in range(n))


def expect_block_exact_poly(coeffs: Mapping[tuple[int, int], float]):
    """Exact expectation of a polynomial sum c_ij a^i b^j.

    Independence factorizes each monomial:  E[a^i b^j] = T_i * T_j  with
    T_n = polylog_half(n).  Integer coefficients give an exact integer.
    """
    for (i, j) in coeffs:
        if not (0 <= i <= _POLYLOG_MAX and 0 <= j <= _POLYLOG_MAX):
            raise DomainError(f"monomial exponent ({i}, {j}) beyond the polylog table")
    terms = [c * polylog_half(i) * polylog_half(j) for (i, j), c in coeffs.items()]
    if all(isinstance(t, int) for t in terms):
        return sum(terms)
    return math.fsum(terms)
