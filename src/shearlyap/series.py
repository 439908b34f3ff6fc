"""Expectations over the geometric block-length distribution.

Block run lengths (a, b) are i.i.d. geometric with weight 2^-(a+b), so
every quantity of interest is a double series  sum 2^-(a+b) f(a, b).
Truncated sums are accumulated with exact compensated summation (the
result is correctly rounded, whatever the order of the terms), and
checked by doubling the truncation index.  Moments of the form
sum 2^-a a^n  are integers and are computed exactly by recurrence, which
gives exact values for integer-q moment expansions.

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

_POLYLOG_MAX = 12
_BLOCK_ROWS = 16  # grid rows per call of a vectorized integrand


class NonConvergenceError(RuntimeError):
    """Doubling the truncation moved the sum by more than the tail tolerance."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation limit and tail tolerance for the weighted double sums.

    The doubling check compares the sum truncated at max_index with the sum
    truncated at 2*max_index; the difference must stay below tail_tol,
    in absolute terms for order-one sums or relative to the sum's magnitude
    for large moment sums (double precision cannot resolve an absolute
    1e-12 on a sum of size 1e6).
    """

    max_index: int = 64
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.max_index < 8:
            raise DomainError(f"max_index must be >= 8, got {self.max_index}")
        if not self.tail_tol > 0:
            raise DomainError(f"tail_tol must be positive, got {self.tail_tol}")


@dataclass(frozen=True)
class SeriesResult:
    value: float
    tail_estimate: float
    truncation: int


DEFAULT_SERIES = SeriesConfig()


@functools.lru_cache(maxsize=2)  # the doubling check sums at two sizes
def _grid_blocks(limit: int) -> list[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, a, b, 2^-(a+b)) for each block of _BLOCK_ROWS rows of the grid
    1..limit x 1..limit; read-only, shared by every sum of that size."""
    idx = np.arange(1, limit + 1, dtype=np.float64)
    blocks = []
    for lo in range(0, limit, _BLOCK_ROWS):
        aa, bb = np.meshgrid(idx[lo:lo + _BLOCK_ROWS], idx, indexing="ij")
        weights = np.exp2(-(aa + bb))
        for x in (aa, bb, weights):
            x.flags.writeable = False
        blocks.append((slice(lo, lo + _BLOCK_ROWS), aa, bb, weights))
    return blocks


def truncated_sum(f: Callable, limit: int) -> float:
    """sum_{a,b=1}^{limit} 2^-(a+b) f(a, b), fsum-accumulated.

    f may be vectorized over numpy arrays; scalar-only callables are
    evaluated pointwise.  Vectorized f sees _BLOCK_ROWS rows of the grid
    at a time: its temporaries then stay small enough for the allocator to
    reuse from one call to the next, instead of returning whole-grid
    buffers to the system and page-faulting them in again.
    """
    terms = np.empty((limit, limit))
    for rows, aa, bb, weights in _grid_blocks(limit):
        try:
            vals = np.asarray(f(aa, bb), dtype=np.float64)
            if vals.shape != aa.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([[float(f(float(a), float(b))) for a, b in zip(ra, rb)]
                             for ra, rb in zip(aa, bb)])
        np.multiply(weights, vals, out=terms[rows])
    # fsum is correctly rounded, so the order of the terms does not matter
    return math.fsum(terms.ravel().tolist())


def expect_block_report(f: Callable, cfg: SeriesConfig = DEFAULT_SERIES) -> SeriesResult:
    """Expectation of f(a, b) under the 2^-(a+b) weights, with tail estimate."""
    s1 = truncated_sum(f, cfg.max_index)
    s2 = truncated_sum(f, 2 * cfg.max_index)
    tail = abs(s2 - s1)
    allowance = max(cfg.tail_tol, cfg.tail_tol * abs(s2))
    if tail > allowance:
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
