"""Reference values the benchmark computes itself, and the checks built on them.

Nothing here imports shearlyap: every reference is derived from the model
(two integer shears, a fair coin) with exact integer arithmetic where it can
be, so a check fails when the program's output disagrees with an
independent computation, not with itself.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

# Monte Carlo tolerances are Z standard errors.  Every run checks about 25
# estimates whose standard errors come from 25 ensembles (Student t with 24
# degrees of freedom), so 3 sigma would fail a correct program on a few
# percent of seeds; 6 sigma keeps that below one run in a thousand.
Z = 6.0

# Published table at alpha = beta = 1: (norm, column) -> value, five figures.
PUBLISHED_TABLE = {
    ("l1", "global_lower"): 0.36886,
    ("l1", "global_upper"): 0.43835,
    ("l1", "improved"): 0.38561,
    ("l2", "global_lower"): 0.36347,
    ("l2", "global_upper"): 0.40277,
    ("l2", "improved"): 0.36864,
    ("linf", "global_lower"): 0.34613,
    ("linf", "global_upper"): 0.43835,
    ("linf", "improved"): 0.41350,
}
TABLE_TOL = 1.01e-5
PUBLISHED_LAMBDA = 0.39625
LAMBDA_TOL = 0.002


# ---------------------------------------------------------------- exact moments

def geometric_moments(n_max: int) -> list[int]:
    """T_n = sum_{a>=1} 2^-a a^n, exactly, from T_n = 1 + sum_{k<n} C(n,k) T_k."""
    t = [1]
    for n in range(1, n_max + 1):
        t.append(1 + sum(math.comb(n, k) * t[k] for k in range(n)))
    return t


def exact_moment_args(q: int) -> tuple[int, int]:
    """Exact E[(1+ab)^q] and E[(1+a+ab)^q] at alpha = beta = 1.

    These are the arguments of (1/4) log in the global L-infinity moment
    bounds.  The upper one is expanded as E[(1 + a(1+b))^q], a different
    route from a multinomial expansion in (1, a, ab).
    """
    t = geometric_moments(q)
    lower = sum(math.comb(q, j) * t[j] * t[j] for j in range(q + 1))
    upper = sum(
        math.comb(q, i) * t[i] * sum(math.comb(i, j) * t[j] for j in range(i + 1))
        for i in range(q + 1)
    )
    return lower, upper


# ---------------------------------------------------------------- products

def _mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _log_spectral_norm(m) -> float:
    """log of the largest singular value of an integer matrix with det 1."""
    (a, b), (c, d) = m
    s = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = s * s - 4 * det * det
    return 0.5 * math.log((s + math.sqrt(disc)) / 2.0)


def exact_standard_bound(k: int, alpha: int, beta: int) -> float:
    """E_k = (1/k) mean over all 2^k words of log |product|_2, integer products."""
    A = ((1, 0), (alpha, 1))
    B = ((1, beta), (0, 1))
    level = [A, B]
    for _ in range(k - 1):
        level = [_mul(m, p) for m in (A, B) for p in level]
    return math.fsum(_log_spectral_norm(p) for p in level) / (len(level) * k)


def exact_moment_rates(n: int, alpha: int = 1, beta: int = 1) -> tuple[float, float]:
    """Finite-n rates from X_0 = (0, 1), exact integer recursions.

    Returns ((1/n) log E|X_n|_1, (1/n) log E|X_n|_2^2).  With non-negative
    shears every X_n is non-negative, so |X_n|_1 is linear and its mean is
    ((A+B)/2)^n X_0.  The second moment matrix follows
    M -> (A M A^T + B M B^T)/2; both are kept scaled by 2^n.
    """
    x = (0, 1)
    m = ((0, 0), (0, 1))
    A = ((1, 0), (alpha, 1))
    B = ((1, beta), (0, 1))
    At = ((1, alpha), (0, 1))
    Bt = ((1, 0), (beta, 1))
    for _ in range(n):
        x = (2 * x[0] + beta * x[1], alpha * x[0] + 2 * x[1])
        ma = _mul(_mul(A, m), At)
        mb = _mul(_mul(B, m), Bt)
        m = tuple(tuple(ma[i][j] + mb[i][j] for j in range(2)) for i in range(2))
    scale = n * math.log(2.0)
    l1 = (math.log(x[0] + x[1]) - scale) / n
    l2sq = (math.log(m[0][0] + m[1][1]) - scale) / n
    return l1, l2sq


# ---------------------------------------------------------------- checks

def check_interval(label: str, lower: float, upper: float) -> list[str]:
    if not (math.isfinite(lower) and math.isfinite(upper)):
        return [f"{label}: non-finite envelope [{lower}, {upper}]"]
    if lower > upper:
        return [f"{label}: inverted envelope [{lower:.6f}, {upper:.6f}]"]
    return []


def check_table(values: dict) -> list[str]:
    """values: (norm, column) -> computed value, for the nine published cells."""
    out = []
    for key, want in PUBLISHED_TABLE.items():
        got = values.get(key)
        if got is None or abs(got - want) > TABLE_TOL:
            out.append(f"table1 {key}: computed {got}, published {want}")
    return out


def check_exact_args(q: int, lower_arg, upper_arg) -> list[str]:
    want = exact_moment_args(q)
    if (lower_arg, upper_arg) != want:
        return [f"gle-exact q={q}: arguments ({lower_arg}, {upper_arg}), exact {want}"]
    return []


def check_log_args(label: str, lower: float, upper: float, q: int, tol: float = 1e-9):
    lo_arg, up_arg = exact_moment_args(q)
    want = (math.log(lo_arg) / 4.0, math.log(up_arg) / 4.0)
    if abs(lower - want[0]) > tol or abs(upper - want[1]) > tol:
        return [f"{label}: [{lower}, {upper}] != (1/4) log {lo_arg, up_arg} = {want}"]
    return []


def check_nested(label: str, inner: tuple[float, float], outer: tuple[float, float],
                 tol: float = 1e-12) -> list[str]:
    """The improved Lyapunov envelope is never looser than the global one."""
    if inner[0] < outer[0] - tol or inner[1] > outer[1] + tol:
        return [f"{label}: improved {inner} not inside global {outer}"]
    return []


def check_estimate_in(label: str, mean: float, se: float, lower: float, upper: float):
    if not (math.isfinite(mean) and math.isfinite(se)):
        return [f"{label}: non-finite estimate {mean} +- {se}"]
    if not lower - Z * se <= mean <= upper + Z * se:
        return [f"{label}: estimate {mean:.6f} +- {se:.1e} outside "
                f"[{lower:.6f}, {upper:.6f}] by more than {Z:g} se"]
    return []


def check_reference_lambda(mean: float) -> list[str]:
    if not abs(mean - PUBLISHED_LAMBDA) <= LAMBDA_TOL:
        return [f"lambda at alpha=beta=1: {mean:.6f}, published {PUBLISHED_LAMBDA}"]
    return []


def check_block_law(mean_len: float, p_eq: float, p_gt: float, p_lt: float,
                    n_blocks: int) -> list[str]:
    """Run lengths a, b are i.i.d. geometric(1/2): E[a+b] = 4, Var[a+b] = 4,
    and a = b, a > b, a < b each have probability 1/3."""
    out = []
    if not abs(mean_len - 4.0) <= Z * 2.0 / math.sqrt(n_blocks):
        out.append(f"block oracle: mean block length {mean_len:.5f}, expected 4")
    p_tol = Z * math.sqrt(2.0 / 9.0 / n_blocks)
    for name, p in (("P(a=b)", p_eq), ("P(a>b)", p_gt), ("P(a<b)", p_lt)):
        if not abs(p - 1.0 / 3.0) <= p_tol:
            out.append(f"block oracle: {name} = {p:.5f}, expected 1/3")
    return out


def check_gle_q1(mean: float, se: float, n: int, l1_rate: float) -> list[str]:
    """|x|_1 / sqrt 2 <= |x|_2 <= |x|_1, so the L2 rate lies in
    [l1 - log 2 / (2n), l1]."""
    lo = l1_rate - 0.5 * math.log(2.0) / n
    return check_estimate_in("gle_mc q=1", mean, se, lo, l1_rate)


def check_gle_q2(mean: float, se: float, l2sq_rate: float) -> list[str]:
    """One-sided: the moment estimator is biased low, never high."""
    if not (math.isfinite(mean) and mean <= l2sq_rate + Z * se):
        return [f"gle_mc q=2: estimate {mean:.6f} above the exact rate {l2sq_rate:.6f}"]
    return []


def check_gle_jensen(q: float, mean: float, se: float, lambda_upper: float) -> list[str]:
    """l(q) >= q * lambda for q < 0 (Jensen), with lambda <= its upper bound."""
    if not (math.isfinite(mean) and mean >= q * lambda_upper - Z * se):
        return [f"gle_mc q={q:g}: estimate {mean:.6f} below q * lambda_upper "
                f"= {q * lambda_upper:.6f}"]
    return []


def check_standard_bounds(values: dict[int, float], exact: dict[int, float],
                          lambda_lower: float, tol: float = 1e-10) -> list[str]:
    """E_k matches exact enumeration where given, does not increase in k,
    and stays above the lower bound on lambda."""
    out = []
    for k, want in exact.items():
        if not abs(values[k] - want) <= tol:
            out.append(f"E_{k}: {values[k]!r}, exact enumeration {want!r}")
    ks = sorted(values)
    for k0, k1 in zip(ks, ks[1:]):
        if values[k1] > values[k0] + tol:
            out.append(f"E_{k1} = {values[k1]:.8f} exceeds E_{k0} = {values[k0]:.8f}")
    if not values[ks[-1]] >= lambda_lower:
        out.append(f"E_{ks[-1]} = {values[ks[-1]]:.8f} below lambda lower bound {lambda_lower:.8f}")
    return out


def check_sampled_bound(value: float, lambda_lower: float, short_exact: float) -> list[str]:
    """A long sampled E_k sits between the Lyapunov lower bound and a short exact E_k."""
    if not (math.isfinite(value) and lambda_lower <= value <= short_exact):
        return [f"sampled E_k = {value} outside [{lambda_lower:.6f}, {short_exact:.6f}]"]
    return []
