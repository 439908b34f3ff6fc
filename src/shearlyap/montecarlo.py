"""Empirical estimators that validate the analytic bounds.

All randomness flows from numpy's Philox4x64 counter-based generator.  The
coins of ensemble member e come from the stream keyed by (seed, e): its key
is what ``SeedSequence(entropy=seed, spawn_key=(e,))`` hands to
``np.random.Philox``, and coin i is the coin ``Generator.integers(0, 2)``
would draw i-th from that generator.  ``_coins`` derives the keys of all
streams at once and draws every stream through one Philox object by setting
its key and counter, so no generator is built per ensemble.  Results are
bit-for-bit reproducible for a fixed config and identical whether the
ensembles run serially or in parallel.

Every random product goes through one kernel, ``_pairwise_product``: the
textbook one-vector Lyapunov estimator (a fair coin picks the shear of each
step), the block oracle and sampled E_k all multiply their step matrices
pairwise in about log2(length) vectorized levels.  Products are held as
four entry arrays, p11, p12, p21 and p22, one element per product.
Exhaustive E_k uses the same layout: one (4, 2^k) array is doubled in place
at each level, B P into the upper half and then A P over the lower half,
which reproduces a 2x2 matrix product bit for bit.  The moment estimator
for l(q) is honest about its known weakness; the q-th moment is dominated
by exponentially rare trajectories, so the estimate is biased low once
q * (spread of log growth) becomes large compared to log(ensemble size).
Keep trajectories short (gle_mc caps them at 200 applications) and
treat the reported effective sample size warning seriously.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import DomainError, ShearParams, spectral_norm_batch

__all__ = ["McConfig", "McEstimate", "BlockStats", "RNG_ALGORITHM", "lyapunov_mc", "gle_mc",
           "standard_bound", "block_oracle"]

RNG_ALGORITHM = "philox4x64 (numpy), stream keyed by (seed, ensemble index)"

_COIN_CHUNK = 1 << 16
_COIN_RAW_BUDGET = 1 << 16  # raw Philox words per tile of _coins
_EXHAUSTIVE_MAX_K = 22
_GLE_BOOTSTRAP = 200  # resamples behind gle_mc's standard error
_GLE_TRAJ_CAP = 200  # applications per gle_mc trajectory
_MAX_APPS = 10**10  # cost guard: matrix applications one estimator call may run
# block_oracle holds a stream's coins and run lengths at once, about 19 bytes a coin: 1 GB
_MAX_STREAM_COINS = 5 * 10**7
_PAIRWISE_BUDGET = 1 << 16  # step-matrix elements per sub-chunk of _pairwise_product
_SHEAR_MAX = 1e79  # largest |alpha|, |beta| at which _pairwise_product keeps its accuracy
_SLICE_MATRICES = 1 << 16  # products per slice of exhaustive standard_bound's in-place levels
_UNSCALED_MAX = 1e150  # 2 * _UNSCALED_MAX**2 does not overflow


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo effort and reproducibility knobs.

    n_steps counts matrix applications in total, split evenly across the
    n_ensembles independent trajectories (remainder dropped).  The
    standard error is estimated from the spread across ensembles.  seed is
    a non-negative integer.  renorm_every has no numerical effect (products
    are rescaled by magnitude).
    """

    n_steps: int
    n_ensembles: int = 32
    seed: int = 0
    renorm_every: int = 1

    def __post_init__(self):
        if self.n_steps < 1 or self.n_ensembles < 1 or self.renorm_every < 1:
            raise DomainError("n_steps, n_ensembles and renorm_every must be positive")
        if self.renorm_every > self.n_steps:
            raise DomainError("renorm_every must not exceed n_steps")
        if self.n_steps < self.n_ensembles:
            raise DomainError("need at least one step per ensemble member")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_samples: int
    n_apps: int | None = None  # matrix applications run, over all trajectories


@dataclass(frozen=True)
class BlockStats:
    """Empirical statistics of the A^a B^b block decomposition."""

    mean_block_len: float
    p_eq: float
    p_gt: float
    p_lt: float
    lambda_est: float
    n_blocks: int


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


# SeedSequence's hash constants (numpy/random/bit_generator.pyx); a pool of 4 words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _philox_keys(seed: int, streams) -> np.ndarray:
    """(len(streams), 2) uint64: SeedSequence(seed, spawn_key=(e,)).generate_state(2, uint64)
    for every stream e < 2^32, by SeedSequence's own hash in uint32 arithmetic.

    Only the last entropy word, e, differs between streams, and the hash
    constants advance the same way for all of them: the seed's words are
    mixed once as Python ints and the stream word as one uint32 array.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
        return r ^ r >> 16

    seed = operator.index(seed)
    words = [seed >> i & _M32 for i in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))  # a spawn key pads the seed to the pool size
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    stream = np.asarray(streams, dtype=np.uint32)
    for w in [*words[4:], stream]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    state, hash_const = [], _INIT_B
    for w in pool:
        w = np.asarray(w ^ hash_const, dtype=np.uint32)
        hash_const = hash_const * _MULT_B & _M32
        w = w * np.uint32(hash_const)
        state.append((w ^ w >> 16).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def _coins(seed: int, streams, start: int, n: int) -> np.ndarray:
    """(n, len(streams)) int8: coins start..start+n-1 of each stream (seed, e),
    each equal to what Generator(Philox(SeedSequence(seed, spawn_key=(e,))))
    .integers(0, 2) draws at that position.

    integers(0, 2) returns bit 31 of a 32-bit draw, and Philox splits each
    64-bit word into its low half first: coin 2i is bit 31 of word i and coin
    2i+1 is bit 63.  A Philox block holds four words, and its counter is
    incremented before each block is generated, so coin c lies in the block
    after counter c // 8.  One Philox object draws every stream from its key
    and counter.  The raw words are drawn in tiles of whole blocks and groups
    of streams of at most _COIN_RAW_BUDGET words.
    """
    keys = _philox_keys(seed, streams)
    out = np.empty((n, len(keys)), dtype=np.int8)
    bitgen = np.random.Philox()
    stop = start + n
    tile = 8 * max(1, _COIN_RAW_BUDGET // 4)  # coins per tile, whole blocks
    for lo in range(start - start % 8, stop, tile):
        hi = min(lo + tile, stop)
        n_words = (hi - lo + 1) // 2
        counter = np.array([lo // 8, 0, 0, 0], dtype=np.uint64)
        group = max(1, _COIN_RAW_BUDGET // n_words)
        first = max(lo, start)
        for g in range(0, len(keys), group):
            raw = np.empty((min(group, len(keys) - g), n_words), dtype=np.uint64)
            for row, key in zip(raw, keys[g:g + group]):
                bitgen.state = {"bit_generator": "Philox",
                                "state": {"counter": counter, "key": key},
                                "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                                "has_uint32": 0, "uinteger": 0}
                row[:] = bitgen.random_raw(n_words)
            bits = np.empty(raw.shape + (2,), dtype=np.int8)
            bits[..., 0] = raw >> 31 & 1
            bits[..., 1] = raw >> 63
            bits = bits.reshape(len(raw), -1)[:, first - lo:hi - lo]
            out[first - start:hi - start, g:g + len(raw)] = bits.T
    return out


def _pairwise_product(steps, n: int, width: int, bound: float):
    """((p11, p12, p21, p22), log_scale) with M_{n-1} ... M_0 = exp(log_scale) p, max |p| = 1.

    steps(lo, hi) gives the entries (m11, m12, m21, m22) of steps lo..hi-1 as four
    (hi - lo, width) arrays; each step has determinant 1 and entries at most
    bound.  Sub-chunks of 2^j rows are reduced in j levels that multiply
    neighbouring rows, later times earlier.  A unit-determinant product has a
    largest entry of at least 1/sqrt(2) and, from entries at most b, at most
    2 b^2: levels run unscaled until that bound passes _UNSCALED_MAX, then each
    divides its rows by their largest entry and sums the logs.  Entries 1e-308
    below a row's largest are lost: above shears of about 10^79.3 the
    one-vector estimator's log growth then drifts by more than 1e-10 relative
    (10^-4 at 1e120), so the estimators refuse shears above _SHEAR_MAX (1e79).
    """
    def mul(later, earlier):
        l11, l12, l21, l22 = later
        e11, e12, e21, e22 = earlier
        return (l11 * e11 + l12 * e21, l11 * e12 + l12 * e22,
                l21 * e11 + l22 * e21, l21 * e12 + l22 * e22)

    def rescale(m):
        mx = np.maximum(np.maximum(np.abs(m[0]), np.abs(m[1])),
                        np.maximum(np.abs(m[2]), np.abs(m[3])))
        return [x / mx for x in m], np.log(mx)

    one, zero = np.ones(width), np.zeros(width)
    total, log_scale = (one, zero, zero, one), zero
    rows = 1 << max(1, (_PAIRWISE_BUDGET // width).bit_length() - 1)
    lo = 0
    while lo < n:
        hi = lo + min(rows, 1 << ((n - lo).bit_length() - 1))
        m, s, big = steps(lo, hi), 0.0, bound  # s: log scale of each row of m
        while len(m[0]) > 1:
            if big > _UNSCALED_MAX:
                m, ds = rescale(m)
                s, big = s + ds, math.inf  # rescale every level from here on
            m = mul([x[1::2] for x in m], [x[0::2] for x in m])
            if isinstance(s, np.ndarray):
                s = s[1::2] + s[0::2]
            big = 2.0 * big * big
        total, ds = rescale(mul([x[0] for x in m], total))
        log_scale = log_scale + ds + np.reshape(s, -1)
        lo = hi
    return total, log_scale


def _mean_log_norm(p: np.ndarray, logacc: np.ndarray, k: int) -> float:
    """Mean over the columns j of (log |P_j|_2 + logacc_j) / k, where the rows of the
    (4, n) array p are the entries p11, p12, p21, p22 of the products P_j."""
    vals = spectral_norm_batch(p.T.reshape(-1, 2, 2))  # a view: row j of p.T is P_j
    np.log(vals, out=vals)
    vals += logacc
    vals /= k
    return float(vals.mean())


def _shear_steps(params: ShearParams, coins: np.ndarray):
    """Step entries: A = [[1, 0], [alpha, 1]] where a coin is 1, else B = [[1, beta], [0, 1]]."""
    one = np.broadcast_to(1.0, coins.shape)
    return one, params.beta * (1 - coins), params.alpha * coins, one


def _shear_bound(params: ShearParams) -> float:
    """The largest step entry; DomainError if a shear exceeds _SHEAR_MAX."""
    bound = max(1.0, abs(params.alpha), abs(params.beta))
    if bound > _SHEAR_MAX:
        raise DomainError(f"shears above {_SHEAR_MAX:.0e} lose accuracy in the Monte Carlo "
                          f"products; got alpha={params.alpha}, beta={params.beta}")
    return bound


def _check_cost(n_apps: int) -> int:
    if n_apps > _MAX_APPS:
        raise DomainError(f"{n_apps:.3g} matrix applications exceed the cost guard "
                          f"{_MAX_APPS:.0e}; lower n_steps")
    return n_apps


def _iterate_log_growth(params: ShearParams, cfg: McConfig, traj_len: int) -> np.ndarray:
    """Per-ensemble log |X_N| / |X_0| (L2 norm) after traj_len coin steps from
    X_0 = (0, 1), which lies in the invariant cone of both regimes.  Raises
    DomainError if it is not finite."""
    E = cfg.n_ensembles
    bound = _shear_bound(params)
    u, v, acc = np.zeros(E), np.ones(E), np.zeros(E)
    for done in range(0, traj_len, _COIN_CHUNK):
        n = min(_COIN_CHUNK, traj_len - done)
        coins = _coins(cfg.seed, range(E), done, n)
        (p11, p12, p21, p22), scale = _pairwise_product(
            lambda lo, hi: _shear_steps(params, coins[lo:hi]), n, E, bound)
        u, v = p11 * u + p12 * v, p21 * u + p22 * v
        r2 = np.hypot(u, v)
        acc += scale + np.log(r2)
        u, v = u / r2, v / r2
    if not np.isfinite(acc).all():
        raise DomainError(f"Monte Carlo log growth is not finite at alpha={params.alpha}, "
                          f"beta={params.beta}")
    return acc


def lyapunov_mc(params: ShearParams, cfg: McConfig) -> McEstimate:
    """Lyapunov exponent by vector iteration.

    Returns the mean per-step log growth over all trajectories and the
    standard error across the independent ensemble members (nan for one
    member).  Raises DomainError, before drawing any coin, if it would run more
    than _MAX_APPS (10^10) applications or a shear exceeds _SHEAR_MAX (1e79),
    and if the log growth is not finite.
    """
    E = cfg.n_ensembles
    traj_len = cfg.n_steps // E
    n_apps = _check_cost(E * traj_len)
    means = _iterate_log_growth(params, cfg, traj_len) / traj_len
    mean = float(means.mean())
    se = float(means.std(ddof=1) / math.sqrt(E)) if E > 1 else math.nan
    return McEstimate(mean=mean, std_error=se, n_samples=E, n_apps=n_apps)


def gle_mc(q: float, params: ShearParams, cfg: McConfig) -> McEstimate:
    """Moment growth rate  (1/N) log E |X_N|^q  from an ensemble of trajectories.

    Each trajectory runs n_steps / n_ensembles applications, at most
    _GLE_TRAJ_CAP (200).

    Per-trajectory log norms are combined by log-sum-exp, and the standard
    error comes from a bootstrap over ensemble members.  Warns when the
    importance weights concentrate on too few trajectories (small effective
    sample size), the telltale of the moment estimator's exponential
    variance problem.  Raises DomainError if the log growth is not finite
    (or, like lyapunov_mc, beyond the cost guard or above shears of 1e79).
    """
    traj_len = min(cfg.n_steps // cfg.n_ensembles, _GLE_TRAJ_CAP)
    n_apps = _check_cost(cfg.n_ensembles * traj_len)
    acc = _iterate_log_growth(params, cfg, traj_len)

    z = q * acc
    mx = z.max()
    w = np.exp(z - mx)

    def combine(weights: np.ndarray) -> float:
        return (mx + math.log(weights.mean())) / traj_len

    est = combine(w)
    ess = float(w.sum() ** 2 / (w * w).sum())
    threshold = max(8.0, 0.02 * cfg.n_ensembles)
    if q != 0 and ess < threshold:
        warnings.warn(
            f"effective sample size {ess:.1f} of {cfg.n_ensembles} trajectories; "
            "the moment estimate is likely biased low (rare large excursions "
            "dominate). Reduce the trajectory length or add ensembles.",
            RuntimeWarning,
            stacklevel=2,
        )
    boot_rng = _rng(cfg.seed, 1 << 30)
    E = cfg.n_ensembles
    reps = [combine(w[boot_rng.integers(0, E, size=E)]) for _ in range(_GLE_BOOTSTRAP)]
    return McEstimate(mean=est, std_error=float(np.std(reps, ddof=1)), n_samples=E,
                      n_apps=n_apps)


def standard_bound(
    k: int,
    params: ShearParams,
    mode: str = "exhaustive",
    n_samples: int = 100_000,
    seed: int = 0,
) -> float:
    """Classical submultiplicative upper bound E_k = (1/k) E log |C|_2.

    "exhaustive" averages over all 2^k products of length k (k <= 22 cost
    guard); "sampled" draws n_samples uniform products from a non-negative
    seed; it refuses shears above _SHEAR_MAX (1e79) with DomainError.  E_k
    decreases to the Lyapunov exponent as k grows.  k must be a positive
    integer; anything else raises DomainError.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise DomainError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    if mode == "exhaustive":
        if k > _EXHAUSTIVE_MAX_K:
            raise DomainError(
                f"exhaustive mode enumerates 2^k products; k = {k} exceeds the "
                f"cost guard {_EXHAUSTIVE_MAX_K} (use mode='sampled')"
            )
        S = _SLICE_MATRICES
        p = np.empty((4, 1 << k))  # rows p11, p12, p21, p22; column j is one product
        p[:, :2] = [[1.0, 1.0], [0.0, params.beta], [params.alpha, 0.0], [1.0, 1.0]]  # A, B
        logacc = np.zeros(1 << k)
        tmp, mu = np.empty((2, min(S, 1 << k))), np.empty(min(S, 1 << k))
        for level in range(1, k):
            n = 1 << level
            for lo in range(0, n, S):  # B P into the upper half, then A P in place
                hi = min(lo + S, n)
                low, up, t = p[:, lo:hi], p[:, n + lo:n + hi], tmp[:, :hi - lo]
                up[2:] = low[2:]
                np.multiply(params.beta, low[2:], out=t)
                np.add(low[:2], t, out=up[:2])
                np.multiply(params.alpha, low[:2], out=t)
                np.add(low[2:], t, out=low[2:])
            logacc[n:2 * n] = logacc[:n]
            for lo in range(0, 2 * n, S):  # divide each product by its largest entry
                hi = min(lo + S, 2 * n)
                q, t, m = p[:, lo:hi], tmp[:, :hi - lo], mu[:hi - lo]
                np.abs(q[:2], out=t)
                np.maximum(t[0], t[1], out=m)
                np.abs(q[2:], out=t)
                np.maximum(t[0], t[1], out=t[0])
                np.maximum(m, t[0], out=m)
                q /= m
                logacc[lo:hi] += np.log(m, out=m)
        return _mean_log_norm(p, logacc, k)

    if mode != "sampled":
        raise DomainError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if n_samples < 1:
        raise DomainError(f"sampled mode needs n_samples >= 1, got {n_samples}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    bound = _shear_bound(params)

    def steps(lo, hi):  # one stream: coin t * n_samples + j picks step t of sample j
        coins = _coins(seed, [1 << 29], lo * n_samples, (hi - lo) * n_samples)
        return _shear_steps(params, coins.reshape(hi - lo, n_samples))

    prod, logacc = _pairwise_product(steps, k, n_samples, bound)
    return _mean_log_norm(np.stack(prod), logacc, k)


def _run_lengths(coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode a boolean coin stream: (lengths, first-run value)."""
    change = np.flatnonzero(coins[1:] != coins[:-1])
    starts = np.concatenate([[0], change + 1])
    lengths = np.diff(np.concatenate([starts, [coins.size]]))
    return lengths, coins[0]


def block_oracle(params: ShearParams, cfg: McConfig) -> BlockStats:
    """Group raw coin streams into A^a B^b blocks and report their statistics.

    Checks the geometric block law empirically: mean block length 4, the
    three order comparisons P(a=b), P(a>b), P(a<b) each 1/3, and a Lyapunov
    estimate from the block products that must agree with lyapunov_mc.
    Raises DomainError, before drawing any coin, if the streams hold more
    than _MAX_APPS (10^10) coins, one stream more than _MAX_STREAM_COINS
    (5 * 10^7), or a shear exceeds _SHEAR_MAX (1e79).
    """
    per_stream = cfg.n_steps // cfg.n_ensembles
    _check_cost(cfg.n_ensembles * per_stream)
    if per_stream > _MAX_STREAM_COINS:
        raise DomainError(f"{per_stream:.3g} coins per stream exceed the memory guard "
                          f"{_MAX_STREAM_COINS:.0e}; add ensembles or lower n_steps")
    _shear_bound(params)  # refuses shears above _SHEAR_MAX
    a_streams, b_streams = [], []
    for e in range(cfg.n_ensembles):
        coins = _coins(cfg.seed, [e], 0, per_stream)[:, 0].astype(bool)  # True -> A
        lengths, first_is_a = _run_lengths(coins)
        if not first_is_a:
            lengths = lengths[1:]  # leading B-run belongs to an unseen block
        pairs = max(lengths.size // 2 - 1, 0)  # final block may be truncated by the stream end
        a_streams.append(lengths[0 : 2 * pairs : 2].astype(np.int32))
        b_streams.append(lengths[1 : 2 * pairs : 2].astype(np.int32))
    a, b = np.concatenate(a_streams), np.concatenate(b_streams)
    if a.size == 0:
        raise DomainError("coin streams too short to form a single complete block")
    stats = dict(mean_block_len=float(np.mean(a + b)), p_eq=float(np.mean(a == b)),
                 p_gt=float(np.mean(a > b)), p_lt=float(np.mean(a < b)), n_blocks=a.size)

    # Lyapunov estimate from the block products K(a, b) = A^a B^b applied to (0, 1)
    J = min(s.size for s in a_streams)
    a_mat = np.stack([s[:J] for s in a_streams])
    b_mat = np.stack([s[:J] for s in b_streams])
    steps = int(a_mat.sum() + b_mat.sum())

    def blocks(lo, hi):  # one stream per row of a_mat; the kernel runs time on axis 0
        x, y = params.alpha * a_mat[:, lo:hi].T, params.beta * b_mat[:, lo:hi].T
        return np.broadcast_to(1.0, x.shape), y, x, 1.0 + x * y

    bound = 1.0 + abs(params.alpha * params.beta) * a_mat.max(initial=0) * b_mat.max(initial=0)
    (_, p12, _, p22), scale = _pairwise_product(blocks, J, cfg.n_ensembles, bound)
    acc = scale + np.log(np.hypot(p12, p22))
    return BlockStats(lambda_est=float(acc.sum() / steps) if steps else math.nan, **stats)
