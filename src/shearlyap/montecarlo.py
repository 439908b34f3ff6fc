"""Empirical estimators that validate the analytic bounds.

All randomness flows from numpy's Philox4x64-10 counter-based generator.
The coins of ensemble member e come from the stream keyed by (seed, e): its
key is what ``SeedSequence(entropy=seed, spawn_key=(e,))`` hands to
``np.random.Philox``, and coin c is bit c % 64, least significant first, of
raw word c // 64 that ``random_raw`` returns from a Philox built with that
key; the generator increments its counter before each block of four words,
so block b comes from the counter (b + 1, 0, 0, 0).  Read little-endian, the
words are the stream's bytes: byte j holds coins 8j..8j+7, coin 8j + i in
bit i.  ``_coin_bytes`` derives the keys of all streams at once and runs
Philox4x64-10 in numpy over every (stream, block) of a tile, so no
generator is built per ensemble.  Results are bit-for-bit reproducible for a
fixed config and identical whether the ensembles run serially or in
parallel.

Every random product goes through one kernel, ``_pairwise_product``: the
textbook one-vector Lyapunov estimator (a fair coin picks the shear of each
step), the block oracle and sampled E_k all multiply their step matrices
pairwise in about log2(length) vectorized levels.  Products are held as
four entry arrays, p11, p12, p21 and p22, one element per product, and the
rows of a sub-chunk are laid out in bit-reversed step order, so that each
level multiplies two contiguous halves and pairs the same steps as the
natural order would.  For coin steps the first three levels are a lookup:
each byte of coins indexes a table of the 256 products of eight steps, built
per call by the same levels from the coins of the bytes 0..255, so the
products are the same doubles.  A coin sub-chunk holds at least one byte of
every stream, however wide the ensemble, so only the last length % 8 steps
skip the table.  Sampled E_k draws its one stream in tiles of
_COIN_TILE_WORDS words that span several sub-chunks; the block oracle draws
the packed coins of all its streams at once, finds their runs in pieces of
_RUN_PIECE coins and keeps only their int32 lengths.
Exhaustive E_k uses the same layout, depth first: the products of the first
few factors are doubled in place at each level, B P into the upper half and
then A P over the lower half, which reproduces a 2x2 matrix product bit for
bit; then each of them doubles a tile of at most _SLICE_MATRICES columns of
its own through the remaining levels, so no array holds all 2^k products.
The moment estimator for l(q) is honest about its known weakness; the q-th
moment is dominated by exponentially rare trajectories, so the estimate is
biased low once q * (spread of log growth) becomes large compared to
log(ensemble size).
Keep trajectories short (gle_mc caps them at 200 applications) and
treat the reported effective sample size warning seriously.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import DomainError, ShearParams, _integer, spectral_norm_batch
from .series import NonConvergenceError

__all__ = ["McConfig", "McEstimate", "BlockStats", "RNG_ALGORITHM", "lyapunov_mc", "gle_mc",
           "standard_bound", "block_oracle"]

RNG_ALGORITHM = ("philox4x64-10 (numpy random_raw), stream keyed by (seed, ensemble index), "
                 "64 coins per word, least significant bit first")

_COIN_CHUNK = 1 << 16
_COIN_TILE_WORDS = 1 << 16  # raw Philox words per tile of _coin_bytes
_EXHAUSTIVE_MAX_K = 22
_GLE_TRAJ_CAP = 200  # applications per gle_mc trajectory
_MAX_APPS = 10**10  # cost guard: matrix applications one estimator call may run
# coins in one block_oracle call: it holds the packed coins and the int32 run lengths of
# every stream at once, a peak of 2.9-3.1 B a coin over 1, 2 or 32 streams (tracemalloc,
# 4 * 10^6 coins) and 2.5 B at 10^7 and 10^8 coins, 0.25 GB at the guard
_MAX_TOTAL_COINS = 10**8
# ensembles or samples side by side, about 225 B each (tracemalloc, lyapunov_mc at 200
# steps); lyapunov_mc draws a whole 2^16-step chunk's coin bytes for every ensemble at
# once, so it also refuses more than _MAX_TOTAL_COINS of them (0.9 GB at this width)
_MAX_WIDTH = 4 * 10**6
# step-matrix elements per sub-chunk of _pairwise_product; coin sub-chunks keep 8 rows
_PAIRWISE_BUDGET = 1 << 16
_RUN_PIECE = 1 << 17  # coins block_oracle unpacks at once to find runs; a multiple of 8
_SHEAR_MAX = 1e79  # largest |alpha|, |beta| at which _pairwise_product keeps its accuracy
_SLICE_MATRICES = 1 << 16  # most products in one tile of exhaustive standard_bound
_UNSCALED_MAX = 1e150  # 2 * _UNSCALED_MAX**2 does not overflow


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo effort and reproducibility knobs.

    n_steps counts matrix applications in total, split evenly across the
    n_ensembles independent trajectories (remainder dropped).  The
    standard error is estimated from the spread across ensembles.  Every
    field is an integer; seed is non-negative.  renorm_every has no numerical
    effect (products are rescaled by magnitude).
    """

    n_steps: int
    n_ensembles: int = 32
    seed: int = 0
    renorm_every: int = 1

    def __post_init__(self):
        for name in ("n_steps", "n_ensembles", "seed", "renorm_every"):  # stored as ints
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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


# Philox4x64-10's multipliers and Weyl key increments (Random123, as in numpy)
_PHILOX_M0, _PHILOX_M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_PHILOX_W0, _PHILOX_W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_U32, _SHIFT32 = np.uint64(_M32), np.uint64(32)
# (8, 256): row i holds bit i of each byte 0..255, the coins of its eight steps
_BYTE_COINS = np.unpackbits(np.arange(256, dtype=np.uint8)[None], axis=0, bitorder="little")
_BIT_SHIFTS = np.arange(8, dtype=np.uint8)[:, None]


def _mulhilo(m: np.uint64, x: np.ndarray):
    """(low, high) 64-bit halves of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi = m & _U32, m >> _SHIFT32
    x_lo, x_hi = x & _U32, x >> _SHIFT32
    t = x_lo * m_lo
    u = x_hi * m_lo + (t >> _SHIFT32)
    v = x_lo * m_hi + (u & _U32)
    return x * m, x_hi * m_hi + (u >> _SHIFT32) + (v >> _SHIFT32)


def _philox_words(keys: np.ndarray, b0: int, b1: int) -> np.ndarray:
    """(4 (b1 - b0), len(keys)) uint64: raw words 4 b0 .. 4 b1 - 1 of every stream,
    what np.random.Philox(key=k).random_raw() returns there.  That generator
    increments its counter before each block, so block b is Philox4x64-10 of
    the counter (b + 1, 0, 0, 0)."""
    k0, k1 = keys[:, 0], keys[:, 1]
    zero = np.zeros((1, 1), dtype=np.uint64)
    x = (np.arange(b0 + 1, b1 + 1, dtype=np.uint64)[:, None], zero, zero, zero)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        lo0, hi0 = _mulhilo(_PHILOX_M0, x[0])
        lo1, hi1 = _mulhilo(_PHILOX_M1, x[2])
        x = (hi1 ^ x[1] ^ k0, lo1, hi0 ^ x[3] ^ k1, lo0)
    return np.stack(x, axis=1).reshape(-1, len(keys))  # all (b1 - b0, S) from round 3 on


def _coin_bytes(seed: int, streams, start: int, n: int) -> np.ndarray:
    """(n, len(streams)) uint8: bytes start..start+n-1 of each stream (seed, e).

    Byte j holds coins 8j..8j+7, coin 8j+i in bit i: it is byte j % 8 of raw
    word j // 8 of np.random.Philox(key=k), read little-endian, where k is the
    key that SeedSequence(seed, spawn_key=(e,)) hands to Philox.  A block of
    four words holds 32 bytes.  All streams are drawn at once, in tiles of
    whole blocks of at most _COIN_TILE_WORDS words (one block a stream when
    the streams alone need more), so a stream's bytes do not depend on the
    streams drawn beside it or on the tile size.
    """
    keys = _philox_keys(seed, streams)
    out = np.empty((n, len(keys)), dtype=np.uint8)
    stop = start + n
    per_tile = max(1, _COIN_TILE_WORDS // (4 * len(keys)))  # blocks per tile
    b_stop = -(-stop // 32)
    for b0 in range(start // 32, b_stop, per_tile):
        b1 = min(b0 + per_tile, b_stop)
        words = _philox_words(keys, b0, b1).astype("<u8", copy=False)
        # each stream's bytes in order down axis 0
        by = words.view(np.uint8).reshape(len(words), len(keys), 8).transpose(0, 2, 1)
        lo, hi = max(start, 32 * b0), min(stop, 32 * b1)
        out[lo - start:hi - start] = by.reshape(-1, len(keys))[lo - 32 * b0:hi - 32 * b0]
    return out


def _coins(seed: int, streams, start: int, n: int) -> np.ndarray:
    """(n, len(streams)) int8: coins start..start+n-1 of each stream (seed, e),
    the bits of _coin_bytes, least significant first."""
    b0 = start // 8
    by = _coin_bytes(seed, streams, b0, -(-(start + n) // 8) - b0)
    bits = np.unpackbits(by, axis=0, bitorder="little")
    return bits[start - 8 * b0:start - 8 * b0 + n].view(np.int8)


@functools.lru_cache(maxsize=None)  # n is a power of two: at most 64 entries
def _bit_reversed(n: int) -> np.ndarray:
    """The n = 2^j row indices in bit-reversed order: entry p is p with its j bits reversed."""
    order = np.zeros(1, dtype=np.intp)
    while order.size < n:
        order = np.concatenate([2 * order, 2 * order + 1])
    order.flags.writeable = False  # shared by every caller
    return order


def _pairwise_product(steps, n: int, width: int, bound: float, params=None):
    """((p11, p12, p21, p22), log_scale) with M_{n-1} ... M_0 = exp(log_scale) p, max |p| = 1.

    steps(rows) gives the entries (m11, m12, m21, m22) of the steps numbered by
    the integer array rows as four (len(rows), width) arrays, row r holding step
    rows[r]; each step has determinant 1 and entries at most bound.  Given
    params, step t is instead the shear that coin t picks (_shear_steps), and
    steps(lo, hi) gives the coins of steps lo..hi-1 packed as _coin_bytes packs
    them: bytes lo // 8 .. (hi - 1) // 8 of each column, coin t in bit t % 8 of
    byte t // 8.  Sub-chunks of 2^j rows, at most _PAIRWISE_BUDGET elements but
    at least 8 coin steps (a byte of every stream) or 2 other steps, are reduced
    in j levels that multiply neighbouring steps, later times earlier.  A
    sub-chunk's rows are laid out in bit-reversed step order (_bit_reversed), so
    each level multiplies its second half by its first, row i + h times row i,
    two contiguous halves in place of two strided views; the pairs, and so the
    products, are those of the natural order.  A sub-chunk of 8 or more coin
    steps starts at level 3, from a table of the 256 products of eight steps,
    one per byte, made by the same three levels from the coins of the bytes
    0..255, and gathers its bytes in bit-reversed order (two bytes or fewer are
    their own reversal): every product is the same double as without the table.
    Only the tail of a trajectory, the last n % 8 coin steps, is multiplied from
    its steps.  A
    unit-determinant product has a largest entry of at least 1/sqrt(2) and,
    from entries at most b, at most 2 b^2: levels run unscaled until that
    bound passes _UNSCALED_MAX, then each divides its rows by their largest
    entry and sums the logs.  Entries 1e-308 below a row's largest are lost:
    above shears of about 10^79.3 the one-vector estimator's log growth then
    drifts by more than 1e-10 relative (10^-4 at 1e120), so the estimators
    refuse shears above _SHEAR_MAX (1e79).
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

    def levels(m, s, big):
        """Reduce m, rows in bit-reversed step order, to one row; s is the log scale
        of each row, big bounds its entries."""
        while len(m[0]) > 1:
            if big > _UNSCALED_MAX:
                m, ds = rescale(m)
                s, big = s + ds, math.inf  # rescale every level from here on
            h = len(m[0]) // 2
            m = mul([x[h:] for x in m], [x[:h] for x in m])
            if isinstance(s, np.ndarray):
                s = s[h:] + s[:h]
            big = 2.0 * big * big
        return m, s, big

    if params is not None:  # the products of the eight steps of each byte
        coins = _BYTE_COINS[_bit_reversed(8)]
        table, table_s, table_big = levels(_shear_steps(params, coins), 0.0, bound)
    one, zero = np.ones(width), np.zeros(width)
    total, log_scale = (one, zero, zero, one), zero
    rows = 1 << max(1 if params is None else 3, (_PAIRWISE_BUDGET // width).bit_length() - 1)
    lo = 0
    while lo < n:
        hi = lo + min(rows, 1 << ((n - lo).bit_length() - 1))
        if params is None:
            m, s, big = steps(lo + _bit_reversed(hi - lo)), 0.0, bound  # s: each row's log scale
        elif hi - lo < 8:  # in one byte
            coins = steps(lo, hi) >> _BIT_SHIFTS[lo % 8 + _bit_reversed(hi - lo)] & 1
            m, s, big = _shear_steps(params, coins), 0.0, bound
        else:
            codes = steps(lo, hi)
            if len(codes) > 2:
                codes = codes[_bit_reversed(len(codes))]
            m, big = [np.take(x[0], codes) for x in table], table_big
            s = np.take(table_s[0], codes) if isinstance(table_s, np.ndarray) else 0.0
        m, s, _ = levels(m, s, big)
        total, ds = rescale(mul([x[0] for x in m], total))
        log_scale = log_scale + ds + np.reshape(s, -1)
        lo = hi
    return total, log_scale


def _log_norms(p: np.ndarray, logacc: np.ndarray, k: int) -> np.ndarray:
    """(log |P_j|_2 + logacc_j) / k for each column j, where the rows of the (4, n)
    array p are the entries p11, p12, p21, p22 of the products P_j."""
    vals = spectral_norm_batch(p.T.reshape(-1, 2, 2))  # a view: row j of p.T is P_j
    np.log(vals, out=vals)
    vals += logacc
    vals /= k
    return vals


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


def _check_cost(n_apps: int, width: int) -> int:
    if n_apps > _MAX_APPS:
        raise DomainError(f"{n_apps:.3g} matrix applications exceed the cost guard "
                          f"{_MAX_APPS:.0e}; lower n_steps")
    if width > _MAX_WIDTH:
        raise DomainError(f"{width:.3g} ensembles or samples exceed the memory guard "
                          f"{_MAX_WIDTH:.0e}")
    return n_apps


def _iterate_log_growth(params: ShearParams, cfg: McConfig, traj_len: int) -> np.ndarray:
    """Per-ensemble log |X_N| / |X_0| (L2 norm) after traj_len coin steps from
    X_0 = (0, 1), which lies in the invariant cone of both regimes.  Raises
    DomainError if it is not finite, and before drawing any coin if a chunk's
    coin bytes, drawn for every ensemble at once, exceed _MAX_TOTAL_COINS."""
    E = cfg.n_ensembles
    chunk_bytes = E * -(-min(traj_len, _COIN_CHUNK) // 8)
    if chunk_bytes > _MAX_TOTAL_COINS:
        raise DomainError(f"{E} ensembles of {traj_len} steps draw {chunk_bytes:.3g} coin bytes "
                          f"a chunk, above the memory guard {_MAX_TOTAL_COINS:.0e}; "
                          "lower n_ensembles")
    bound = _shear_bound(params)
    u, v, acc = np.zeros(E), np.ones(E), np.zeros(E)
    for done in range(0, traj_len, _COIN_CHUNK):
        n = min(_COIN_CHUNK, traj_len - done)
        by = _coin_bytes(cfg.seed, range(E), done // 8, -(-n // 8))
        (p11, p12, p21, p22), scale = _pairwise_product(
            lambda lo, hi: by[lo // 8:-(-hi // 8)], n, E, bound, params)
        del by  # freed before the next chunk's bytes are drawn
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
    member).  Raises DomainError, before drawing any coin, above _MAX_APPS (10^10)
    applications, _MAX_WIDTH (4 * 10^6) ensembles, _MAX_TOTAL_COINS (10^8) coin
    bytes in a chunk of 2^16 steps of every ensemble or shears of _SHEAR_MAX (1e79),
    and if the log growth is not finite.
    """
    E = cfg.n_ensembles
    traj_len = cfg.n_steps // E
    n_apps = _check_cost(E * traj_len, E)
    means = _iterate_log_growth(params, cfg, traj_len) / traj_len
    mean = float(means.mean())
    se = float(means.std(ddof=1) / math.sqrt(E)) if E > 1 else math.nan
    return McEstimate(mean=mean, std_error=se, n_samples=E, n_apps=n_apps)


def gle_mc(q: float, params: ShearParams, cfg: McConfig) -> McEstimate:
    """Moment growth rate  (1/N) log E |X_N|^q  from an ensemble of trajectories.

    Each trajectory runs n_steps / n_ensembles applications, at most
    _GLE_TRAJ_CAP (200).

    Per-trajectory log norms are combined by log-sum-exp, and the standard
    error is the delta-method one of the log of the mean importance weight
    (nan for one trajectory).  Warns when the importance weights concentrate
    on too few trajectories (small effective sample size), the telltale of
    the moment estimator's exponential variance problem.  Raises DomainError
    for a q that is not finite (before drawing any coin) or a log growth that
    is not finite (or, like lyapunov_mc, beyond the cost and width guards or
    above shears of 1e79), and NonConvergenceError for an estimate below
    -log 2, which no moment rate of these products reaches.
    """
    if not math.isfinite(q):
        raise DomainError(f"q must be finite, got {q}")
    traj_len = min(cfg.n_steps // cfg.n_ensembles, _GLE_TRAJ_CAP)
    n_apps = _check_cost(cfg.n_ensembles * traj_len, cfg.n_ensembles)
    acc = _iterate_log_growth(params, cfg, traj_len)

    z = q * acc
    mx = z.max()
    w = np.exp(z - mx)
    mean_w = w.mean()
    est = float((mx + math.log(mean_w)) / traj_len)
    ess = float(w.sum() ** 2 / (w * w).sum())
    if est < -math.log(2.0):  # the all-A coins keep |X_N| = 1 with probability 2^-N
        raise NonConvergenceError(
            f"moment estimate {est:.6f} lies below -log 2 = -0.693147, the least moment rate: "
            f"effective sample size {ess:.1f} of {cfg.n_ensembles} trajectories")
    threshold = max(8.0, 0.02 * cfg.n_ensembles)
    if q != 0 and ess < threshold:
        warnings.warn(
            f"effective sample size {ess:.1f} of {cfg.n_ensembles} trajectories; "
            "the moment estimate is likely biased low (rare large excursions "
            "dominate). Reduce the trajectory length or add ensembles.",
            RuntimeWarning,
            stacklevel=2,
        )
    E = cfg.n_ensembles
    # delta method: sd(log mean w) = sd(w) / (sqrt(E) mean w) to first order
    se = float(w.std(ddof=1) / (math.sqrt(E) * mean_w) / traj_len) if E > 1 else math.nan
    return McEstimate(mean=est, std_error=se, n_samples=E, n_apps=n_apps)


def _double(p: np.ndarray, logacc: np.ndarray, n: int, params: ShearParams) -> None:
    """One level of exhaustive E_k, in place: from the products P_j in columns
    0..n-1 of p, column n + j becomes B P_j and column j A P_j, and each of the
    2n columns is divided by its largest entry, whose log joins logacc.  Every
    column's doubles depend on that column's own operations alone."""
    low, up = p[:, :n], p[:, n:2 * n]
    up[2:] = low[2:]
    np.multiply(params.beta, low[2:], out=up[:2])
    up[:2] += low[:2]
    np.multiply(params.alpha, low[:2], out=low[2:])
    low[2:] += up[2:]
    q = p[:, :2 * n]
    mu = np.abs(q).max(axis=0)
    q /= mu
    logm = np.log(mu, out=mu)
    np.add(logacc[:n], logm[n:], out=logacc[n:2 * n])
    logacc[:n] += logm[:n]


@np.errstate(over="ignore", invalid="ignore")  # at huge shears; standard_bound refuses them
def _exhaustive_bound(k: int, params: ShearParams) -> float:
    """E_k over all 2^k products, depth first: the 2^m products of the first m
    factors, then for each of them a tile of its 2^(k - m) extensions, doubled
    level by level (_double) in a (4, 2^(k - m)) buffer of its own.  Bit i of
    product j = c + 2^m t is set where level i applied B; it is column t of prefix
    c's tile, and its value lands in row t, column c of a (2^(k - m), 2^m) view of
    vals.  So vals is in the order one (4, 2^k) array doubled level by level
    would hold, and its mean adds the same doubles in the same order."""
    levels = min(k - 1, _SLICE_MATRICES.bit_length() - 1)  # levels doubled in a tile
    m = k - levels
    p = np.empty((4, 1 << m))  # rows p11, p12, p21, p22; column j is one product
    p[:, :2] = [[1.0, 1.0], [0.0, params.beta], [params.alpha, 0.0], [1.0, 1.0]]  # A, B
    logacc = np.zeros(1 << m)
    for level in range(1, m):
        _double(p, logacc, 1 << level, params)
    vals = np.empty(1 << k)
    by_tile = vals.reshape(1 << levels, 1 << m)
    tile, tile_acc = np.empty((4, 1 << levels)), np.empty(1 << levels)
    for c in range(1 << m):
        tile[:, 0], tile_acc[0] = p[:, c], logacc[c]
        for level in range(levels):
            _double(tile, tile_acc, 1 << level, params)
        by_tile[:, c] = _log_norms(tile, tile_acc, k)
    return float(vals.mean())


def standard_bound(
    k: int,
    params: ShearParams,
    mode: str = "exhaustive",
    n_samples: int = 100_000,
    seed: int = 0,
) -> float:
    """Classical submultiplicative upper bound E_k = (1/k) E log |C|_2.

    "exhaustive" averages over all 2^k products of length k (k <= 22 cost
    guard) and raises DomainError where E_k overflows double precision;
    "sampled" draws n_samples uniform products from a non-negative
    seed; it refuses too costly or wide calls and shears as lyapunov_mc does.  E_k
    decreases to the Lyapunov exponent as k grows.  k, and in sampled mode
    n_samples and seed, must be integers; anything else raises DomainError.
    """
    k = _integer("k", k)
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    if mode == "exhaustive":
        if k > _EXHAUSTIVE_MAX_K:
            raise DomainError(
                f"exhaustive mode enumerates 2^k products; k = {k} exceeds the "
                f"cost guard {_EXHAUSTIVE_MAX_K} (use mode='sampled')"
            )
        value = _exhaustive_bound(k, params)
        if not math.isfinite(value):
            raise DomainError(f"exhaustive E_{k} overflows double precision at "
                              f"alpha={params.alpha}, beta={params.beta}")
        return value

    if mode != "sampled":
        raise DomainError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    n_samples, seed = _integer("n_samples", n_samples), _integer("seed", seed)
    if n_samples < 1:
        raise DomainError(f"sampled mode needs n_samples >= 1, got {n_samples}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    _check_cost(k * n_samples, n_samples)
    bound = _shear_bound(params)
    tile_steps = 64 * _COIN_TILE_WORDS // n_samples  # steps whose coins fill a tile's words
    tile, tile_lo, tile_hi = None, 0, 0  # the coins drawn last, of steps tile_lo..tile_hi-1

    def steps(lo, hi):  # one stream: coin t * n_samples + j picks step t of sample j
        nonlocal tile_lo, tile_hi, tile
        if hi > tile_hi:  # the coins of the next sub-chunks, or of one larger than a tile
            tile_lo, tile_hi = lo, min(k, lo + max(hi - lo, tile_steps))
            tile = _coins(seed, [1 << 29], lo * n_samples, (tile_hi - lo) * n_samples)
        coins = tile[(lo - tile_lo) * n_samples:(hi - tile_lo) * n_samples]
        g = min(8, hi - lo)  # steps per byte; fewer than 8 lie in one byte, from bit lo % 8
        bits = coins.view(np.uint8).reshape(-1, g, n_samples) << _BIT_SHIFTS[lo % 8:lo % 8 + g]
        return bits.sum(axis=1, dtype=np.uint8)  # np.packbits(axis=0) took 10 times longer

    prod, logacc = _pairwise_product(steps, k, n_samples, bound, params)
    return float(_log_norms(np.stack(prod), logacc, k).mean())


def _run_ends(by: np.ndarray, n: int):
    """Yields (e0, t0, ends) over pieces of the n coins of each stream packed in
    by, a stream a column as _coin_bytes returns them.  ends[r, i] is True where
    coin t0 + i of stream e0 + r ends a run: coin n - 1, or one the next coin
    differs from.  A piece holds at most _RUN_PIECE coins (a multiple of 8),
    whole streams side by side (t0 = 0) or part of one; it unpacks one coin past
    its end, so no piece depends on another."""
    w = min(n, _RUN_PIECE)  # coins of a stream in a piece
    g = max(1, _RUN_PIECE // w)  # streams in a piece
    for e0 in range(0, by.shape[1], g):
        for t0 in range(0, n, w):
            count = min(w + 1, n - t0)
            coins = np.unpackbits(by[t0 // 8:-(-(t0 + count) // 8), e0:e0 + g].T, axis=1,
                                  count=count, bitorder="little")
            ends = np.ones((len(coins), min(w, count)), dtype=bool)
            np.not_equal(coins[:, :count - 1], coins[:, 1:], out=ends[:, :count - 1])
            yield e0, t0, ends


def _range_totals(ufunc, x: np.ndarray, lo: np.ndarray, count) -> np.ndarray:
    """ufunc.reduce of x[lo[e]:lo[e] + count[e]] for each e, in x's dtype; the
    ranges are not empty, do not overlap and come in order."""
    hi = lo + count
    edges = np.stack([lo, hi], axis=1).ravel()[:-1]  # the last range ends x[:hi[-1]]
    return ufunc.reduceat(x[:hi[-1]], edges, dtype=x.dtype)[::2]


def block_oracle(params: ShearParams, cfg: McConfig) -> BlockStats:
    """Group raw coin streams into A^a B^b blocks and report their statistics.

    Checks the geometric block law empirically: mean block length 4, the
    three order comparisons P(a=b), P(a>b), P(a<b) each 1/3, and a Lyapunov
    estimate from the block products that must agree with lyapunov_mc.  The
    coins of all streams are drawn packed in one _coin_bytes call (a stream's
    bytes do not depend on the streams beside it), and their runs found in
    pieces of _RUN_PIECE coins (_run_ends) in two passes: the first counts each
    stream's runs, the second writes every run length once into one int32
    array.  Besides the packed coins and that array, the statistics hold a few
    bytes a block at most.  They are exact counts and sums over each stream's
    blocks, divided once.
    Raises DomainError, before drawing any coin, above _MAX_APPS (10^10) coins,
    _MAX_WIDTH (4 * 10^6) streams, _MAX_TOTAL_COINS (10^8) coins in all, however
    many streams hold them, or shears of _SHEAR_MAX (1e79); and, once the runs
    are counted, where a stream holds no complete block, since the Lyapunov
    estimate takes the same number of blocks from every stream.
    """
    E, n = cfg.n_ensembles, cfg.n_steps // cfg.n_ensembles
    total = _check_cost(E * n, E)
    if total > _MAX_TOTAL_COINS:
        raise DomainError(f"{total:.3g} coins in all exceed the memory guard "
                          f"{_MAX_TOTAL_COINS:.0e}; lower n_steps")
    _shear_bound(params)  # refuses shears above _SHEAR_MAX
    by = _coin_bytes(cfg.seed, range(E), 0, -(-n // 8))  # coin 1 picks A
    runs = np.zeros(E, dtype=np.int64)
    for e0, _, ends in _run_ends(by, n):
        # along an axis numpy sums the bools, several times slower than one count
        runs[e0:e0 + len(ends)] += (np.count_nonzero(ends) if len(ends) == 1
                                    else np.count_nonzero(ends, axis=1))
    # a leading B-run belongs to an unseen block; whole blocks only, as the
    # final one may be truncated by the stream end
    leading_b = (by[0] & 1) == 0
    pairs = (runs - leading_b) // 2 - 1
    empty = int(np.count_nonzero(pairs <= 0))
    if empty:
        raise DomainError(f"{empty} of {E} coin streams hold no complete block; "
                          "raise n_steps or lower n_ensembles")
    # every run, stream after stream, with a zero before a stream where that puts
    # its first A-run at an even index: a_j of stream e is lengths[2 (h[e] + j)]
    # and b_j the entry after it, for j < pairs[e].  Stream e's runs start at
    # start[e] = start[e - 1] + runs[e - 1] + pad[e], which must have the parity
    # of leading_b[e], as start[e - 1] has that of leading_b[e - 1]
    pad = (np.concatenate(([0], (runs + leading_b)[:-1])) + leading_b) % 2
    start = np.cumsum(runs + pad) - runs
    h = (start + leading_b) // 2
    lengths = np.empty(int(start[-1] + runs[-1]), dtype=np.int32)
    k, last = 0, -1  # entries written, and where the last run ends in the streams end to end
    for e0, t0, ends in _run_ends(by, n):
        base = e0 * n + t0
        prev, pos = last - base, np.flatnonzero(ends)  # run ends, from the piece's first coin
        if t0 == 0:  # its streams start here: a pad is a run that ends where the last did
            r = runs[e0:e0 + len(ends)]
            at = (np.cumsum(r) - r)[pad[e0:e0 + len(ends)] == 1]
            pos = np.insert(pos, at, np.concatenate(([prev], pos))[at])
        if pos.size:
            lengths[k] = pos[0] - prev
            np.subtract(pos[1:], pos[:-1], out=lengths[k + 1:k + pos.size])
            k, last = k + pos.size, base + pos[-1]
    del by

    # A stream's sums are at most its n <= _MAX_TOTAL_COINS coins: int32 holds them
    a, b = lengths[0::2], lengths[1::2]
    J, n_blocks = int(pairs.min()), int(pairs.sum())  # the Lyapunov estimate takes J a stream
    block_sum = int(_range_totals(np.add, lengths, 2 * h, 2 * pairs).sum())
    steps = int(_range_totals(np.add, lengths, 2 * h, 2 * J).sum())
    a_max = int(_range_totals(np.maximum, a, h, J).max())
    b_max = int(_range_totals(np.maximum, b, h, J).max())
    # True on the blocks, False on the pads and the runs no block holds
    gaps = h - np.concatenate(([0], (h + pairs)[:-1]))
    kept = np.repeat(np.resize([False, True], 2 * E), np.stack([gaps, pairs], axis=1).ravel())
    m = kept.size

    def count(compare):  # the blocks whose a and b compare so
        found = compare(a[:m], b[:m])
        found &= kept
        return int(np.count_nonzero(found))

    eq, gt = count(np.equal), count(np.greater)
    del kept
    stats = dict(mean_block_len=block_sum / n_blocks, p_eq=eq / n_blocks, p_gt=gt / n_blocks,
                 p_lt=(n_blocks - eq - gt) / n_blocks, n_blocks=n_blocks)

    # Lyapunov estimate from the block products K(a, b) = A^a B^b applied to (0, 1)
    def blocks(rows):  # gathers int32 run lengths; the kernel runs time on axis 0
        at = h + rows[:, None]
        x, y = params.alpha * a[at], params.beta * b[at]
        return np.broadcast_to(1.0, x.shape), y, x, 1.0 + x * y

    bound = 1.0 + abs(params.alpha * params.beta) * a_max * b_max
    (_, p12, _, p22), scale = _pairwise_product(blocks, J, E, bound)
    acc = scale + np.log(np.hypot(p12, p22))
    return BlockStats(lambda_est=float(acc.sum() / steps), **stats)
