import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shearlyap import (
    BlockStats,
    BoundFamily,
    DomainError,
    McConfig,
    NonConvergenceError,
    ShearParams,
    block_oracle,
    entropy_bounds,
    gle_bounds,
    gle_mc,
    lyapunov_bounds,
    linalg,
    lyapunov_mc,
    montecarlo,
    spectral_norm_batch,
    standard_bound,
)

POS11 = ShearParams.infer(1.0, 1.0)
OPP33 = ShearParams.infer(-3.0, 3.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# the paper's strengths, 1e75, where products of two steps already reach
# 1e150 and every level above the first rescales, and the largest shears the
# estimators accept (montecarlo._SHEAR_MAX)
KERNEL_PARAMS = [(1.0, 1.0), (10.0, 10.0), (50.0, 50.0), (-3.0, 3.0), (-10.0, 10.0),
                 (1e75, 1e75), (1e79, 1e79), (-1e79, 1e79)]


# ---------------------------------------------------------------- references
# Straightforward loops, one matrix application at a time, that the pairwise
# kernel must reproduce up to rounding.  They draw the same Philox streams,
# each from its own numpy Philox and one coin at a time.

class ReferenceStream:
    """Coins of stream (seed, e) in order, from a numpy Philox seeded the
    documented way: coin c is bit c % 64, least significant first, of raw
    word c // 64."""

    def __init__(self, seed, stream, start=0):
        self.bitgen = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
        self.bitgen.random_raw(start // 64)
        self.bits = []
        self.draw(start % 64)

    def draw(self, n):
        while len(self.bits) < n:
            word = int(self.bitgen.random_raw())
            self.bits += [word >> j & 1 for j in range(64)]
        out, self.bits = self.bits[:n], self.bits[n:]
        return np.array(out, dtype=np.int8)


def reference_coins(seed, streams, start, n):
    """montecarlo._coins by one reference stream per ensemble that skips `start` coins."""
    out = np.empty((n, len(streams)), dtype=np.int8)
    for j, e in enumerate(streams):
        out[:, j] = ReferenceStream(seed, e, start).draw(n)
    return out


def reference_coin_bytes(seed, streams, start, n):
    """montecarlo._coin_bytes by packing reference_coins: byte j holds coins
    8j..8j+7, coin 8j + i in bit i."""
    return np.packbits(reference_coins(seed, streams, 8 * start, 8 * n), axis=0,
                       bitorder="little")


def reference_log_growth(params, cfg, traj_len):
    """Per-ensemble log |X_N| / |X_0| by one shear per step from X_0 = (0, 1)."""
    alpha, beta = params.alpha, params.beta
    E = cfg.n_ensembles
    rngs = [ReferenceStream(cfg.seed, e) for e in range(E)]
    u, v, acc = np.zeros(E), np.ones(E), np.zeros(E)
    done = step_in_cycle = 0
    while done < traj_len:
        n = min(montecarlo._COIN_CHUNK, traj_len - done)
        coins = np.empty((n, E))
        for e, r in enumerate(rngs):
            coins[:, e] = r.draw(n)
        for t in range(n):
            m = coins[t]
            u += beta * v * (1.0 - m)  # upper shear where the coin chose B
            v += alpha * u * m  # lower shear where it chose A
            step_in_cycle += 1
            if step_in_cycle == cfg.renorm_every:
                r2 = np.sqrt(u * u + v * v)
                acc += np.log(r2)
                u /= r2
                v /= r2
                step_in_cycle = 0
        done += n
    return acc + np.log(np.sqrt(u * u + v * v))


def run_lengths(coins):
    """(the lengths of the runs of equal coins, the first coin)."""
    return np.array([len(list(run)) for _, run in itertools.groupby(coins.tolist())]), coins[0]


def reference_block_lambda(params, cfg):
    """block_oracle's lambda by one block matrix K(a, b) at a time."""
    per_stream = cfg.n_steps // cfg.n_ensembles
    a_streams, b_streams = [], []
    for r in (ReferenceStream(cfg.seed, e) for e in range(cfg.n_ensembles)):
        lengths, first_is_a = run_lengths(r.draw(per_stream))
        if not first_is_a:
            lengths = lengths[1:]
        pairs = max(lengths.size // 2 - 1, 0)
        a_streams.append(lengths[0 : 2 * pairs : 2])
        b_streams.append(lengths[1 : 2 * pairs : 2])
    J = min(a.size for a in a_streams)
    x_mat = np.stack([s[:J] for s in a_streams]) * params.alpha
    y_mat = np.stack([s[:J] for s in b_streams]) * params.beta
    steps = sum(int(s[:J].sum()) for s in a_streams + b_streams)
    u, v, acc = np.zeros(cfg.n_ensembles), np.ones(cfg.n_ensembles), np.zeros(cfg.n_ensembles)
    for j in range(J):
        x, y = x_mat[:, j], y_mat[:, j]
        u, v = u + y * v, x * u + (1.0 + x * y) * v
        r2 = np.sqrt(u * u + v * v)
        acc += np.log(r2)
        u /= r2
        v /= r2
    return acc.sum() / steps


def reference_sampled_bound(k, params, n_samples, seed):
    """Sampled E_k by multiplying both shears into every product at each step."""
    A = np.array([[1.0, 0.0], [params.alpha, 1.0]])
    B = np.array([[1.0, params.beta], [0.0, 1.0]])
    rng = ReferenceStream(seed, 1 << 29)
    P = np.broadcast_to(np.eye(2), (n_samples, 2, 2)).copy()
    logacc = np.zeros(n_samples)
    for t in range(k):
        coin = rng.draw(n_samples).astype(bool)
        PA = np.einsum("ij,njk->nik", A, P)
        PB = np.einsum("ij,njk->nik", B, P)
        P = np.where(coin[:, None, None], PA, PB)
        if (t + 1) % 32 == 0:
            mu = np.abs(P).max(axis=(1, 2))
            P /= mu[:, None, None]
            logacc += np.log(mu)
    return float(((np.log(spectral_norm_batch(P)) + logacc) / k).mean())


def reference_exhaustive_bound(k, params):
    """Exhaustive E_k as computed before its reductions were sliced: each level
    concatenates both einsum products and takes np.abs of all of them at once.
    Returns E_k, the (2^k, 2, 2) rescaled products and their log scales."""
    A = np.array([[1.0, 0.0], [params.alpha, 1.0]])
    B = np.array([[1.0, params.beta], [0.0, 1.0]])
    P = np.stack([A, B])
    logacc = np.zeros(2)
    for _ in range(k - 1):
        P = np.concatenate([np.einsum("ij,njk->nik", A, P), np.einsum("ij,njk->nik", B, P)])
        mu = np.abs(P).max(axis=(1, 2))
        P /= mu[:, None, None]
        logacc = np.concatenate([logacc, logacc]) + np.log(mu)
    g11 = P[:, 0, 0] ** 2 + P[:, 1, 0] ** 2
    g12 = P[:, 0, 0] * P[:, 0, 1] + P[:, 1, 0] * P[:, 1, 1]
    g22 = P[:, 0, 1] ** 2 + P[:, 1, 1] ** 2
    norms = np.sqrt(np.maximum(0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), g12), 0.0))
    return float(((np.log(norms) + logacc) / k).mean()), P, logacc


def natural_order_product(steps, n, width, bound, params=None):
    """montecarlo._pairwise_product with its rows in natural step order: each
    level multiplies the strided views x[1::2] (later) and x[0::2] (earlier),
    and steps(lo, hi) gives steps lo..hi-1 (coins packed as there, given params)."""
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
        while len(m[0]) > 1:
            if big > montecarlo._UNSCALED_MAX:
                m, ds = rescale(m)
                s, big = s + ds, math.inf
            m = mul([x[1::2] for x in m], [x[0::2] for x in m])
            if isinstance(s, np.ndarray):
                s = s[1::2] + s[0::2]
            big = 2.0 * big * big
        return m, s, big

    shifts = montecarlo._BIT_SHIFTS
    if params is not None:
        table, table_s, table_big = levels(
            montecarlo._shear_steps(params, montecarlo._BYTE_COINS), 0.0, bound)
    one, zero = np.ones(width), np.zeros(width)
    total, log_scale = (one, zero, zero, one), zero
    rows = 1 << max(1 if params is None else 3,
                    (montecarlo._PAIRWISE_BUDGET // width).bit_length() - 1)
    lo = 0
    while lo < n:
        hi = lo + min(rows, 1 << ((n - lo).bit_length() - 1))
        if params is None:
            m, s, big = steps(lo, hi), 0.0, bound
        elif hi - lo < 8:
            coins = steps(lo, hi) >> shifts[lo % 8:hi - lo + lo % 8] & 1
            m, s, big = montecarlo._shear_steps(params, coins), 0.0, bound
        else:
            codes = steps(lo, hi)
            m, big = [np.take(x[0], codes) for x in table], table_big
            s = np.take(table_s[0], codes) if isinstance(table_s, np.ndarray) else 0.0
        m, s, _ = levels(m, s, big)
        total, ds = rescale(mul([x[0] for x in m], total))
        log_scale = log_scale + ds + np.reshape(s, -1)
        lo = hi
    return total, log_scale


def reference_block_oracle(params, cfg):
    """block_oracle one stream at a time: each stream's coins from its own _coins
    call, the statistics by np.mean over the concatenated blocks, and lambda by
    natural_order_product over the first J blocks of every stream."""
    per_stream = cfg.n_steps // cfg.n_ensembles
    a_streams, b_streams = [], []
    for e in range(cfg.n_ensembles):
        lengths, first_is_a = run_lengths(montecarlo._coins(cfg.seed, [e], 0, per_stream)[:, 0])
        if not first_is_a:
            lengths = lengths[1:]
        pairs = max(lengths.size // 2 - 1, 0)
        a_streams.append(lengths[0 : 2 * pairs : 2])
        b_streams.append(lengths[1 : 2 * pairs : 2])
    a, b = np.concatenate(a_streams), np.concatenate(b_streams)
    J = min(s.size for s in a_streams)
    a_mat = np.stack([s[:J] for s in a_streams])
    b_mat = np.stack([s[:J] for s in b_streams])

    def blocks(lo, hi):
        x, y = params.alpha * a_mat[:, lo:hi].T, params.beta * b_mat[:, lo:hi].T
        return np.broadcast_to(1.0, x.shape), y, x, 1.0 + x * y

    bound = 1.0 + abs(params.alpha * params.beta) * a_mat.max(initial=0) * b_mat.max(initial=0)
    (_, p12, _, p22), scale = natural_order_product(blocks, J, cfg.n_ensembles, bound)
    acc = scale + np.log(np.hypot(p12, p22))
    return BlockStats(mean_block_len=float(np.mean(a + b)), p_eq=float(np.mean(a == b)),
                      p_gt=float(np.mean(a > b)), p_lt=float(np.mean(a < b)),
                      lambda_est=float(acc.sum() / int(a_mat.sum() + b_mat.sum())),
                      n_blocks=a.size)


def tightest_envelope(params):
    g = lyapunov_bounds(params).envelope
    i = lyapunov_bounds(params, BoundFamily.IMPROVED).envelope
    return max(g.lower, i.lower), min(g.upper, i.upper)


class TestPairwiseKernel:
    @pytest.mark.parametrize("alpha,beta", KERNEL_PARAMS)
    @pytest.mark.parametrize("n_ensembles,traj_len", [(1, 600), (6, 1001), (5, 512),
                                                      (6, 8 * 7 + 3)])
    @pytest.mark.parametrize("budget", [None, 40, 12])
    def test_matches_per_step_loop(self, monkeypatch, alpha, beta, n_ensembles, traj_len,
                                   budget):
        # budget 40 makes sub-chunks of 32 rows for one ensemble and 8 rows, a
        # byte of coins, for 6 and 5; budget 12 leaves 6 and 5 ensembles 2
        # elements each, and their sub-chunks still hold 8 rows.  Lengths that
        # are not a multiple end in shorter power-of-two tails
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", budget)
        params = ShearParams.infer(alpha, beta)
        cfg = McConfig(n_ensembles * traj_len, n_ensembles, seed=41)
        got = montecarlo._iterate_log_growth(params, cfg, traj_len)
        want = reference_log_growth(params, cfg, traj_len)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("width,budget", [(9000, None), (6, 12), (20_000, None)])
    def test_sub_chunk_rows(self, monkeypatch, width, budget):
        # above budget // 8 streams, coin sub-chunks hold 8 rows and other
        # steps 2 (or 4); only the last n % 8 coin steps go without the table
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", budget)
        spans = []

        def coin_bytes(lo, hi):
            spans.append(hi - lo)
            return np.zeros((-(-hi // 8) - lo // 8, width), dtype=np.uint8)

        def steps(rows):
            spans.append(len(rows))
            return montecarlo._shear_steps(POS11, np.zeros((len(rows), width), dtype=np.int8))

        montecarlo._pairwise_product(coin_bytes, 8 * 5 + 7, width, 1.0, POS11)
        assert spans == [8] * 5 + [4, 2, 1]
        spans.clear()
        montecarlo._pairwise_product(steps, 8, width, 1.0)
        other = 1 << max(1, (montecarlo._PAIRWISE_BUDGET // width).bit_length() - 1)
        assert other < 8 and spans == [other] * (8 // other)

    def test_matches_above_the_byte_width(self):
        # 9000 ensembles: 2^16 // 9000 = 7 elements a stream, under a byte
        params = ShearParams.infer(10.0, 10.0)
        cfg = McConfig(9000 * 40, 9000, seed=48)
        got = montecarlo._iterate_log_growth(params, cfg, 40)
        want = reference_log_growth(params, cfg, 40)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_matches_beyond_one_coin_chunk(self):
        traj_len = montecarlo._COIN_CHUNK + 777
        cfg = McConfig(2 * traj_len, 2, seed=42)
        p = ShearParams.infer(10.0, 10.0)
        got = montecarlo._iterate_log_growth(p, cfg, traj_len)
        want = reference_log_growth(p, cfg, traj_len)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("alpha,beta", KERNEL_PARAMS)
    @pytest.mark.parametrize("rows", [8, 16, 32])
    @pytest.mark.parametrize("tail", range(1, 8))
    def test_eight_step_table_with_short_tails(self, monkeypatch, alpha, beta, rows, tail):
        # three ensembles and a budget of 3 * rows make sub-chunks of `rows`
        # steps, each started from the table, then a tail of 4, 2 and 1 steps
        monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", 3 * rows)
        params = ShearParams.infer(alpha, beta)
        traj_len = 3 * rows + tail
        cfg = McConfig(3 * traj_len, 3, seed=45)
        got = montecarlo._iterate_log_growth(params, cfg, traj_len)
        want = reference_log_growth(params, cfg, traj_len)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("alpha,beta", KERNEL_PARAMS)
    @pytest.mark.parametrize("width,n,budget", [(3, 1000, None), (1, 301, 40), (5, 77, 40),
                                                (7, 8, 56), (300, 999, None)])
    def test_eight_step_table_gives_the_same_doubles(self, monkeypatch, alpha, beta, width, n,
                                                     budget):
        # the kernel fed the four entry arrays of every step, without the table
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", budget)
        params = ShearParams.infer(alpha, beta)
        bound = montecarlo._shear_bound(params)
        by = montecarlo._coin_bytes(46, range(width), 0, -(-n // 8))
        coins = np.unpackbits(by, axis=0, count=n, bitorder="little")
        got = montecarlo._pairwise_product(lambda lo, hi: by[lo // 8:-(-hi // 8)], n, width,
                                           bound, params)
        want = montecarlo._pairwise_product(
            lambda rows: montecarlo._shear_steps(params, coins[rows]), n, width, bound)
        for g, w in zip([*got[0], got[1]], [*want[0], want[1]]):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (50.0, 50.0), (-3.0, 3.0)])
    @pytest.mark.parametrize("budget", [None, 40, 14])
    def test_block_oracle_matches_per_block_loop(self, monkeypatch, alpha, beta, budget):
        # seven streams: budget 40 makes sub-chunks of 4 blocks, budget 14 of 2
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", budget)
        params = ShearParams.infer(alpha, beta)
        cfg = McConfig(n_steps=100_000, n_ensembles=7, seed=43)
        got = block_oracle(params, cfg).lambda_est
        assert got == pytest.approx(reference_block_lambda(params, cfg), rel=1e-10)

    @pytest.mark.parametrize("k,n_samples,alpha,budget", [
        (64, 500, 1.0, None), (1024, 4000, 5.0, None),
        # five samples and a budget of 5 * rows make sub-chunks of `rows` steps
        # and tails of 1-7 steps; a sample's eight steps are packed from coins
        # 5 apart, and a tail's first coin need not start a byte of the stream
        *[(2 * rows + tail, 5, 5.0, 5 * rows) for rows in (8, 16, 32) for tail in (1, 3, 6, 7)]])
    def test_sampled_bound_matches_two_einsum_loop(self, monkeypatch, k, n_samples, alpha,
                                                   budget):
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", budget)
        params = ShearParams.infer(alpha, alpha)
        got = standard_bound(k, params, mode="sampled", n_samples=n_samples, seed=44)
        assert got == pytest.approx(reference_sampled_bound(k, params, n_samples, 44), rel=1e-12)


class TestBitReversedRows:
    """_pairwise_product lays out each sub-chunk's rows in bit-reversed order
    and returns the doubles of natural_order_product, bit for bit."""

    @staticmethod
    def assert_same(got, want):
        for g, w in zip([*got[0], got[1]], [*want[0], want[1]]):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 64, 1024])
    def test_bit_reversed_order(self, n):
        order = montecarlo._bit_reversed(n)
        j = n.bit_length() - 1
        assert order.tolist() == [int(format(p, f"0{j}b")[::-1] or "0", 2) for p in range(n)]
        assert montecarlo._bit_reversed(n) is order and not order.flags.writeable

    @pytest.mark.parametrize("alpha,beta", KERNEL_PARAMS)
    @pytest.mark.parametrize("width,n,budget", [
        (1, 3005, None), (3, 1007, None), (25, 5003, None), (300, 1006, None),
        (9000, 45, None), (20_000, 25, None),
        # three streams and a budget of 3 * rows make sub-chunks of `rows` steps
        *[(3, 3 * rows + tail, 3 * rows) for rows in (8, 16, 32) for tail in range(1, 8)]])
    def test_coin_steps(self, monkeypatch, alpha, beta, width, n, budget):
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", budget)
        params = ShearParams.infer(alpha, beta)
        bound = montecarlo._shear_bound(params)
        by = montecarlo._coin_bytes(47, range(width), 0, -(-n // 8))

        def steps(lo, hi):
            return by[lo // 8:-(-hi // 8)]

        self.assert_same(montecarlo._pairwise_product(steps, n, width, bound, params),
                         natural_order_product(steps, n, width, bound, params))

    @pytest.mark.parametrize("alpha,beta", KERNEL_PARAMS)
    @pytest.mark.parametrize("width,n,budget", [(1, 3000, None), (7, 1001, None),
                                                (32, 4097, None), (5, 77, 40), (3, 100, 12)])
    def test_plain_steps(self, monkeypatch, alpha, beta, width, n, budget):
        # block matrices K(a, b) = A^a B^b of random run lengths, as block_oracle has
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", budget)
        rng = np.random.default_rng(width * n)
        a, b = rng.geometric(0.5, (n, width)), rng.geometric(0.5, (n, width))
        x, y = alpha * a, beta * b
        bound = 1.0 + abs(alpha * beta) * a.max() * b.max()
        got = montecarlo._pairwise_product(
            lambda rows: (np.ones((len(rows), width)), y[rows], x[rows], 1.0 + x[rows] * y[rows]),
            n, width, bound)
        want = natural_order_product(
            lambda lo, hi: (np.ones((hi - lo, width)), y[lo:hi], x[lo:hi],
                            1.0 + x[lo:hi] * y[lo:hi]), n, width, bound)
        self.assert_same(got, want)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (50.0, 50.0), (-3.0, 3.0),
                                            (1e70, 1e70)])
    @pytest.mark.parametrize("n_steps,n_ensembles,seed,budget", [
        (100_000, 7, 43, None), (100_001, 3, 9, None), (100_000, 1, 3, None),
        (60_000, 300, 5, None), (1_000_000, 32, 6, None), (100_000, 7, 43, 40),
        (100_000, 7, 43, 14)])
    def test_block_oracle_matches_per_stream_loop(self, monkeypatch, alpha, beta, n_steps,
                                                  n_ensembles, seed, budget):
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", budget)
        params = ShearParams.infer(alpha, beta)
        cfg = McConfig(n_steps, n_ensembles, seed=seed)
        got, want = block_oracle(params, cfg), reference_block_oracle(params, cfg)
        for field in dataclasses.fields(BlockStats):
            assert getattr(got, field.name) == getattr(want, field.name), field.name


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**200]


class TestCoins:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_match_seed_sequence(self, seed):
        streams = [0, 1, 1 << 29, 1 << 30]
        want = [np.random.SeedSequence(entropy=seed, spawn_key=(e,)).generate_state(2, np.uint64)
                for e in streams]
        got = montecarlo._philox_keys(seed, streams)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, np.array(want))

    def test_numpy_integer_seed(self):
        np.testing.assert_array_equal(montecarlo._philox_keys(np.uint64(2**64 - 1), [3]),
                                      montecarlo._philox_keys(2**64 - 1, [3]))
        with pytest.raises(TypeError):
            montecarlo._philox_keys(1.0, [3])

    @pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**70])
    @pytest.mark.parametrize("b0,nb", [(0, 1), (0, 3), (17, 2), (1000, 5)])
    def test_words_match_random_raw(self, seed, b0, nb):
        streams = [0, 1 << 29, 2**32 - 1]
        got = montecarlo._philox_words(montecarlo._philox_keys(seed, streams), b0, b0 + nb)
        assert got.dtype == np.uint64 and got.shape == (4 * nb, len(streams))
        for j, e in enumerate(streams):
            bitgen = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(e,)))
            bitgen.random_raw(4 * b0)
            np.testing.assert_array_equal(got[:, j], bitgen.random_raw(4 * nb))

    @pytest.mark.parametrize("start,n", [(0, 1), (0, 1000), (1, 9), (3, 1), (5, 100),
                                         (12, 31), (63, 2), (255, 2), (65_536, 300),
                                         (131_072 + 7, 77)])
    @pytest.mark.parametrize("streams", [[0], [0, 1, 5, 1 << 29, 1 << 30, 2**32 - 1]])
    def test_coins_match_reference_stream(self, start, n, streams):
        got = montecarlo._coins(17, streams, start, n)
        assert got.dtype == np.int8 and got.shape == (n, len(streams))
        np.testing.assert_array_equal(got, reference_coins(17, streams, start, n))

    def test_coins_across_coin_chunk(self):
        start = montecarlo._COIN_CHUNK - 5
        streams = range(3)
        np.testing.assert_array_equal(montecarlo._coins(2**64 + 1, streams, start, 1000),
                                      reference_coins(2**64 + 1, streams, start, 1000))

    @pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**70])
    def test_coins_across_a_default_tile(self, seed):
        # three streams make tiles of _COIN_TILE_WORDS // 12 blocks of 256 coins
        streams = [0, 1 << 29, 2**32 - 1]
        edge = 256 * (montecarlo._COIN_TILE_WORDS // 12)
        np.testing.assert_array_equal(montecarlo._coins(seed, streams, edge - 300, 601),
                                      reference_coins(seed, streams, edge - 300, 601))

    @pytest.mark.parametrize("tile_words", [1, 4, 9, 50])
    def test_coins_do_not_depend_on_tiles_or_other_streams(self, monkeypatch, tile_words):
        # a tile of w words holds max(1, w // (4 * streams)) blocks: one block
        # with all eight streams, up to 12 with one
        monkeypatch.setattr(montecarlo, "_COIN_TILE_WORDS", tile_words)
        streams = list(range(7)) + [1 << 29]
        for start, n in [(0, 64), (3, 2000), (21, 8), (250, 520)]:
            got = montecarlo._coins(5, streams, start, n)
            np.testing.assert_array_equal(got, reference_coins(5, streams, start, n))
            for j, e in enumerate(streams):
                np.testing.assert_array_equal(montecarlo._coins(5, [e], start, n)[:, 0],
                                              got[:, j])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**130), start=st.integers(0, 3000), n=st.integers(1, 300),
           n_streams=st.integers(1, 4))
    def test_coins_property(self, seed, start, n, n_streams):
        streams = [3 * e + 1 for e in range(n_streams)]
        np.testing.assert_array_equal(montecarlo._coins(seed, streams, start, n),
                                      reference_coins(seed, streams, start, n))

    @pytest.mark.parametrize("start,n", [(0, 1), (1, 7), (3, 40), (31, 2), (33, 100),
                                         (8191, 5)])
    @pytest.mark.parametrize("streams", [[0], [0, 1, 1 << 29, 2**32 - 1]])
    def test_bytes_match_packed_reference(self, start, n, streams):
        got = montecarlo._coin_bytes(17, streams, start, n)
        assert got.dtype == np.uint8 and got.shape == (n, len(streams))
        np.testing.assert_array_equal(got, reference_coin_bytes(17, streams, start, n))

    @pytest.mark.parametrize("seed", [0, 2**70])
    def test_bytes_across_a_default_tile(self, seed):
        # three streams make tiles of _COIN_TILE_WORDS // 12 blocks of 32 bytes
        streams = [0, 1 << 29, 2**32 - 1]
        edge = 32 * (montecarlo._COIN_TILE_WORDS // 12)
        np.testing.assert_array_equal(montecarlo._coin_bytes(seed, streams, edge - 37, 75),
                                      reference_coin_bytes(seed, streams, edge - 37, 75))

    @pytest.mark.parametrize("tile_words", [1, 4, 9, 50])
    def test_bytes_do_not_depend_on_tiles_or_other_streams(self, monkeypatch, tile_words):
        monkeypatch.setattr(montecarlo, "_COIN_TILE_WORDS", tile_words)
        streams = list(range(7)) + [1 << 29]
        for start, n in [(0, 8), (3, 250), (21, 1), (31, 65)]:
            got = montecarlo._coin_bytes(5, streams, start, n)
            np.testing.assert_array_equal(got, reference_coin_bytes(5, streams, start, n))
            for j, e in enumerate(streams):
                np.testing.assert_array_equal(montecarlo._coin_bytes(5, [e], start, n)[:, 0],
                                              got[:, j])


class TestSameResultsAsPerEnsembleGenerators:
    """The estimators return exactly what they return when every ensemble
    draws its coins from its own numpy Philox, one reference stream each."""

    @pytest.mark.filterwarnings("ignore:effective sample size")
    def test_pinned_values(self):
        # values computed with reference_coins in place of montecarlo._coins;
        # 70 000 steps per trajectory cross one coin chunk
        est = lyapunov_mc(POS11, McConfig(140_000, 2, seed=2**40 + 3))
        assert (est.mean.hex(), est.std_error.hex()) == ("0x1.956e208ef73c0p-2",
                                                         "0x1.b332602be8400p-13")
        est = gle_mc(2.0, POS11, McConfig(10**6, 5000, seed=8))
        assert (est.mean.hex(), est.std_error.hex()) == ("0x1.a5417a2336f57p-1",
                                                         "0x1.acf5ad28f5e05p-10")
        stats = block_oracle(OPP33, McConfig(100_001, 3, seed=9))
        assert (stats.lambda_est.hex(), stats.mean_block_len.hex(), stats.n_blocks) == (
            "0x1.8bd2ebc733266p-1", "0x1.0039bb5211192p+2", 24974)
        got = standard_bound(100, ShearParams.infer(5.0, 5.0), mode="sampled", n_samples=1001,
                             seed=12)
        assert got.hex() == "0x1.1339a6f817b70p+0"

    @pytest.mark.filterwarnings("ignore:effective sample size")
    @pytest.mark.parametrize("seed", [0, 3, 2**33])
    @pytest.mark.parametrize("n_steps,n_ensembles", [(900, 1), (5000, 9),
                                                     (2 * (1 << 16) + 10, 2)])
    def test_estimators_match_reference_coins(self, monkeypatch, seed, n_steps, n_ensembles):
        cfg = McConfig(n_steps, n_ensembles, seed=seed)

        def uncapped_gle(q):
            with monkeypatch.context() as m:
                m.setattr(montecarlo, "_GLE_TRAJ_CAP", n_steps)
                return gle_mc(q, POS11, cfg)

        def run():
            return (lyapunov_mc(OPP33, cfg), uncapped_gle(1.0),
                    gle_mc(-1.0, POS11, cfg), block_oracle(POS11, cfg),
                    standard_bound(40, POS11, mode="sampled", n_samples=n_ensembles + 6,
                                   seed=seed))

        got = run()
        drawn = []

        def counted_reference(*args):
            drawn.append(args[1])
            return reference_coin_bytes(*args)

        monkeypatch.setattr(montecarlo, "_coin_bytes", counted_reference)
        assert got == run()
        # every estimator drew through the substitute: the ensembles' streams
        # (block_oracle all at once) and sampled E_k's stream 1 << 29
        streams = {e for s in drawn for e in s}
        assert streams == set(range(n_ensembles)) | {1 << 29}


class TestLyapunovMc:
    def test_reference_value(self):
        est = lyapunov_mc(POS11, McConfig(n_steps=2_000_000, n_ensembles=40, seed=9))
        assert est.mean == pytest.approx(0.39625, abs=0.005)
        assert est.std_error < 0.002
        assert est.n_samples == 40

    def test_deterministic_replay(self):
        cfg = McConfig(n_steps=200_000, n_ensembles=8, seed=123)
        a = lyapunov_mc(POS11, cfg)
        b = lyapunov_mc(POS11, cfg)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_seed_changes_stream(self):
        a = lyapunov_mc(POS11, McConfig(n_steps=100_000, n_ensembles=8, seed=1))
        b = lyapunov_mc(POS11, McConfig(n_steps=100_000, n_ensembles=8, seed=2))
        assert a.mean != b.mean

    def test_renorm_cadence_consistent(self):
        # accumulated log growth does not depend on the renormalization cadence
        a = lyapunov_mc(POS11, McConfig(100_000, 8, seed=5, renorm_every=1))
        b = lyapunov_mc(POS11, McConfig(100_000, 8, seed=5, renorm_every=64))
        assert a.mean == pytest.approx(b.mean, rel=1e-12)

    def test_strong_shear_with_renorm_every_is_finite(self):
        # without rescaling, 1000 steps at this strength overflow a double
        p = ShearParams.infer(50.0, 50.0)
        est = lyapunov_mc(p, McConfig(10**6, 25, seed=46, renorm_every=1000))
        lo, hi = tightest_envelope(p)
        assert math.isfinite(est.mean) and math.isfinite(est.std_error)
        assert lo - 6 * est.std_error <= est.mean <= hi + 6 * est.std_error

    def test_non_finite_estimate_raises(self, monkeypatch):
        def overflowing(steps, n, width, bound, params=None):
            one, zero = np.ones(width), np.zeros(width)
            return (one, zero, zero, one), np.full(width, np.inf)

        monkeypatch.setattr(montecarlo, "_pairwise_product", overflowing)
        cfg = McConfig(n_steps=1000, n_ensembles=10, seed=1)
        with pytest.raises(DomainError, match="not finite"):
            lyapunov_mc(POS11, cfg)
        with pytest.raises(DomainError, match="not finite"):
            gle_mc(1.0, POS11, cfg)

    def test_counts_applications_run(self):
        # the remainder of n_steps / n_ensembles is dropped
        assert lyapunov_mc(POS11, McConfig(n_steps=1003, n_ensembles=10)).n_apps == 1000

    def test_opposed_containment(self):
        est = lyapunov_mc(OPP33, McConfig(n_steps=1_000_000, n_ensembles=25, seed=4))
        env = lyapunov_bounds(OPP33, BoundFamily.IMPROVED).envelope
        slack = 3 * est.std_error
        assert env.lower - slack <= est.mean <= env.upper + slack

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(n_steps=0, n_ensembles=1)
        with pytest.raises(DomainError):
            McConfig(n_steps=10, n_ensembles=4, renorm_every=11)
        with pytest.raises(DomainError):
            McConfig(n_steps=3, n_ensembles=4)
        with pytest.raises(DomainError, match="seed must be non-negative"):
            McConfig(n_steps=10, n_ensembles=4, seed=-1)

    @pytest.mark.parametrize("field,value", [("n_steps", 1e4), ("n_ensembles", 4.0),
                                             ("seed", 1.5), ("renorm_every", 2.0),
                                             ("n_steps", "100")])
    def test_config_non_integer_fields_raise(self, field, value):
        kwargs = {"n_steps": 100, "n_ensembles": 4, field: value}
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            McConfig(**kwargs)

    def test_config_numpy_integer_fields(self):
        cfg = McConfig(np.int64(800), np.int32(4), seed=np.uint64(3), renorm_every=np.int8(2))
        assert lyapunov_mc(POS11, cfg) == lyapunov_mc(POS11, McConfig(800, 4, seed=3))


def sampled_bound(params, cfg):
    """Sampled E_k called like the estimators: k = n_steps // n_ensembles, one
    sample per ensemble."""
    return standard_bound(cfg.n_steps // cfg.n_ensembles, params, mode="sampled",
                          n_samples=cfg.n_ensembles)


def zeroth_moment_mc(params, cfg):
    return gle_mc(0.0, params, cfg)


class TestCostGuard:
    @pytest.mark.parametrize("estimator", [lyapunov_mc, block_oracle, sampled_bound])
    def test_refuses_before_drawing_coins(self, monkeypatch, deadline, estimator):
        def no_coins(*args):
            raise AssertionError("coins drawn")

        monkeypatch.setattr(montecarlo, "_coin_bytes", no_coins)
        with pytest.raises(DomainError, match="exceed the cost guard"):
            estimator(POS11, McConfig(10**30, 2))

    @pytest.mark.parametrize("estimator", [lyapunov_mc, block_oracle, sampled_bound])
    def test_guard_bounds_applications_run(self, monkeypatch, estimator):
        monkeypatch.setattr(montecarlo, "_MAX_APPS", 2000)
        estimator(POS11, McConfig(2001, 2))  # 2000 applications run, the remainder dropped
        with pytest.raises(DomainError, match="exceed the cost guard"):
            estimator(POS11, McConfig(2002, 2))

    @pytest.mark.filterwarnings("ignore:effective sample size")
    def test_moment_estimate_counts_capped_applications(self, deadline):
        assert gle_mc(2.0, POS11, McConfig(10**30, 2)).n_apps == 400

    def test_block_oracle_bounds_one_long_stream(self, monkeypatch):
        # one stream holds all its coins and run lengths at once, as many streams do
        monkeypatch.setattr(montecarlo, "_coin_bytes", _no_coins)
        with pytest.raises(DomainError, match="coins in all exceed the memory guard 1e[+]08"):
            block_oracle(POS11, McConfig(montecarlo._MAX_TOTAL_COINS + 1, 1))

    def test_block_oracle_bounds_coins_in_all(self, monkeypatch, deadline):
        # 5 * 10^7 coins in each of 200 streams pass the other guards; their run
        # lengths alone would take tens of GB
        monkeypatch.setattr(montecarlo, "_coin_bytes", _no_coins)
        with pytest.raises(DomainError, match="coins in all exceed the memory guard 1e[+]08"):
            block_oracle(POS11, McConfig(10**10, 200))

    def test_block_oracle_total_guard_admits_criterion_8(self, monkeypatch):
        # criterion 8 draws 4.2 * 10^7 coins over 32 streams, mc-long 10^7 over 32
        assert montecarlo._MAX_TOTAL_COINS >= 42_000_000
        monkeypatch.setattr(montecarlo, "_MAX_TOTAL_COINS", 2000)
        block_oracle(POS11, McConfig(2001, 2))  # 2000 coins drawn, the remainder dropped
        monkeypatch.setattr(montecarlo, "_coin_bytes", _no_coins)
        with pytest.raises(DomainError, match="coins in all exceed the memory guard"):
            block_oracle(POS11, McConfig(2002, 2))

    @pytest.mark.parametrize("estimator",
                             [lyapunov_mc, block_oracle, zeroth_moment_mc, sampled_bound])
    def test_width_guard_refuses_before_allocating(self, monkeypatch, deadline, estimator):
        # one past the guard would allocate about 1 GB; without the guard the
        # patched functions fail first
        for name in ("_philox_keys", "_coin_bytes", "_iterate_log_growth"):
            monkeypatch.setattr(montecarlo, name, _no_coins)
        width = montecarlo._MAX_WIDTH + 1
        with pytest.raises(DomainError, match="exceed the memory guard 4e[+]06"):
            estimator(POS11, McConfig(width, width))

    @pytest.mark.parametrize("estimator",
                             [lyapunov_mc, block_oracle, zeroth_moment_mc, sampled_bound])
    def test_width_guard_bounds_ensembles_and_samples(self, monkeypatch, estimator):
        monkeypatch.setattr(montecarlo, "_MAX_WIDTH", 4)
        estimator(POS11, McConfig(64, 4))
        with pytest.raises(DomainError, match="5 ensembles or samples exceed"):
            estimator(POS11, McConfig(64, 5))

    def test_chunk_guard_refuses_before_drawing_coins(self, monkeypatch, deadline):
        # 4 * 10^6 ensembles of 2 500 steps pass the cost and width guards; one chunk's
        # coin bytes for all of them would take 1.25 GB
        monkeypatch.setattr(montecarlo, "_coin_bytes", _no_coins)
        with pytest.raises(DomainError, match=r"4000000 ensembles of 2500 steps draw "
                           r"1.25e\+09 coin bytes a chunk, above the memory guard 1e\+08"):
            lyapunov_mc(POS11, McConfig(10**10, 4 * 10**6))

    @pytest.mark.parametrize("estimator,cfg", [
        (lyapunov_mc, McConfig(10**7, 32)),  # the CLI's defaults
        (lyapunov_mc, McConfig(10**6, 25)),  # mc-long: 40 000 steps an ensemble
        (zeroth_moment_mc, McConfig(10**7, 20_000)),  # mc-wide: 200 steps an ensemble
    ], ids=["cli", "mc-long", "mc-wide"])
    def test_chunk_guard_admits_the_cli_and_benchmark_runs(self, monkeypatch, estimator, cfg):
        monkeypatch.setattr(montecarlo, "_coin_bytes", _no_coins)
        with pytest.raises(AssertionError, match="coins drawn"):
            estimator(POS11, cfg)

    def test_chunk_guard_bounds_traced_memory(self, monkeypatch):
        # patched down: 2^12-step chunks of 512 coin bytes an ensemble, room for 256
        budget = 256 * 512
        monkeypatch.setattr(montecarlo, "_COIN_CHUNK", 1 << 12)
        monkeypatch.setattr(montecarlo, "_MAX_TOTAL_COINS", budget)

        def traced_peak(ensembles, steps):
            tracemalloc.start()
            try:
                lyapunov_mc(POS11, McConfig(ensembles * steps, ensembles))
            except DomainError:
                pass
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            return peak

        one_chunk = traced_peak(256, 1 << 12)
        assert budget < one_chunk < 8 * budget
        # each chunk's bytes are freed before the next chunk's are drawn
        assert traced_peak(256, 3 << 12) < one_chunk + budget / 4
        # one ensemble more is refused before anything of that size is allocated
        assert traced_peak(257, 1 << 12) < budget / 16

    def test_width_guard_admits_the_default_widths(self):
        # the CLI's default sample count; tests and the benchmark run at most 40 000
        assert montecarlo._MAX_WIDTH >= 100_000


def _no_coins(*args):
    raise AssertionError("coins drawn")


class TestShearLimit:
    @pytest.mark.parametrize("estimator", [
        lambda p: lyapunov_mc(p, McConfig(1000, 2)),
        lambda p: gle_mc(1.0, p, McConfig(1000, 2)),
        lambda p: block_oracle(p, McConfig(1000, 2)),
        lambda p: standard_bound(8, p, mode="sampled", n_samples=10),
    ])
    @pytest.mark.parametrize("alpha,beta", [(math.nextafter(1e79, math.inf), 2.0),
                                            (-3.0, 1e120)])
    def test_refuses_larger_shears_before_drawing_coins(self, monkeypatch, estimator, alpha,
                                                        beta):
        assert montecarlo._SHEAR_MAX == 1e79  # the largest shear in KERNEL_PARAMS
        monkeypatch.setattr(montecarlo, "_coin_bytes", _no_coins)
        with pytest.raises(DomainError, match="shears above 1e[+]79 lose accuracy"):
            estimator(ShearParams.infer(alpha, beta))


class TestIntegerShears:
    # ShearParams stores floats, so no integer shear meets the uint8 coins or
    # run lengths in numpy arithmetic, where it would overflow
    @pytest.mark.filterwarnings("ignore:effective sample size")
    @pytest.mark.parametrize("estimator", [
        lambda p: lyapunov_mc(p, McConfig(1000, 2, seed=5)).mean,
        lambda p: gle_mc(1.0, p, McConfig(1000, 2, seed=5)).mean,
        lambda p: standard_bound(20, p, mode="sampled", n_samples=10, seed=5),
        lambda p: block_oracle(p, McConfig(1000, 2, seed=5)).lambda_est,
    ], ids=["lyapunov_mc", "gle_mc", "sampled", "block_oracle"])
    @pytest.mark.parametrize("alpha,beta", [(-3, 3), (300, 1), (10**10, 1)])
    def test_give_the_floats_values(self, estimator, alpha, beta):
        got = estimator(ShearParams(alpha, beta))
        assert math.isfinite(got)
        assert got == estimator(ShearParams(float(alpha), float(beta)))

    @pytest.mark.parametrize("alpha,beta", [(5, 5), (2, 3)])
    def test_lyapunov_mc_bits(self, alpha, beta):
        cfg = McConfig(20_000, 4, seed=6)
        got = lyapunov_mc(ShearParams(alpha, beta), cfg)
        want = lyapunov_mc(ShearParams(float(alpha), float(beta)), cfg)
        assert (got.mean.hex(), got.std_error.hex()) == (want.mean.hex(), want.std_error.hex())


class TestGleMc:
    def test_zero_exactly(self):
        est = gle_mc(0.0, POS11, McConfig(n_steps=50_000, n_ensembles=100, seed=2))
        assert est.mean == 0.0

    def test_q1_inside_entropy_interval(self):
        cfg = McConfig(n_steps=8_000_000, n_ensembles=40_000, seed=7)
        est = gle_mc(1.0, POS11, cfg)  # default cap: 200-step trajectories
        env = entropy_bounds(POS11)
        assert env.lower < est.mean < env.upper

    def test_qminus1_inside_envelope(self, monkeypatch):
        cfg = McConfig(n_steps=1_000_000, n_ensembles=40_000, seed=11)
        monkeypatch.setattr(montecarlo, "_GLE_TRAJ_CAP", 25)
        est = gle_mc(-1.0, POS11, cfg)
        env = gle_bounds(-1.0, POS11)
        assert env.lower < est.mean < env.upper
        assert est.mean < 0.0

    def test_counts_capped_applications(self, monkeypatch):
        cfg = McConfig(n_steps=10**6, n_ensembles=100, seed=3)
        assert gle_mc(0.0, POS11, cfg).n_apps == 100 * 200
        monkeypatch.setattr(montecarlo, "_GLE_TRAJ_CAP", 10**6)
        assert gle_mc(0.0, POS11, cfg).n_apps == 10**6

    def test_deterministic(self):
        cfg = McConfig(n_steps=200_000, n_ensembles=2_000, seed=31)
        a = gle_mc(1.5, POS11, cfg)
        b = gle_mc(1.5, POS11, cfg)
        assert a.mean == b.mean and a.std_error == b.std_error

    @pytest.mark.filterwarnings("ignore:effective sample size")
    @pytest.mark.parametrize("q", [-1.0, 1.0, 2.0])
    def test_one_trajectory_has_no_standard_error(self, q):
        # one trajectory gives no spread to estimate; a bootstrap of it reported
        # rounding noise (5.6e-17 at q = 1, seed 3)
        est = gle_mc(q, POS11, McConfig(n_steps=200, n_ensembles=1, seed=3))
        assert math.isfinite(est.mean) and math.isnan(est.std_error)

    @pytest.mark.filterwarnings("ignore:effective sample size")
    @pytest.mark.parametrize("q", [-1.0, 1.0, 2.0])
    def test_standard_error_agrees_with_bootstrap(self, q):
        cfg = McConfig(n_steps=5000 * 200, n_ensembles=5000, seed=3)
        z = q * montecarlo._iterate_log_growth(POS11, cfg, 200)
        mx = z.max()
        w = np.exp(z - mx)
        rng = np.random.default_rng(17)
        reps = [(mx + math.log(w[rng.integers(0, w.size, size=w.size)].mean())) / 200
                for _ in range(200)]
        est = gle_mc(q, POS11, cfg)
        assert est.std_error == pytest.approx(np.std(reps, ddof=1), rel=0.25)

    def test_mean_is_a_python_float(self):
        est = gle_mc(1.0, POS11, McConfig(n_steps=20_000, n_ensembles=100, seed=3))
        assert type(est.mean) is float and type(est.std_error) is float

    @pytest.mark.parametrize("alpha,beta,q,mean", [
        (5.0, 5.0, -2.0, "-1.787552"), (5.0, 5.0, -1.0, "-0.917049"),
        (-3.0, 3.0, -1.0, "-0.699958"), (1.0, 1.0, -2.0, "-0.734035"),
    ])
    def test_refuses_estimate_below_minus_log_2(self, alpha, beta, q, mean):
        # the all-A coins keep |X_N| = 1 with probability 2^-N, so no moment rate
        # lies below -log 2; 20 000 trajectories miss the ones that dominate
        cfg = McConfig(n_steps=4 * 10**6, n_ensembles=20_000, seed=0)
        with pytest.raises(NonConvergenceError,
                           match=rf"estimate {mean} lies below -log 2 = -0.693147.*"
                                 r"effective sample size \d+\.\d of 20000 trajectories"):
            gle_mc(q, ShearParams.infer(alpha, beta), cfg)

    @pytest.mark.filterwarnings("ignore:effective sample size")
    def test_keeps_estimate_above_minus_log_2(self):
        cfg = McConfig(n_steps=4 * 10**6, n_ensembles=20_000, seed=0)
        assert -math.log(2.0) < gle_mc(-1.0, POS11, cfg).mean < 0.0

    def test_warns_on_weight_concentration(self):
        # long trajectories at large q concentrate the importance weights
        cfg = McConfig(n_steps=40_000, n_ensembles=200, seed=13)
        with pytest.warns(RuntimeWarning, match="effective sample size"):
            gle_mc(8.0, POS11, cfg)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_refuses_a_moment_order_that_is_not_finite(self, monkeypatch, q):
        for name in ("_coin_bytes", "_iterate_log_growth"):
            monkeypatch.setattr(montecarlo, name, _no_coins)
        with pytest.raises(DomainError, match=rf"^q must be finite, got {q}$"):
            gle_mc(q, POS11, McConfig(10_000, 32))


class TestStandardBound:
    def test_k1_closed_form(self):
        # both shears have spectral norm equal to the golden ratio
        got = standard_bound(1, POS11)
        assert got == pytest.approx(math.log(GOLDEN), abs=1e-12)

    def test_k2_hand_average(self):
        import itertools

        gens = {"A": np.array([[1.0, 0.0], [1.0, 1.0]]), "B": np.array([[1.0, 1.0], [0.0, 1.0]])}
        norms = [
            np.linalg.norm(gens[p0] @ gens[p1], 2)
            for p0, p1 in itertools.product("AB", repeat=2)
        ]
        # (1/k) E log |C| with k = 2 over the four equally likely products
        want = sum(math.log(s) / 2.0 for s in norms) / 4.0
        assert standard_bound(2, POS11) == pytest.approx(want, abs=1e-12)

    def test_monotone_and_above_reference(self):
        values = [standard_bound(k, POS11) for k in range(1, 13)]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))
        assert all(v > 0.39625 for v in values)
        assert values[-1] > 0.40277  # still above the best analytic upper bound

    def test_k12_exceeds_envelope_at_strong_shear(self):
        p = ShearParams.infer(5.0, 5.0)
        env = lyapunov_bounds(p).envelope
        assert standard_bound(12, p) > env.upper

    def test_sampled_agrees_with_exhaustive(self):
        exact = standard_bound(8, POS11)
        approx = standard_bound(8, POS11, mode="sampled", n_samples=40_000, seed=3)
        assert approx == pytest.approx(exact, abs=5e-3)

    def test_cost_guard(self):
        with pytest.raises(DomainError):
            standard_bound(23, POS11)
        with pytest.raises(DomainError):
            standard_bound(4, POS11, mode="bogus")

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_sampled_rejects_no_samples(self, n_samples):
        with pytest.raises(DomainError, match="n_samples"):
            standard_bound(8, POS11, mode="sampled", n_samples=n_samples)

    def test_sampled_rejects_negative_seed(self):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            standard_bound(8, POS11, mode="sampled", n_samples=10, seed=-1)

    @pytest.mark.parametrize("k,slice_,alpha,beta", [
        (k, slice_, alpha, beta)
        for k, slice_ in [(1, None), (2, None), (12, 1000), (12, 7), (17, None), (3, 3), (13, 3)]
        for alpha, beta in [(1.0, 1.0), (5.0, 5.0), (-3.0, 3.0)]
    ] + [(20, None, 1.0, 1.0), (18, None, -3.0, 3.0), (19, None, -3.0, 3.0)])
    def test_exhaustive_matches_unsliced_formulation(self, monkeypatch, alpha, beta, k,
                                                     slice_):
        # tiles hold at most _SLICE_MATRICES products: 2^17 products make two default
        # tiles and 2^18 to 2^20 four to sixteen; slices of 1000, 7 and 3 make tiles of
        # 512, 4 and 2 products, so most of these k build many
        if slice_ is not None:
            monkeypatch.setattr(montecarlo, "_SLICE_MATRICES", slice_)
            monkeypatch.setattr(linalg, "_NORM_SLICE", slice_)
        seen, original = [], montecarlo._log_norms

        def log_norms(p, logacc, k):
            seen.append((p.T.reshape(-1, 2, 2).copy(), logacc.copy()))
            return original(p, logacc, k)

        monkeypatch.setattr(montecarlo, "_log_norms", log_norms)
        params = ShearParams.infer(alpha, beta)
        value = standard_bound(k, params)
        want, products, logacc = reference_exhaustive_bound(k, params)
        assert value == want
        # every product and log scale, not only their mean: tile c holds the
        # products c, c + T, c + 2T, ... of T tiles
        tiles = len(seen)
        assert all(len(p) * tiles == 1 << k for p, _ in seen)
        assert all(len(p) <= montecarlo._SLICE_MATRICES for p, _ in seen)
        got_products, got_logacc = np.empty_like(products), np.empty_like(logacc)
        for c, (tile_products, tile_logacc) in enumerate(seen):
            got_products[c::tiles], got_logacc[c::tiles] = tile_products, tile_logacc
        assert np.array_equal(got_products, products)
        assert np.array_equal(got_logacc, logacc)

    def test_exhaustive_peak_memory(self):
        # E_20 at (1, 1); holding all 2^20 products at once peaked at 53 MiB
        standard_bound(12, POS11)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            standard_bound(20, POS11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("k", [2.5, 3.0, "3"])
    def test_non_integer_k_raises(self, mode, k):
        with pytest.raises(DomainError, match="k must be an integer"):
            standard_bound(k, POS11, mode=mode, n_samples=10)

    def test_exhaustive_keeps_large_finite_shears(self):
        assert standard_bound(8, ShearParams(1e154, 1e154)) == 199.69891799381418

    @pytest.mark.filterwarnings("error")  # an overflow is refused, not warned about
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_exhaustive_refuses_exactly_where_it_overflows(self, k):
        points = [(a, b) for x in 10.0 ** np.array([150, 154, 154.1, 154.2, 155, 300, 307.9])
                  for a, b in [(x, x), (x, 1.0), (1.0, x), (-x, 3.0), (-3.0, x)]]
        refused = 0
        for a, b in points:
            params = ShearParams(a, b)
            with np.errstate(all="ignore"):
                want = reference_exhaustive_bound(k, params)[0]
            if math.isfinite(want):
                assert standard_bound(k, params) == want
            else:
                refused += 1
                with pytest.raises(DomainError,
                                   match=f"exhaustive E_{k} overflows double precision"):
                    standard_bound(k, params)
        assert 0 < refused < len(points)

    def test_numpy_integer_k(self):
        assert standard_bound(np.int64(5), POS11) == standard_bound(5, POS11)

    @pytest.mark.parametrize("field,value", [("n_samples", 100.0), ("seed", 1.5),
                                             ("seed", "3")])
    def test_sampled_non_integer_inputs_raise(self, field, value):
        kwargs = {"n_samples": 100, "seed": 0, field: value}
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            standard_bound(8, POS11, mode="sampled", **kwargs)

    def test_sampled_numpy_integer_inputs(self):
        want = standard_bound(16, POS11, mode="sampled", n_samples=50, seed=4)
        assert standard_bound(16, POS11, mode="sampled", n_samples=np.int32(50),
                              seed=np.uint64(4)) == want

    def test_sampled_draws_its_coins_in_tiles(self, monkeypatch):
        # the 4 096 000 coins of E_1024 over 4000 samples fit one tile of words
        calls = []
        coin_bytes = montecarlo._coin_bytes

        def counted(*args):
            calls.append(args)
            return coin_bytes(*args)

        p = ShearParams.infer(5.0, 5.0)
        want = standard_bound(1024, p, mode="sampled", n_samples=4000, seed=12)
        monkeypatch.setattr(montecarlo, "_coin_bytes", counted)
        assert standard_bound(1024, p, mode="sampled", n_samples=4000, seed=12) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("tile_words", [1, 3, 40])
    @pytest.mark.parametrize("k,budget", [(100, None), (2 * 16 + 7, 5 * 16), (8 * 8 + 3, 40)])
    def test_sampled_does_not_depend_on_tiles(self, monkeypatch, tile_words, k, budget):
        # a tile of 1 or 3 words holds 12 or 38 steps of five samples, fewer
        # than a sub-chunk of 16 steps or more; 40 words hold 512 steps
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", budget)
        p = ShearParams.infer(5.0, 5.0)
        want = standard_bound(k, p, mode="sampled", n_samples=5, seed=44)
        monkeypatch.setattr(montecarlo, "_COIN_TILE_WORDS", tile_words)
        assert standard_bound(k, p, mode="sampled", n_samples=5, seed=44) == want

    def test_sampled_deterministic(self):
        a = standard_bound(64, POS11, mode="sampled", n_samples=500, seed=17)
        b = standard_bound(64, POS11, mode="sampled", n_samples=500, seed=17)
        assert a == b


class TestBlockOracle:
    def test_block_statistics(self):
        stats = block_oracle(POS11, McConfig(n_steps=4_000_000, n_ensembles=16, seed=21))
        assert stats.n_blocks > 900_000
        assert stats.mean_block_len == pytest.approx(4.0, abs=0.02)
        for prob in (stats.p_eq, stats.p_gt, stats.p_lt):
            assert prob == pytest.approx(1.0 / 3.0, abs=0.01)
        assert abs(stats.p_eq + stats.p_gt + stats.p_lt - 1.0) < 1e-12

    def test_lambda_agrees_with_step_estimator(self):
        cfg = McConfig(n_steps=2_000_000, n_ensembles=16, seed=22)
        stats = block_oracle(POS11, cfg)
        est = lyapunov_mc(POS11, cfg)
        combined = math.hypot(est.std_error, 3e-3)
        assert abs(stats.lambda_est - est.mean) <= 5 * combined
        assert stats.lambda_est == pytest.approx(0.39625, abs=0.01)

    def test_opposed_blocks(self):
        stats = block_oracle(OPP33, McConfig(n_steps=1_000_000, n_ensembles=16, seed=23))
        env = lyapunov_bounds(OPP33).envelope
        assert env.lower - 0.01 <= stats.lambda_est <= env.upper + 0.01

    def test_deterministic(self):
        cfg = McConfig(n_steps=200_000, n_ensembles=8, seed=29)
        s1 = block_oracle(POS11, cfg)
        s2 = block_oracle(POS11, cfg)
        assert s1 == s2

    @pytest.mark.parametrize("alpha,beta,cfg,pinned", [
        # the call of the mc-long benchmark workload at its seed 1
        (1.0, 1.0, McConfig(10**7, 32, seed=118), dict(
            mean_block_len="0x1.ffc902d8d5cffp+1", p_eq="0x1.5527994accb53p-2",
            p_gt="0x1.558060aa8aa0cp-2", p_lt="0x1.5558060aa8aa1p-2",
            lambda_est="0x1.95d0aea8ac4d6p-2", n_blocks=2501002)),
        (-3.0, 3.0, McConfig(2_000_003, 7, seed=61), dict(
            mean_block_len="0x1.ff85d23d81bcbp+1", p_eq="0x1.55bdbf05e16e4p-2",
            p_gt="0x1.558a69aba88a4p-2", p_lt="0x1.54b7d74e76078p-2",
            lambda_est="0x1.8c04e5db82388p-1", n_blocks=500456))])
    def test_pinned_bits(self, alpha, beta, cfg, pinned):
        # every field as the int32 run lengths gave it, before they took one byte
        stats = block_oracle(ShearParams.infer(alpha, beta), cfg)
        got = {f.name: getattr(stats, f.name) for f in dataclasses.fields(BlockStats)}
        assert {k: v.hex() if type(v) is float else v for k, v in got.items()} == pinned
        assert type(stats.n_blocks) is int

    @pytest.mark.parametrize("cfg,empty", [
        (McConfig(1000, 200, seed=1), "165 of 200"),  # 5 coins a stream
        (McConfig(20, 10), "10 of 10"),  # 2 coins a stream: no block is ever complete
    ])
    def test_refuses_streams_without_a_complete_block(self, cfg, empty):
        # the Lyapunov estimate takes as many blocks from every stream as the
        # shortest holds: none here
        with pytest.raises(DomainError, match=rf"^{empty} coin streams hold no complete block; "
                                              "raise n_steps or lower n_ensembles$"):
            block_oracle(POS11, cfg)

    def test_refuses_one_stream_without_a_complete_block(self, monkeypatch):
        # stream 2's coins are all A, a single run; the other three hold 1000 coins each
        coin_bytes = montecarlo._coin_bytes

        def one_run(seed, streams, start, n):
            by = coin_bytes(seed, streams, start, n)
            by[:, 2] = 0xFF
            return by

        cfg = McConfig(4000, 4, seed=5)
        assert block_oracle(POS11, cfg).n_blocks > 3 * 200
        monkeypatch.setattr(montecarlo, "_coin_bytes", one_run)
        with pytest.raises(DomainError, match="^1 of 4 coin streams hold no complete block"):
            block_oracle(POS11, cfg)


class TestRunPieces:
    """block_oracle finds runs in pieces of _RUN_PIECE coins; patched down to a
    few bytes, runs cross many piece boundaries and the values stay those of
    the per-stream reference, bit for bit."""

    # stream -> {byte index: value}: stream 0 holds an A-run over coins 56..71,
    # across the boundary at coin 64, and one from coin 324 over 164 coins or
    # more, across 384 and 448; stream 1 starts with a B-run of 80 coins, across 64
    DESIGNED = {0: {7: 0xFF, 8: 0xFF, 40: 0xF0, **{j: 0xFF for j in range(41, 61)}},
                1: {**{j: 0x00 for j in range(10)}, 10: 0x01}}

    @classmethod
    def designed_bytes(cls, coin_bytes):
        def patched(seed, streams, start, n):
            by = coin_bytes(seed, streams, start, n)
            for col, e in enumerate(streams):
                for j, value in cls.DESIGNED.get(e, {}).items():
                    if start <= j < start + n:
                        by[j - start, col] = value
            return by

        return patched

    def test_designed_runs(self):
        by = self.designed_bytes(montecarlo._coin_bytes)(48, [0, 1], 0, 125)
        coins = np.unpackbits(by, axis=0, bitorder="little")
        assert coins[56:72, 0].all() and coins[324:488, 0].all() and not coins[320:324, 0].any()
        assert not coins[:80, 1].any() and coins[80, 1] == 1

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (-3.0, 3.0), (1e70, 1e70)])
    @pytest.mark.parametrize("n_steps,n_ensembles,piece,designed", [
        (1_000, 1, 64, True),  # 15 pieces and 40 coins of a stream
        (4_099, 2, 64, True),  # 2049 coins a stream: neither a multiple of 8 nor of 64
        (33 * 1_003 + 5, 33, 64, True),
        (100_003, 3, 1 << 12, True),
        (33 * 100 + 7, 33, 256, False),  # two whole streams of 100 coins a piece
        (33 * 40, 33, 128, False)])  # three streams of 40 coins a piece
    def test_matches_per_stream_reference(self, monkeypatch, alpha, beta, n_steps, n_ensembles,
                                          piece, designed):
        if designed:
            monkeypatch.setattr(montecarlo, "_coin_bytes",
                                self.designed_bytes(montecarlo._coin_bytes))
        params, cfg = ShearParams.infer(alpha, beta), McConfig(n_steps, n_ensembles, seed=48)
        want = reference_block_oracle(params, cfg)
        monkeypatch.setattr(montecarlo, "_RUN_PIECE", piece)
        got = block_oracle(params, cfg)
        for field in dataclasses.fields(BlockStats):
            g, w = getattr(got, field.name), getattr(want, field.name)
            assert (g.hex(), type(g)) == (w.hex(), type(w)) if isinstance(w, float) else g == w

    @pytest.mark.parametrize("cfg,empty", [(McConfig(1000, 200, seed=1), "165 of 200"),
                                           (McConfig(20, 10), "10 of 10")])
    def test_refusal_counts_streams_without_a_block(self, monkeypatch, cfg, empty):
        monkeypatch.setattr(montecarlo, "_RUN_PIECE", 64)
        with pytest.raises(DomainError, match=rf"^{empty} coin streams hold no complete block"):
            block_oracle(POS11, cfg)

    def test_refusal_counts_a_one_run_stream_across_pieces(self, monkeypatch):
        # stream 2's 1000 coins are all A: one run over 16 pieces of 64 coins
        coin_bytes = montecarlo._coin_bytes

        def one_run(seed, streams, start, n):
            by = coin_bytes(seed, streams, start, n)
            by[:, 2] = 0xFF
            return by

        monkeypatch.setattr(montecarlo, "_RUN_PIECE", 64)
        monkeypatch.setattr(montecarlo, "_coin_bytes", one_run)
        with pytest.raises(DomainError, match="^1 of 4 coin streams hold no complete block"):
            block_oracle(POS11, McConfig(4000, 4, seed=5))

    # stream 1 of 3 -> (first coin, length, coin) of each planted run, its
    # neighbours set to the other coin: one of exactly 255 coins, two of more
    # (256 and 1500) inside one piece of 2^12 coins, one across the boundary at
    # coin 4096, and one from the start to the end of a piece of 64 coins
    LONG = {1: [(100, 255, 1), (1000, 256, 0), (2000, 1500, 1), (3900, 400, 0),
                (5120, 320, 1)]}

    @classmethod
    def planted_bytes(cls, coin_bytes):
        def patched(seed, streams, start, n):
            coins = np.unpackbits(coin_bytes(seed, streams, start, n), axis=0, bitorder="little")
            for col, e in enumerate(streams):
                for first, length, coin in cls.LONG.get(e, []):
                    for lo, hi, value in [(first - 1, first + length + 1, 1 - coin),
                                          (first, first + length, coin)]:
                        lo, hi = max(lo - 8 * start, 0), max(hi - 8 * start, 0)
                        coins[lo:hi, col] = value
            return np.packbits(coins, axis=0, bitorder="little")

        return patched

    def test_planted_runs(self):
        by = self.planted_bytes(montecarlo._coin_bytes)(50, [0, 1], 0, 1250)
        lengths, _ = run_lengths(np.unpackbits(by[:, 1], bitorder="little"))
        for _, length, _ in self.LONG[1]:
            assert length in lengths
        assert lengths.max() == 1500 and sorted(lengths)[-6] < 255

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (-3.0, 3.0), (1e70, 1e70)])
    @pytest.mark.parametrize("piece", [64, 1 << 12])
    def test_runs_longer_than_a_byte(self, monkeypatch, alpha, beta, piece):
        # the run lengths widen from one byte to int32 in the piece that first
        # holds a run over 255 coins, and every value stays the reference's
        monkeypatch.setattr(montecarlo, "_coin_bytes", self.planted_bytes(montecarlo._coin_bytes))
        params, cfg = ShearParams.infer(alpha, beta), McConfig(30_000, 3, seed=50)
        want = reference_block_oracle(params, cfg)
        monkeypatch.setattr(montecarlo, "_RUN_PIECE", piece)
        got = block_oracle(params, cfg)
        for field in dataclasses.fields(BlockStats):
            g, w = getattr(got, field.name), getattr(want, field.name)
            assert (g.hex(), type(g)) == (w.hex(), type(w)) if isinstance(w, float) else g == w

    @pytest.mark.parametrize("streams", [1, 2, 32])
    def test_traced_peak_per_coin(self, monkeypatch, streams):
        # the kernel's sub-chunks and the pieces are patched down to 2^12 elements
        # and coins, so the peak is what grows with the coins: the packed coins
        # and the one-byte run lengths of every stream, about 1.1-1.2 B a coin
        # however many streams hold them (2.6-2.7 B with int32 lengths)
        monkeypatch.setattr(montecarlo, "_PAIRWISE_BUDGET", 1 << 12)
        monkeypatch.setattr(montecarlo, "_RUN_PIECE", 1 << 12)
        coins = 4 * 10**5
        assert traced_peak(POS11, McConfig(coins, streams, seed=49)) / coins <= 1.5

    def test_traced_peak_of_the_benchmark_call(self):
        # mc-long's call at its own sizes, about 0.9 B a coin (2.5 B with int32 lengths)
        coins = 10**7
        assert traced_peak(POS11, McConfig(coins, 32, seed=118)) / coins <= 1.2

    def test_traced_peak_per_stream_of_a_wide_call(self):
        # 50 coins a stream: the per-stream arrays dominate, about 226 B a stream
        # (307 B while the bookkeeping of the runs was held through the kernel)
        streams = 4 * 10**4
        assert traced_peak(POS11, McConfig(50 * streams, streams, seed=49)) / streams <= 260


def traced_peak(params, cfg):
    """The traced peak of one block_oracle call, in bytes."""
    tracemalloc.start()
    try:
        block_oracle(params, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
