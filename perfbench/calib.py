"""Calibration kernels: fixed work that calls nothing in shearlyap.

The host runs in speed phases (a fast one and one about 1.5x slower, each
lasting seconds), and process CPU time drifts with wall time, so raw
timings of identical code differ by tens of percent between runs.  Each
timed stretch of a workload is bracketed by a kernel with the same kind of
work, and the workload's time is reported as raw * reference / measured
kernel time: seconds at a fixed reference host speed.  A kernel only
tracks the phases for work like its own, so each workload has its own.
"""

from __future__ import annotations

import mmap
import time

import numpy as np


def small_arrays() -> None:
    """Python-level loop over 25-element arrays, like the Monte Carlo step loops."""
    m = (np.arange(25) % 2).astype(float)
    u = np.zeros(25)
    v = np.ones(25)
    acc = np.zeros(25)
    for _ in range(2500):
        u += v * (1.0 - m)
        v += u * m
        r = np.sqrt(u * u + v * v)
        acc += np.log(r)
        u /= r
        v /= r


def python_and_faults() -> None:
    """Interpreted float arithmetic plus first touches of fresh pages, in
    about the proportions of a `figures` pass: four fifths user time, one
    fifth page faults (the series layer allocates and releases 128x128
    grids on every call, about 600 000 minor faults per pass)."""
    s = 0.0
    for i in range(100_000):
        s += (i * 0.5) % 7.0
    for _ in range(10):
        with mmap.mmap(-1, 1 << 19) as m:
            for off in range(0, 1 << 19, mmap.PAGESIZE):
                m[off] = 1


_A = np.array([[1.0, 0.0], [1.0, 1.0]])
_B = np.array([[1.0, 1.0], [0.0, 1.0]])


def wide_arrays() -> None:
    """The mix of the wide Monte Carlo paths: per-stream Philox set-up and a
    step loop over 150 trajectories, products enumerated over a stack of
    2^15 matrices, and sampled products over 4000 matrices."""
    coins = np.empty((100, 150))
    for e in range(150):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=12345, spawn_key=(e,)))
        )
        coins[:, e] = rng.integers(0, 2, size=100)
    u = np.zeros(150)
    v = np.ones(150)
    acc = np.zeros(150)
    for m in coins:
        u += v * (1.0 - m)
        v += u * m
        r = np.sqrt(u * u + v * v)
        acc += np.log(r)
        u /= r
        v /= r
    p = np.stack([_A, _B])
    for _ in range(14):
        p = np.concatenate([np.einsum("ij,njk->nik", _A, p), np.einsum("ij,njk->nik", _B, p)])
        p /= np.abs(p).max(axis=(1, 2))[:, None, None]
    rng = np.random.Generator(np.random.Philox(7))
    q = np.broadcast_to(np.eye(2), (4000, 2, 2)).copy()
    for _ in range(24):
        c = rng.integers(0, 2, size=4000).astype(bool)
        q = np.where(c[:, None, None], np.einsum("ij,njk->nik", _A, q),
                     np.einsum("ij,njk->nik", _B, q))


# name -> (kernel, reference seconds: its time on the reference host in its
# fast phase).  Changing a kernel or its reference rescales every
# normalised figure of the workloads that use it.
KERNELS = {
    "small_arrays": (small_arrays, 0.0120),
    "python_and_faults": (python_and_faults, 0.0110),
    "wide_arrays": (wide_arrays, 0.0500),
}


def measure(name: str) -> float:
    """Seconds one run of the named kernel takes now."""
    fn = KERNELS[name][0]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def reference(name: str) -> float:
    return KERNELS[name][1]
