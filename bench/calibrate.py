"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the speed a process gets drifts by up to 1.7x over tens
of seconds and minutes, with no steal time reported and process CPU time
tracking wall time, so the drift is invisible to the process except as
slower work. The worker times this kernel just before and just after the
workload's timed work; the parent divides each operation's times by the
kernel's time over REFERENCE_S and so reports them at a fixed host speed
(see run.py). The kernel uses numpy and scipy only, never the package
under test, so no change to the program can move it.

The mix follows the workloads' own: sparse LU factorization and triangular
solves, sparse matrix-vector products on a mesh-sized matrix, small dense
numpy kernels and interpreted Python loops.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

# about what the kernel takes on the host the reference numbers come from
# (Intel Xeon, 2 shared vCPUs); only ratios between runs matter
REFERENCE_S = 0.25


def _system(n: int = 900, m: int = 20000):
    rng = np.random.default_rng(0)
    rows = rng.integers(0, n, 4 * n)
    cols = rng.integers(0, n, 4 * n)
    a = sparse.coo_matrix((rng.uniform(-1, 1, 4 * n), (rows, cols)), shape=(n, n))
    a = a + a.T + sparse.diags(np.full(n, 12.0)) + sparse.diags(np.full(n - 1, -1.0), 1)
    # a mesh-sized stiffness-like matrix for the matrix-vector products CG makes
    stencil = sparse.diags([np.full(m - k, -1.0) for k in (1, 2, 60)], [1, 2, 60], shape=(m, m))
    big = (stencil + stencil.T + sparse.diags(np.full(m, 6.5))).tocsr()
    return a.tocsc(), rng.standard_normal(n), big, rng.standard_normal((200, 200))


_SYSTEM = None


def _kernel(a, b, big, dense) -> float:
    lu = sparse_linalg.splu(a)
    for _ in range(20):
        b = lu.solve(b)
        b /= np.linalg.norm(b)
    y = np.ones(big.shape[0])
    for _ in range(400):
        y = big @ y
        y *= 1.0 / np.abs(y).max()
    x = dense
    for _ in range(30):
        x = np.tanh(x @ x.T * 1e-2)
    table = {}
    for i in range(250000):
        table[i & 511] = table.get((i * 7) & 511, 0.0) * 0.5 + i
    return sum(table.values()) + float(b.sum()) + float(x.sum()) + float(y.sum())


def calibrate() -> float:
    """Seconds the reference kernel takes now; the first call also warms it up."""
    global _SYSTEM
    if _SYSTEM is None:
        _SYSTEM = _system()
        _kernel(*_SYSTEM)
    started = time.perf_counter()
    _kernel(*_SYSTEM)
    return time.perf_counter() - started


if __name__ == "__main__":
    print(f"{calibrate():.4f} s (reference {REFERENCE_S} s)")
