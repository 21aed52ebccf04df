"""Solver counts of the FEM stepper on every stored benchmark variant.

For each of the FEM_VARIANTS stored parameter sets of both FEM workloads
(pattern-implicit and hopf-split, see bench/inputs.py) this runs
fem.simulate once and prints its factorizations (the banded Cholesky
factor of hopf-split's diffusion, the Jacobian LUs of pattern-implicit),
the solves with them, RK4 substeps, the simulate wall time, the
relative L2 distance of the final u and v to the stored bench reference and
a digest: the first 12 hex digits of a sha256 over the final u, v and
monitor bytes, so the variants can be compared byte for byte between two
commits.
The mesh and operators are built once per workload, as bench/workloads.py
builds them; nothing under bench/ is written.

Usage: python tools/stepper_counts.py [--workload NAME ...] [--variants 0 3 ...]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

# one BLAS thread, as the benchmark's workers run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # no __pycache__ under bench/

import numpy as np  # noqa: E402

from annulus_rd import fem, stability  # noqa: E402
from inputs import FEM_HEADLINE, FEM_VARIANTS, make_inputs, reference_path  # noqa: E402
from workloads import fem_setup  # noqa: E402


def _relative_error(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def _digest(record) -> str:
    """The first 12 hex digits of a sha256 over the final u, v and monitor bytes."""
    sha = hashlib.sha256()
    for array in (record.final.u, record.final.v, record.monitor):
        sha.update(array.tobytes())
    return sha.hexdigest()[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(FEM_HEADLINE),
                        default=list(FEM_HEADLINE))
    parser.add_argument("--variants", nargs="+", type=int, default=list(range(FEM_VARIANTS)),
                        choices=range(FEM_VARIANTS))
    args = parser.parse_args(argv)

    print(f"{'workload':<17}{'var':>4}{'factors':>8}{'solves':>8}{'substeps':>10}"
          f"{'simulate_s':>12}{'err_u':>11}{'err_v':>11}{'digest':>14}")
    for workload in args.workload:
        config, ops = fem_setup(make_inputs(workload, 0), None)
        for variant in args.variants:
            inputs = make_inputs(workload, variant)
            params = stability.KineticParams(**inputs["params"])
            t0 = time.perf_counter()
            record = fem.simulate(replace(config, params=params), ops)
            elapsed = time.perf_counter() - t0
            with np.load(reference_path(workload, variant)) as ref:
                err_u = _relative_error(record.final.u, ref["u"])
                err_v = _relative_error(record.final.v, ref["v"])
            print(f"{workload:<17}{variant:>4}{record.factorizations:>8}{record.lu_solves:>8}"
                  f"{record.kinetics_substeps:>10}{elapsed:>12.3f}{err_u:>11.2e}{err_v:>11.2e}"
                  f"{_digest(record):>14}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
