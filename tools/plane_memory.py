"""Traced memory peak, wall time and output digest of each plane-analysis stage.

For one stored plane-analysis seed (see bench/inputs.py) this builds the
workload's state as bench/workloads.py builds it, then runs each stage of
its run: the sweep and its region export (classify), the curve sets and
their CSVs (curves), the eigenmode renders (eigenmode), the spectrum table
(spectrum) and the multimode scan (multimode). Each stage runs twice:
untraced for its wall time (the best of --repeat runs), then once under
tracemalloc for the peak of traced memory above what was held before it.
The digest is the first 12 hex digits of a sha256 over the stage's output
files, or over the selected modes of the multimode scan, so two commits
can be compared byte for byte without the bench harness. Outputs go to a
temporary directory; nothing under bench/ is written.

Usage: python tools/plane_memory.py [--seed N] [--resolution PX] [--repeat N]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# one BLAS thread, as the benchmark's workers run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # no __pycache__ under bench/

import numpy as np  # noqa: E402

from annulus_rd import partition, spectrum, stability  # noqa: E402
from inputs import make_inputs  # noqa: E402
from workloads import plane_setup  # noqa: E402


def _stages(inputs, state, out: Path):
    """(name, run) per stage; run() writes its outputs and returns them, as paths or bytes."""

    def classify():
        region = partition.sweep_classify(state.sweep, threads=os.cpu_count() or 1)
        paths = [out / "region.csv", out / "region.pgm", out / "region_legend.txt"]
        partition.export_region_map(region, *paths)
        return paths

    def curves():
        paths = []
        for i, spec in enumerate(state.curve_specs):
            paths.append(out / f"curves_{i}.csv")
            partition.export_curves(partition.build_curves(spec, state.alphas), paths[-1])
        return paths

    def eigenmode():
        paths = []
        for series, eta, k, l in state.renders:
            paths.append(out / f"mode_k{k}_l{l:g}.ppm")
            spectrum.render_phase_plot(series, eta, state.grid, paths[-1],
                                       resolution=inputs["resolution"])
        return paths

    def table():
        path = out / "spectrum.csv"
        spectrum.export_spectrum_csv(
            spectrum.spectrum_table(range(1, inputs["table"]["k_max"] + 1), state.table_ls,
                                    state.geom), path)
        return [path]

    def multimode():
        mm = inputs["multimode"]
        selected = [stability.classify_multimode(params, mm["l"], mm["k_max"], state.geom.a,
                                                 state.geom.rho).selected_k
                    for params in state.scan]
        return [np.array(selected, dtype=np.int64).tobytes()]

    return [("classify", classify), ("curves", curves), ("eigenmode", eigenmode),
            ("spectrum", table), ("multimode", multimode)]


def _digest(outputs) -> str:
    sha = hashlib.sha256()
    for output in outputs:
        sha.update(output.read_bytes() if isinstance(output, Path) else output)
    return sha.hexdigest()[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resolution", type=int, default=None,
                        help="render side in pixels (default: the seed's)")
    parser.add_argument("--repeat", type=int, default=3, help="untraced runs per stage")
    args = parser.parse_args(argv)

    inputs = make_inputs("plane-analysis", args.seed)
    if args.resolution is not None:
        inputs["resolution"] = args.resolution
    print(f"plane-analysis seed {args.seed}, resolution {inputs['resolution']}")
    print(f"{'stage':<11}{'wall_s':>9}{'peak_MB':>10}{'digest':>14}")
    with tempfile.TemporaryDirectory() as tmp:
        state = plane_setup(inputs, Path(tmp))
        for name, run in _stages(inputs, state, Path(tmp)):
            times = []
            for _ in range(max(1, args.repeat)):
                t0 = time.perf_counter()
                run()
                times.append(time.perf_counter() - t0)
            tracemalloc.start()
            outputs = run()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(f"{name:<11}{min(times):>9.4f}{peak / 2**20:>10.2f}{_digest(outputs):>14}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
