"""Workload inputs generated from a seed; the program under test sees only these.

Seed 0 gives the headline configuration of each workload. Other seeds draw
from the same class:

* FEM workloads pick one of FEM_VARIANTS stored parameter sets (seed modulo
  FEM_VARIANTS). Variant 0 is the headline set; the others are the headline
  set with each kinetic constant jittered by at most 1 percent, kept only if
  the multimode stability label is unchanged (see make_reference.py). The
  family is finite because every variant's reference outputs are stored.
* plane-analysis draws its (gamma, d) pairs and mode lists from fixed ranges;
  the modes keep the headline list's k values, which set the render cost.

This module needs numpy only, so the parent process never imports the
package under test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FEM_VARIANTS = 8
PARAM_NAMES = ("alpha", "beta", "gamma", "d")

FEM_HEADLINE = {
    # criterion 9's Turing set on the desk mesh, through the transient
    "pattern-implicit": {
        "params": {"alpha": 0.09, "beta": 0.45, "gamma": 250.0, "d": 10.0},
        "h": 0.0554, "dt": 1e-3, "t_end": 2.0, "threshold": 0.0, "kinetics": "implicit"},
    # criterion 10's Hopf set on the reference (paper-fidelity) mesh
    "hopf-split": {
        "params": {"alpha": 0.05, "beta": 0.55, "gamma": 730.0, "d": 5.0},
        "h": 0.0286, "dt": 1e-3, "t_end": 1.5, "threshold": 0.0, "kinetics": "split"},
}


def reference_path(workload: str, variant: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{variant}.npz"


def _gamma_d(rng, gamma_range, d_range) -> tuple[float, float]:
    gamma = float(np.exp(rng.uniform(np.log(gamma_range[0]), np.log(gamma_range[1]))))
    return gamma, float(rng.uniform(*d_range))


def _fem(workload: str, seed: int) -> dict:
    variant = seed % FEM_VARIANTS
    path = reference_path(workload, variant)
    with np.load(path) as ref:
        params = dict(zip(PARAM_NAMES, (float(x) for x in ref["params"])))
    return {**FEM_HEADLINE[workload], "params": params, "reference": path.name}


def _plane_analysis(seed: int) -> dict:
    inputs = {
        # the classify and curves subcommands' (gamma, d) and mode
        "classify": {"gamma": 21.0, "d": 8.0, "k": 0, "l": 0.27, "n": 400,
                     "window": [0.005, 1.0, 0.005, 1.0]},
        # the curves default mode with criterion 5's and both FEM sets' (gamma, d)
        "curves": [[21.0, 8.0, 0, 0.27], [1.0, 1.4, 0, 0.27],
                   [250.0, 10.0, 0, 0.27], [730.0, 5.0, 0, 0.27]],
        "n_samples": 100,
        "modes": [[1, 0.3], [2, 1.3], [3, 2.3], [1, 5.3], [4, 0.3]],
        "resolution": 400,
        "table": {"k_max": 12, "l_start": 0.3, "l_count": 12},
        "multimode": {"gamma": 21.0, "d": 8.0, "l": 0.3, "k_max": 12, "n": 40},
    }
    if seed:
        rng = np.random.default_rng(seed)
        gamma, d = _gamma_d(rng, (10.0, 800.0), (3.0, 12.0))
        inputs["classify"].update(gamma=gamma, d=d, k=int(rng.integers(0, 3)),
                                  l=float(rng.uniform(0.1, 1.0)))
        curves = []
        for _ in range(4):
            # fundamental modes with gamma >= 15: the discriminant curve crosses the window
            gamma, d = _gamma_d(rng, (15.0, 800.0), (1.4, 12.0))
            curves.append([gamma, d, 0, float(rng.uniform(0.2, 0.35))])
        inputs["curves"] = curves
        # a render's cost grows with k (0.28 s at k=1 to 0.56 s at k=4), so every seed
        # renders the headline list's k values, in its own order and with its own l
        inputs["modes"] = [[int(k), 0.3 + int(rng.integers(0, 6))]
                           for k in rng.permutation([k for k, _ in inputs["modes"]])]
        inputs["table"]["l_start"] = float(rng.uniform(0.1, 1.0))
        gamma, d = _gamma_d(rng, (1.0, 800.0), (1.4, 12.0))
        inputs["multimode"].update(gamma=gamma, d=d, l=float(rng.uniform(0.1, 1.0)))
    return inputs


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one workload for one seed, as a JSON-ready dict."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if workload in FEM_HEADLINE:
        inputs = _fem(workload, seed)
    elif workload == "plane-analysis":
        inputs = _plane_analysis(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, **inputs}
