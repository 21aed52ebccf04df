"""Regenerate the stored reference outputs of the two FEM workloads.

    python3 bench/make_reference.py

For each FEM workload and variant it draws the kinetic parameters (variant 0
is the headline set; the others jitter each constant by at most JITTER
and keep the set only if its multimode stability label matches the
headline set's), runs the workload once and stores the parameters, the
final u and v and every MONITOR_STRIDE-th monitor row in
bench/reference/<workload>-<variant>.npz.

Rerun this only when a change to the program is meant to change the
simulated solution, and say so in the change.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from annulus_rd import stability  # noqa: E402

from inputs import (FEM_HEADLINE, FEM_VARIANTS, PARAM_NAMES, REFERENCE_DIR,  # noqa: E402
                    reference_path)
from workloads import MONITOR_STRIDE, WORKLOADS  # noqa: E402

JITTER = 0.01


def _label(params: dict):
    kp = stability.KineticParams(**params)
    return stability.classify_multimode(kp, l=0.3, k_max=12, a=0.5, rho=0.5).verdict.label


def variant_params(workload: str, variant: int) -> dict:
    headline = FEM_HEADLINE[workload]["params"]
    if variant == 0:
        return dict(headline)
    label = _label(headline)
    rng = np.random.default_rng([variant, list(FEM_HEADLINE).index(workload)])
    while True:
        params = {name: headline[name] * (1.0 + rng.uniform(-JITTER, JITTER))
                  for name in PARAM_NAMES}
        if _label(params) == label:
            return params


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in FEM_HEADLINE:
        setup, run, check = WORKLOADS[workload]
        for variant in range(FEM_VARIANTS):
            params = variant_params(workload, variant)
            inputs = {"workload": workload, **FEM_HEADLINE[workload], "params": params}
            with tempfile.TemporaryDirectory(dir=REFERENCE_DIR) as tmp:
                record = run(inputs, setup(inputs, Path(tmp)), Path(tmp))
            path = reference_path(workload, variant)
            np.savez_compressed(path, params=np.array([params[n] for n in PARAM_NAMES]),
                                u=record.final.u, v=record.final.v,
                                monitor=record.monitor[::MONITOR_STRIDE])
            inputs["reference"] = path.name
            failures = check(inputs, record)
            if failures:
                raise SystemExit(f"{path.name}: {failures}")
            print(f"{path.name}: {params}, u contrast "
                  f"{float(record.final.u.max() - record.final.u.min()):.4f}")


if __name__ == "__main__":
    main()
