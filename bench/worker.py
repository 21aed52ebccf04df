"""One benchmark operation in a fresh process: set-up, timed work, output check.

    python3 bench/worker.py INPUTS_JSON OUT_DIR TRACE SPAWNED

INPUTS_JSON holds the generated inputs, OUT_DIR receives the exports, TRACE
is 0 or 1, and SPAWNED is the parent's time.monotonic() just before it
started this process, so that setup_s covers interpreter start and the
package import. Prints one JSON line: setup_s, run_s, peak_rss_mb,
calibration_s (the reference kernel's time just before and just after the
timed work, see calibrate.py), the failure messages, and with TRACE=1 the
per-layer metrics. A traced run also
writes its spans to OUT_DIR/spans.jsonl when it ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    inputs_path, out_dir = Path(argv[1]), Path(argv[2])
    trace, spawned = argv[3] == "1", float(argv[4])
    result = {"failures": []}
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import annulus_rd

        source = Path(annulus_rd.__file__).resolve()
        if ROOT / "src" not in source.parents:
            raise RuntimeError(f"annulus_rd imported from {source}, not from this checkout")
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer(run_id=out_dir.name)
            tracer.install(annulus_rd)
        from calibrate import calibrate
        from workloads import WORKLOADS

        inputs = json.loads(inputs_path.read_text(encoding="utf-8"))
        setup, run, check = WORKLOADS[inputs["workload"]]
        out_dir.mkdir(parents=True, exist_ok=True)

        state = setup(inputs, out_dir)
        result["setup_s"] = time.monotonic() - spawned
        result["calibration_s"] = [calibrate()]
        started = time.monotonic()
        outputs = run(inputs, state, out_dir)
        result["run_s"] = time.monotonic() - started
        # before the check, whose oracles allocate more than the workload does
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["calibration_s"].append(calibrate())

        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            tracer.write_spans(out_dir / "spans.jsonl")
        result["failures"] = check(inputs, outputs)
    except Exception:  # reported to the parent, which counts the operation as failed
        traceback.print_exc()
        result["failures"].append(traceback.format_exc(limit=1).strip().splitlines()[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
