"""Benchmark of the annulus-rd pipeline: one workload, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/annulus_rd. Each operation is
a fresh worker process (bench/worker.py) that imports the package from that
src/, sets up, does the workload's fixed work and checks its outputs;
operations run one after another, and none is started that would not end
within S seconds at the median duration so far (at least one runs, two
when tracing). The inputs come from the seed alone (bench/inputs.py).

Every time reported is scaled to a fixed host speed. The host's speed
drifts by up to 1.7x over minutes, so each worker also times a fixed
reference kernel (bench/calibrate.py) just before and just after its timed
work, and each of its times is multiplied by calibrate.REFERENCE_S over the
mean of the two; the raw times stay in the report file. The kernel never
calls the program, so a faster or slower program moves the scaled times
as much as the raw ones.

With --trace 0 the result holds the end-to-end metrics over the
operations: the medians of setup_s, run_s and peak_rss_mb (see
catalog.END_TO_END). With --trace 1 operations alternate untraced and
traced; the result holds the per-layer metrics of the traced ones (counts
from the first, timers as medians) and trace.overhead_s, the median traced
minus the median untraced run_s.

Before the result, stdout carries a readable summary: each metric with its
unit, quartiles and sample count, error_rate (failed over attempted
operations), and the environment (source digest, versions, CPU, limits).
The last line is one JSON object: correct, attempted, failed, metrics. The
full result with every sample is also written to
.bench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from catalog import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS
from inputs import make_inputs

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
HARD_LIMIT_S = 170.0  # every worker is stopped by then, so the run ends within 180 s

# Workers never start more threads than there are cores: BLAS stays on one
# thread and the sweep uses the CLI default of one thread per core.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


def _worker(inputs_path: Path, out_dir: Path, traced: bool, deadline: float) -> dict:
    """Run one operation; a crash, a timeout or a failed check is a failure."""
    spawned = time.monotonic()
    with subprocess.Popen(
            [sys.executable, str(WORKER), str(inputs_path), str(out_dir), "1" if traced else "0",
             repr(spawned)],
            cwd=ROOT, env={**os.environ, **WORKER_ENV},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            stdout = json.dumps({"failures": ["worker timed out"]})
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"failures": [f"worker exited with {proc.returncode} and no result"]}
    if result["failures"]:
        sys.stderr.write(stderr[-4000:])
    result["duration_s"] = time.monotonic() - spawned
    result["traced"] = traced
    if result.get("calibration_s"):
        result["speed_scale"] = REFERENCE_S / statistics.mean(result["calibration_s"])
    return result


def _scaled(result: dict, value: float, unit: str) -> float:
    """A time of the operation at the reference host speed; other units as they are."""
    return value * result["speed_scale"] if unit in ("s", "ms") else value


def _summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "min": min(values), "max": max(values),
           "n": len(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def environment() -> dict:
    """Where and on what the numbers were measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "annulus_rd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpuinfo = (_read("/proc/cpuinfo") or "").splitlines()
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                if line.startswith("model name")), platform.processor() or None)
    return {
        "git_sha": _git_sha(),  # None in a checkout without git metadata
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "limits": {
            "cores": f"{os.cpu_count()} shared with other tenants",
            "cpu_pinning": "none",
            "machine_settings_changed": False,
            "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
            "cgroup_memory_max": _read("/sys/fs/cgroup/memory.max"),
            "worker_env": WORKER_ENV,
        },
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + seconds
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    inputs_path = work / "inputs.json"
    inputs_path.write_text(json.dumps(make_inputs(workload, seed)), encoding="utf-8")
    results = []
    try:
        while True:
            traced = trace and len(results) % 2 == 1
            if len(results) >= (2 if trace else 1):
                typical = statistics.median(r["duration_s"] for r in results)
                if time.monotonic() + typical > deadline:
                    break
            out_dir = work / f"op{len(results)}"
            results.append(_worker(inputs_path, out_dir, traced, start + HARD_LIMIT_S))
            if traced and (out_dir / "spans.jsonl").is_file():
                spans = ROOT / ".bench_out" / f"{workload}-seed{seed}-spans.jsonl"
                spans.parent.mkdir(exist_ok=True)
                shutil.copyfile(out_dir / "spans.jsonl", spans)
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"results": results, "elapsed_s": time.monotonic() - start}


def _metrics(results: list[dict], trace: bool) -> tuple[dict, dict]:
    """(metrics for the result line, summaries for the readable report)."""
    timed = [r for r in results if "speed_scale" in r]
    plain = [r for r in timed if not r["traced"]]
    if not trace:
        summaries = {name: _summary([_scaled(r, r[name], unit) for r in plain])
                     for name, unit, *_ in END_TO_END}
        summaries["raw run_s"] = _summary([r["run_s"] for r in plain])
        summaries["raw setup_s"] = _summary([r["setup_s"] for r in plain])
        metrics = {name: {"value": summaries[name][statistic], "unit": unit}
                   for name, unit, _, _, statistic in END_TO_END}
        return metrics, summaries
    traced = [r for r in timed if "layers" in r]
    summaries, metrics = {}, {}
    for name, unit, *_ in PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.median(_scaled(r, r["run_s"], "s") for r in traced)
                     - statistics.median(_scaled(r, r["run_s"], "s") for r in plain))
        elif unit in ("s", "ms"):
            summaries[name] = _summary([_scaled(r, r["layers"][name], unit) for r in traced])
            value = summaries[name]["median"]
        else:  # counts repeat exactly across runs; report the first
            value = traced[0]["layers"][name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, summaries


def main(argv=None) -> int:
    names = [name for name, _ in WORKLOADS]
    parser = argparse.ArgumentParser(description="annulus-rd pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "annulus_rd" / "__init__.py").is_file():
        print(f"bench: no annulus_rd source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    results = run["results"]
    failed = sum(1 for r in results if r["failures"])
    timed = [r for r in results if "speed_scale" in r]
    if (not any(not r["traced"] for r in timed)
            or (args.trace and not any("layers" in r for r in timed))):
        print(f"bench: no operation of {args.workload} completed", file=sys.stderr)
        for r in results:
            print(f"  {r['failures']}", file=sys.stderr)
        return 1
    metrics, summaries = _metrics(results, bool(args.trace))
    env = environment()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(results)} operations in {run['elapsed_s']:.1f} s (closed loop, one client)")
    for name, metric in metrics.items():
        s = summaries.get(name)
        spread = (f"  median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
                  f"min {s['min']:.4g}" if s and "q1" in s else "")
        counted = f"  n={s['n']}" if s else ""
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}{spread}{counted}")
    for name in ("raw setup_s", "raw run_s"):
        if name in summaries:
            print(f"  {name + ' (unscaled)':28s} median {summaries[name]['median']:.4g} s")
    scales = [r["speed_scale"] for r in results if "speed_scale" in r]
    print(f"  {'speed_scale':28s} median {statistics.median(scales):.4g}  min {min(scales):.4g}  "
          f"max {max(scales):.4g}  (reference kernel {REFERENCE_S} s over its time)")
    print(f"  {'error_rate':28s} {failed / len(results):.6g} ({failed} failed / "
          f"{len(results)} attempted operations)")
    for r in results:
        for message in r["failures"]:
            print(f"  FAILED: {message}")
    print("env " + json.dumps(env, sort_keys=True))

    line = {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": metrics}
    report = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.parent.mkdir(exist_ok=True)
    report.write_text(json.dumps({**line, "seconds": args.seconds, "env": env,
                                  "summaries": summaries, "samples": results}, indent=1),
                      encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
