"""Self-tests of the benchmark: catalog, inputs, output checks, traced counts.

    python3 -m pytest -q bench/tests

The check tests run each workload once at seed 0 and show that every
output check passes on the real outputs and fails on a perturbed copy.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import catalog  # noqa: E402
from inputs import FEM_VARIANTS, make_inputs  # noqa: E402

WORKLOAD_NAMES = [name for name, _ in catalog.WORKLOADS]


def test_benchmark_json_matches_catalog():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == catalog.benchmark_json()


def test_inputs_come_from_the_seed():
    for name in WORKLOAD_NAMES:
        assert make_inputs(name, 7) == make_inputs(name, 7)
        assert make_inputs(name, 7) != make_inputs(name, 0)
    assert make_inputs("pattern-implicit", 0)["params"] == {
        "alpha": 0.09, "beta": 0.45, "gamma": 250.0, "d": 10.0}
    assert make_inputs("hopf-split", FEM_VARIANTS) == make_inputs("hopf-split", 0)
    classify = make_inputs("plane-analysis", 0)["classify"]
    assert (classify["gamma"], classify["d"], classify["k"], classify["l"]) == (21.0, 8.0, 0, 0.27)


def _run(name, out_dir):
    from workloads import WORKLOADS

    inputs = make_inputs(name, 0)
    setup, run, check = WORKLOADS[name]
    return inputs, run(inputs, setup(inputs, out_dir), out_dir), check


def _fails(check, inputs, outputs, expected):
    failures = check(inputs, outputs)
    assert any(expected in message for message in failures), failures


def test_fem_checks_catch_perturbed_outputs(tmp_path):
    inputs, record, check = _run("pattern-implicit", tmp_path)
    assert check(inputs, record) == []

    def perturbed(edit):
        bad = copy.deepcopy(record)
        edit(bad)
        return bad

    _fails(check, inputs, perturbed(lambda r: r.final.u.__setitem__(0, np.nan)), "non-finite")
    _fails(check, inputs, perturbed(lambda r: setattr(r, "monitor", r.monitor[:-1])),
           "step count")
    _fails(check, inputs, perturbed(lambda r: setattr(r.final, "u", r.final.u * (1 + 1e-4))),
           "final u differs")
    _fails(check, inputs, perturbed(lambda r: setattr(r.final, "v", r.final.v * (1 + 1e-4))),
           "final v differs")
    _fails(check, inputs, perturbed(lambda r: r.monitor.__setitem__((slice(None), 1),
                                                                     r.monitor[:, 1] * 1.001)),
           "monitor differs")
    _fails(check, inputs, perturbed(lambda r: setattr(r.final, "u", np.full_like(r.final.u, 1.0))),
           "contrast")


def test_plane_checks_catch_perturbed_outputs(tmp_path):
    import dataclasses

    from annulus_rd import partition

    inputs, out, check = _run("plane-analysis", tmp_path)
    assert check(inputs, out) == []

    labels = out.region.labels.copy()
    labels[3, 5] = (labels[3, 5] + 1) % 4
    _fails(check, inputs,
           dataclasses.replace(out, region=partition.RegionMap(out.region.spec, labels)),
           "first_principles_labels")

    lines = out.region_csv.read_text().splitlines(keepends=True)
    alpha, beta, label = lines[1].strip().split(",")
    lines[1] = f"{alpha},{beta},{'StableNode' if label != 'StableNode' else 'StableSpiral'}\n"
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("".join(lines))
    _fails(check, inputs, dataclasses.replace(out, region_csv=bad_csv),
           "re-reading the region CSV")

    for which in ("discriminant", "transcritical"):
        spec, curves = next((s, c) for s, c in out.curves if len(getattr(c, which)))
        points = getattr(curves, which).copy()
        points[0, 1] += 1e-3
        bad = [(spec, dataclasses.replace(curves, **{which: points}))]
        _fails(check, inputs, dataclasses.replace(out, curves=bad), f"not on the {which} curve")

    empty = np.empty((0, 2))
    bad = [(s, dataclasses.replace(c, discriminant=empty, transcritical=empty))
           for s, c in out.curves]
    _fails(check, inputs, dataclasses.replace(out, curves=bad), "no discriminant points")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_counts_repeat(name, tmp_path):
    """Two traced runs give identical per-layer counts; only timers may differ."""
    inputs_path = tmp_path / "inputs.json"
    inputs_path.write_text(json.dumps(make_inputs(name, 0)))
    layers = []
    for run in range(2):
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(inputs_path),
             str(tmp_path / f"run{run}"), "1", "0"],
            capture_output=True, text=True, timeout=300, cwd=ROOT)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["failures"] == [], done.stderr
        layers.append(result["layers"])
    counts = [name for name, unit, *_ in catalog.PER_LAYER
              if unit not in ("s", "ms")]
    assert counts and {c: layers[0][c] for c in counts} == {c: layers[1][c] for c in counts}


def _result_line(args, cwd):
    done = subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True,
                          text=True, timeout=180, cwd=cwd)
    return done, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, group", [("0", catalog.END_TO_END), ("1", catalog.PER_LAYER)])
def test_run_prints_every_metric(trace, group):
    done, lines = _result_line(["--workload", "plane-analysis", "--seed", "1", "--seconds", "1",
                                "--trace", trace], ROOT)
    assert done.returncode == 0, done.stderr
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [name for name, *_ in group]
    assert any(text.strip().startswith("error_rate") for text in lines)


def test_run_refuses_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done, lines = _result_line(["--workload", "plane-analysis", "--seed", "0", "--seconds", "1",
                                "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert lines == []


def test_times_are_scaled_to_the_reference_speed():
    import run
    from calibrate import REFERENCE_S

    # the host ran the second operation at half speed: kernel and work both took twice as long
    results = [{"failures": [], "traced": False, "setup_s": s, "run_s": 4.0 * s,
                "peak_rss_mb": 90.0, "speed_scale": REFERENCE_S / (REFERENCE_S * s)}
               for s in (1.0, 2.0, 1.0)]
    metrics, summaries = run._metrics(results, trace=False)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    assert metrics["run_s"]["value"] == pytest.approx(4.0)
    assert metrics["peak_rss_mb"]["value"] == 90.0
    assert summaries["raw run_s"]["median"] == 4.0
