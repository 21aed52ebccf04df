"""Acceptance criteria: one parametrized test runs every registered criterion.

Each case runs one criterion of annulus_rd.verify's registry, prints its
PASS/FAIL line (collected again in the terminal summary), and asserts it.
Criterion 5 contains a region-nesting claim that measurably does not hold
for the stable-node label; that case is a strict xfail, with its attainable
clauses asserted separately below so regressions in them still fail loudly.

Cases run in number order, so criteria 9 and 10 share their two long
simulations through verify.headline_run's cache.
"""

import tempfile

import numpy as np
import pytest

from annulus_rd import verify

from conftest import ACCEPTANCE_LINES

_NESTING_FAILS = pytest.mark.xfail(
    strict=True, reason="the stable-node region does not nest with growing d; "
                        "clause 3 of this criterion fails by measurement")


def test_registry_holds_criteria_in_order():
    numbers = [c.number for c in verify.ALL_CRITERIA]
    assert numbers == list(range(1, 13))
    assert verify.ALL_CRITERIA == [getattr(verify, f"criterion_{n}") for n in numbers]
    names = [c.name for c in verify.ALL_CRITERIA]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("criterion", [
    pytest.param(c, id=str(c.number), marks=_NESTING_FAILS if c.number == 5 else ())
    for c in verify.ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    ACCEPTANCE_LINES.append(result.line())
    assert result.passed, result.detail


def test_registered_budget_fails_a_slow_criterion(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CRITERIA", [])
    slow = verify.criterion(2, "slow", budget_s=0.0)(lambda: (True, "fine"))
    free = verify.criterion(1, "free")(lambda: (True, "fine"))
    assert verify.ALL_CRITERIA == [free, slow]
    within, over = free(), slow()
    assert (within.number, within.name, within.passed, within.detail) == (1, "free", True, "fine")
    assert (over.number, over.name, over.passed) == (2, "slow", False)
    assert over.detail == "fine; over its 0 s budget"


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


def test_criterion_10_oscillation_run():
    # the oscillatory run is split kinetics: it counts its RK4 substeps and
    # criterion 10 reports them
    record, _ = verify.headline_run("hopf")
    assert record.kinetics_substeps > 0
    assert f"{record.kinetics_substeps} RK4 substeps" in verify.criterion_10().detail


def test_criterion_12_byte_reproducibility(tmp_path, monkeypatch):
    # the work directory is temporary and must be removed afterwards
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert verify.criterion_12().passed
    assert list(tmp_path.iterdir()) == []


# Criterion 12's artifacts are the CLI's own files. Their digests were
# recorded when verify still wrote them through a copy of each pipeline, as
# mode.ppm and snapshot.txt (now mode_k1_l0.3.ppm and snapshot_t0.05.txt;
# final.txt is the same state at t_end). curves.csv was re-recorded when
# the cleared polynomials became batched coefficient arrays: 8 of its 29
# beta values moved, by at most 6.7e-16. monitor.csv, snapshot_t0.05.txt and
# final.txt were re-recorded when the split diffusion factors left COLAMD
# for the symmetric-mode ordering: u, v and the monitor rates moved by at
# most 6.3e-14 relative, node by node and row by row. They were re-recorded
# again when the two split diffusion factors became one RCM-banded Cholesky
# factor: u and v moved by at most 1.3e-13 relative node by node, the
# monitor rates by at most 1.1e-13 relative row by row.
ARTIFACT_DIGESTS = {
    "spectrum.csv": "adb2a7bcef912e1842ec74452afc53982c25d21bd0ebae259e4645942db70c30",
    "mode_k1_l0.3.ppm": "7cab35536b7fc3a5e2c4729f10a10ca1abdf04c5fbdc9f6ef817ba33f325fab3",
    "region.csv": "9aceec7dcf94eaf28c7d9931b3610c70da9039833bb52080900016ee1a7fcebf",
    "region.pgm": "f79b42438de707dd976e68acbb047320d90cb64ab12897cfd3e344db09422859",
    "region_legend.txt": "e70f77242fbe633a53ff28f616409af8ede118f3115174f8fdf69bd1026f37d1",
    "curves.csv": "f597b9b44bb897b9bc069e692e711fc190169a5b116bfe6958ec1ec6aaea553e",
    "mesh.node": "445074409d8c442e4e25818a485733991d74152f85c57b833a5dd2f5f473834f",
    "mesh.ele": "b6a5e2c794f95bccacc5bbd05da285491b0d189710d53d689751b210ec565034",
    "monitor.csv": "01f109ada7ce1e814f02b7cc0dbac256c18cf349ea812ab3adce6945ef8ff193",
    "snapshot_t0.05.txt": "bbba89a7a5c6abae25205cc5ceaf6486c5b1c3262946f4b730ff0afb3651c5db",
    "final.txt": "bbba89a7a5c6abae25205cc5ceaf6486c5b1c3262946f4b730ff0afb3651c5db",
}


def test_criterion_12_artifact_digests(tmp_path):
    assert verify._artifact_set(tmp_path) == ARTIFACT_DIGESTS
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ARTIFACT_DIGESTS)
