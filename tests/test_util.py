"""Shared plumbing: the atomic file writer behind every exporter, the public surface."""

import os

import pytest

import annulus_rd
from annulus_rd import _util
from annulus_rd.geometry import make_annulus
from annulus_rd.partition import SweepSpec, export_region_map, sweep_classify
from annulus_rd.spectrum import ModeIndex


def _fail_rename(src, dst):
    raise OSError("rename refused")


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    text_path, raster_path = tmp_path / "table.csv", tmp_path / "region.pgm"
    text_path.write_text("old text\n")
    raster_path.write_bytes(b"old raster")
    monkeypatch.setattr(os, "replace", _fail_rename)

    with pytest.raises(OSError, match="rename refused"):
        _util.write_text(text_path, "new text\n")
    spec = SweepSpec(0.005, 1.0, 0.005, 1.0, 8, 8, 21.0, 8.0, ModeIndex(0, 0.27),
                     make_annulus(0.5, 1.0))
    with pytest.raises(OSError, match="rename refused"):
        export_region_map(sweep_classify(spec), tmp_path / "region.csv", raster_path)

    assert text_path.read_text() == "old text\n"
    assert raster_path.read_bytes() == b"old raster"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["region.pgm", "table.csv"]


def test_error_inside_block_keeps_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with _util.replacing(path, "wb") as f:
            f.write(b"new")
            raise RuntimeError("exporter failed half-way")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_write_text_creates_parents_and_replaces(tmp_path):
    path = tmp_path / "sub" / "dir" / "t.txt"
    _util.write_text(path, "a\nb\n")
    _util.write_text(path, "c\n")
    assert path.read_bytes() == b"c\n"
    assert [p.name for p in path.parent.iterdir()] == ["t.txt"]


def test_public_names_resolve():
    # a stale __all__ entry left behind by a deletion fails here
    missing = [name for name in annulus_rd.__all__ if not hasattr(annulus_rd, name)]
    assert missing == []
