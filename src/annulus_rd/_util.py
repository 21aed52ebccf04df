"""Shared plumbing: digests, run manifests, deterministic RNG gate, size limit."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# The most array entries one input may ask for: sweep cells, spectrum table
# entries, curve samples, seed-lattice points. Past it a typo would allocate
# tens of GB; a sweep of 2000 x 2000 cells is the largest timed.
SIZE_LIMIT = 4_000_000

# The most entries one block of a whole-grid array pass holds: the sweep,
# the curves' sign scan and the eigenmode render each work block by block,
# so their temporaries stay this size however large the grid. Chosen by
# timing the plane-analysis stages at 2048 to 32768 on a 2-core x86 host:
# below 16384 the per-block numpy calls cost more than they save (a
# 1000 x 1000 sweep took 32.7 ms at 4096, 24.3 ms here), and a block's
# complex temporaries, 256 KB, still fit a core's L2 cache.
BLOCK = 16384


def blocks(n_rows: int, n_cols: int):
    """Row-major tiling of an n_rows x n_cols grid into blocks of at most BLOCK cells.

    Yields (rows, cols) slice pairs: BLOCK // n_cols whole rows at a time,
    or, where one row holds more than BLOCK cells, that row in pieces of
    BLOCK. Either way the blocks visit the cells in row-major order.
    """
    rows, cols = max(1, BLOCK // n_cols), min(n_cols, BLOCK)
    for r0 in range(0, n_rows, rows):
        for c0 in range(0, n_cols, cols):
            yield slice(r0, min(r0 + rows, n_rows)), slice(c0, min(c0 + cols, n_cols))


def rng(seed) -> np.random.Generator:
    """Central RNG constructor; the seed is required, so no draw is unseeded."""
    if seed is None:
        raise ValueError("rng() needs a seed")
    return np.random.default_rng(seed)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def replacing(path, mode: str):
    """Write path in mode "w" (UTF-8, LF) or "wb" through a temporary file beside it.

    The file is renamed onto path only when the block succeeds; on any
    failure it is removed and path keeps its old content. It sits in the
    same directory because os.replace is only atomic within a file system.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> Path:
    """Write text with LF endings and UTF-8, byte-stable across runs, atomically."""
    with replacing(path, "w") as f:
        f.write(text)
    return Path(path)


def append_manifest(out_dir, subcommand: str, config: dict, outputs, *,
                    inputs=None, wall_time_s: float | None = None) -> Path:
    """Append one JSON line describing a finished run to <out_dir>/manifest.jsonl."""
    from . import __version__

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entry = {
        "subcommand": subcommand,
        "config": config,
        "version": __version__,
        "inputs": {str(k): sha256_file(v) if Path(str(v)).is_file() else str(v)
                   for k, v in (inputs or {}).items()},
        "outputs": {str(Path(p).name): sha256_file(p) for p in outputs},
        "wall_time_s": wall_time_s,
    }
    path = out_dir / "manifest.jsonl"
    with open(path, "a", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def fmt(x) -> str:
    """Shortest round-trip decimal form for a float (stable across runs)."""
    return repr(float(x))
