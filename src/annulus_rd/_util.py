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
