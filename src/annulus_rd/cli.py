"""Command-line surface: subcommands over the toolkit plus config plumbing.

Subcommands: spectrum, eigenmode, classify, curves, simulate, mesh, verify.
Each is one row of _SUBCOMMANDS: the config section it reads, its options
and its handler. That table drives the argument parser, the config-key
check and dispatch. execute() runs a subcommand by name into a directory;
`verify` calls it too, so its determinism criterion digests the files the
CLI itself writes.

Option resolution, highest priority first: command-line flag, config-file
key, built-in default. Config files are INI text with one section per
module; each subcommand reads the section of the module it drives
(spectrum and eigenmode read [spectrum], classify and curves read
[partition], simulate reads [fem], mesh reads [geometry]) and the shared
flags read [cli]. A section accepts the keys of every subcommand that
reads it; each subcommand ignores its siblings' keys. Values are parsed
in full double precision.

Every run appends one JSON line to <out>/manifest.jsonl recording the
resolved configuration, package version, output digests and wall time.

Errors print a single machine-parsable line `E_<KIND>: message` on stderr
and exit with the kind's code: usage 2, config 3, domain 4, runtime 5,
io 6. A verify run whose criteria are not all green exits 1. The library
raises every refusal of an input as a ValueError and every failed
computation as a RuntimeError, so main() alone maps them to domain and
runtime.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, fem, geometry, partition, spectrum, stability, verify
from ._util import SIZE_LIMIT, append_manifest, write_text

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DOMAIN = 4
EXIT_RUNTIME = 5
EXIT_IO = 6


class CliError(Exception):
    """Carries the machine-parsable kind tag and exit code."""

    def __init__(self, kind: str, code: int, message: str):
        super().__init__(message)
        self.kind = kind
        self.code = code


def _usage_error(msg): return CliError("E_USAGE", EXIT_USAGE, msg)
def _config_error(msg): return CliError("E_CONFIG", EXIT_CONFIG, msg)
def _domain_error(msg): return CliError("E_DOMAIN", EXIT_DOMAIN, msg)


# ---------------------------------------------------------------------------
# option values
# ---------------------------------------------------------------------------

def _flag(raw: str) -> bool:
    """A boolean config value; on the command line the flag takes none."""
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _floats(raw: str) -> tuple:
    """A comma-separated float list; empty text is the empty list."""
    raw = raw.strip()
    return tuple(float(tok) for tok in raw.split(",")) if raw else ()


def _parse_value(raw: str, parse, flag: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise _config_error(f"bad value for {flag}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand bodies: each takes (opt, out_dir), writes its files and returns
# (output_paths, summary_line, ok)
# ---------------------------------------------------------------------------

def _cmd_spectrum(opt, out_dir):
    geom = geometry.make_annulus(opt["a"], opt["b"])
    if opt["k_min"] > opt["k_max"]:
        raise ValueError(f"k-min {opt['k_min']} exceeds k-max {opt['k_max']}")
    if opt["l_count"] < 1:
        raise ValueError(f"l-count must be positive, got {opt['l_count']}")
    n_k = opt["k_max"] - opt["k_min"] + 1
    if n_k * opt["l_count"] > SIZE_LIMIT:
        raise ValueError(f"table of {n_k}x{opt['l_count']} eigenvalues exceeds the limit {SIZE_LIMIT:,}")
    ls = opt["l_start"] + opt["l_step"] * np.arange(opt["l_count"])
    table = spectrum.spectrum_table(range(opt["k_min"], opt["k_max"] + 1), ls, geom)
    path = out_dir / "spectrum.csv"
    spectrum.export_spectrum_csv(table, path)
    return [path], (f"{table.eta.shape[0]}x{table.eta.shape[1]} eigenvalues, "
                    f"eta range [{table.eta.min():.4f}, {table.eta.max():.4f}]"), True


def _cmd_eigenmode(opt, out_dir):
    geom = geometry.make_annulus(opt["a"], opt["b"])
    mode = spectrum.ModeIndex(opt["k"], opt["l"])
    series = spectrum.build_series(mode)
    eta = float(np.sqrt(spectrum.eigenvalue(mode, geom)))
    grid = geometry.build_polar_grid(geom, N=95, M=90)
    path = out_dir / f"mode_k{opt['k']}_l{opt['l']:g}.ppm"
    spectrum.render_phase_plot(series, eta, grid, path, resolution=opt["resolution"])
    return [path], f"eta = {eta:.4f}, rendered {opt['resolution']}px phase plot", True


def _make_sweep_spec(opt, n_alpha, n_beta):
    return partition.SweepSpec(
        alpha_min=opt["alpha_min"], alpha_max=opt["alpha_max"],
        beta_min=opt["beta_min"], beta_max=opt["beta_max"],
        n_alpha=n_alpha, n_beta=n_beta, gamma=opt["gamma"], d=opt["d"],
        mode=spectrum.ModeIndex(opt["k"], opt["l"]),
        geom=geometry.make_annulus(opt["a"], opt["b"]), form=opt["form"])


def _cmd_classify(opt, out_dir):
    spec = _make_sweep_spec(opt, opt["n_alpha"], opt["n_beta"])
    region = partition.sweep_classify(spec, threads=opt["threads"] or os.cpu_count() or 1)
    paths = [out_dir / "region.csv", out_dir / "region.pgm", out_dir / "region_legend.txt"]
    partition.export_region_map(region, paths[0], raster_path=paths[1], legend_path=paths[2])
    counts = region.counts()
    return paths, ", ".join(f"{name} = {counts[name]}" for name in sorted(counts)), True


def _cmd_curves(opt, out_dir):
    spec = _make_sweep_spec(opt, n_alpha=2, n_beta=2)
    if opt["n_samples"] < 1:
        raise ValueError(f"n-samples must be positive, got {opt['n_samples']}")
    if opt["n_samples"] > SIZE_LIMIT:
        raise ValueError(f"n-samples {opt['n_samples']} exceeds the limit {SIZE_LIMIT:,}")
    alphas = np.linspace(opt["alpha_min"], opt["alpha_max"], opt["n_samples"])
    curves = partition.build_curves(spec, alphas)
    path = out_dir / "curves.csv"
    partition.export_curves(curves, path)
    return [path], (f"{len(curves.discriminant)} discriminant points, "
                    f"{len(curves.transcritical)} transcritical points"), True


def _cmd_simulate(opt, out_dir):
    params = stability.KineticParams(alpha=opt["alpha"], beta=opt["beta"],
                                     gamma=opt["gamma"], d=opt["d"])
    geom = geometry.make_annulus(opt["a"], opt["b"])
    mesh = geometry.triangulate_annulus(geom, opt["h"])
    config = fem.RunConfig(params=params, mesh=mesh, dt=opt["dt"],
                           t_end=opt["t_end"], threshold=opt["threshold"],
                           snapshot_times=tuple(opt["snapshots"]),
                           lumped=opt["lumped"], kinetics=opt["kinetics"])
    # a snapshot's file is named by its time's %g form; a shared name would
    # leave one file holding whichever state was written last
    names = {t: f"snapshot_t{t:g}.txt" for t in config.snapshot_times}
    if len(set(names.values())) < len(config.snapshot_times):
        raise ValueError(f"snapshot times {config.snapshot_times} do not all have distinct "
                         f"%g forms, which name their files")
    record = fem.simulate(config)
    paths = [out_dir / "monitor.csv", out_dir / "final.txt"]
    fem.export_monitor(record, paths[0])
    fem.export_snapshot(mesh, record.final, paths[1])
    for t_snap, state in record.snapshots:
        p = out_dir / names[t_snap]
        fem.export_snapshot(mesh, state, p)
        paths.append(p)
    contrast = float(record.final.u.max() - record.final.u.min())
    return paths, (f"{len(mesh.triangles)} triangles, terminated by {record.termination} "
                   f"at t = {record.final.t:.3f}, u contrast {contrast:.4f}"), True


def _cmd_mesh(opt, out_dir):
    geom = geometry.make_annulus(opt["a"], opt["b"])
    mesh = geometry.triangulate_annulus(geom, opt["h"])
    paths = [out_dir / "mesh.node", out_dir / "mesh.ele"]
    geometry.export_mesh(mesh, *paths)
    quality = float(geometry.triangle_quality(mesh.vertices, mesh.triangles).min())
    return paths, (f"{len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles, "
                   f"min quality {quality:.3f}"), True


def _cmd_verify(opt, out_dir):
    results = verify.run_all()
    print(verify.format_table(results))
    # the written report carries no timings so repeated runs are byte-identical
    lines = [f"[{r.number:2d}] {'PASS' if r.passed else 'FAIL'}  {r.name}\n"
             for r in results]
    report = out_dir / "report.txt"
    write_text(report, "".join(lines))
    digests = verify._artifact_set(out_dir / "artifacts")
    paths = [report] + [out_dir / "artifacts" / name for name in digests]
    summary = f"{sum(r.passed for r in results)}/{len(results)} criteria passed"
    return paths, summary, all(r.passed for r in results)


# ---------------------------------------------------------------------------
# the subcommand table
# ---------------------------------------------------------------------------

# option spec: (flag-name, parser, default, help); the parser turns config
# text into a value, and a _flag option is a switch without a value
_GLOBAL_OPTS = (
    ("out", str, "out", "output directory"),
    ("threads", int, 0, "worker cap for sweeps; 0 means all cores"),
    ("form", str, "consistent", "determinant form: consistent or paper-literal"),
)

_ANNULUS = (
    ("a", float, 0.5, "inner radius"),
    ("b", float, 1.0, "outer radius"),
)
_PLANE_MODE = (
    ("k", int, 0, "mode index"),
    ("l", float, 0.27, "order"),
) + _ANNULUS

# subcommand: (config section, options, handler)
_SUBCOMMANDS = {
    "spectrum": ("spectrum", _ANNULUS + (
        ("k-min", int, 1, "first mode index"),
        ("k-max", int, 12, "last mode index"),
        ("l-start", float, 0.3, "first order"),
        ("l-step", float, 1.0, "order increment"),
        ("l-count", int, 12, "number of orders"),
    ), _cmd_spectrum),
    "eigenmode": ("spectrum", _ANNULUS + (
        ("k", int, 1, "mode index"),
        ("l", float, 0.3, "order"),
        ("resolution", int, 400, "image side in pixels"),
    ), _cmd_eigenmode),
    "classify": ("partition", (
        ("alpha-min", float, 0.005, "sweep window"),
        ("alpha-max", float, 1.0, "sweep window"),
        ("beta-min", float, 0.005, "sweep window"),
        ("beta-max", float, 1.0, "sweep window"),
        ("n-alpha", int, 200, "grid columns"),
        ("n-beta", int, 200, "grid rows"),
        ("gamma", float, 1.0, "kinetic scale"),
        ("d", float, 1.4, "diffusivity ratio"),
    ) + _PLANE_MODE, _cmd_classify),
    "curves": ("partition", (
        ("alpha-min", float, 0.005, "sample window"),
        ("alpha-max", float, 0.995, "sample window"),
        ("beta-min", float, 0.005, "root window"),
        ("beta-max", float, 1.0, "root window"),
        ("n-samples", int, 100, "alpha sample count"),
        ("gamma", float, 21.0, "kinetic scale"),
        ("d", float, 8.0, "diffusivity ratio"),
    ) + _PLANE_MODE, _cmd_curves),
    "simulate": ("fem", (
        ("alpha", float, 0.09, "kinetic parameter"),
        ("beta", float, 0.45, "kinetic parameter"),
        ("gamma", float, 250.0, "kinetic scale"),
        ("d", float, 10.0, "diffusivity ratio"),
    ) + _ANNULUS + (
        ("h", float, geometry.DESK_SCALE_H, "target mesh spacing"),
        ("dt", float, 1e-3, "time step"),
        ("t-end", float, 10.0, "final time"),
        ("threshold", float, 5e-4, "stop when both monitor rates drop below; 0 disables"),
        ("kinetics", str, "split", "reaction treatment: split or implicit"),
        ("lumped", _flag, False, "lumped mass in the diffusion solve"),
        ("snapshots", _floats, (), "comma-separated snapshot times"),
    ), _cmd_simulate),
    "mesh": ("geometry", _ANNULUS + (
        ("h", float, geometry.DESK_SCALE_H, "target spacing"),
    ), _cmd_mesh),
    "verify": ("verify", (), _cmd_verify),
}


def execute(name: str, out_dir, **overrides):
    """Run subcommand `name` into out_dir and return (paths, summary, ok).

    Options are keyed by underscored name, shared flags included; those not
    given take the subcommand's defaults. Nothing is printed and no
    manifest line is written.
    """
    _, opts, handler = _SUBCOMMANDS[name]
    opt = {flag.replace("-", "_"): default for flag, _, default, _ in opts + _GLOBAL_OPTS}
    opt.update(overrides)
    if opt["form"] not in stability.FORMS:
        raise _usage_error(f"--form must be one of {stability.FORMS}, got {opt['form']!r}")
    if opt["threads"] < 0:
        raise _domain_error(f"threads must be 0 (all cores) or positive, got {opt['threads']}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return handler(opt, out_dir)


# ---------------------------------------------------------------------------
# option resolution
# ---------------------------------------------------------------------------

def _load_config(path):
    if path is None:
        return {}
    if not Path(path).is_file():
        raise _config_error(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise _config_error(f"malformed config {path}: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _resolve(args, config, section, opts):
    """flag > config-file key > default, returned as {underscored_name: value}."""
    values = config.get(section, {})
    # a section accepts the options of every subcommand that reads it
    known = {spec[0] for spec in opts}.union(
        spec[0] for row_section, row_opts, _ in _SUBCOMMANDS.values()
        if row_section == section for spec in row_opts)
    for key in values:
        if key not in known:
            raise _config_error(f"unknown key {key!r} in section [{section}]")
    resolved = {}
    for name, parse, default, _ in opts:
        attr = name.replace("-", "_")
        flag_value = getattr(args, attr, None)
        if flag_value is not None:
            resolved[attr] = flag_value
        elif name in values:
            resolved[attr] = _parse_value(values[name], parse, name)
        else:
            resolved[attr] = default
    return resolved


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the CLI error channel."""

    def error(self, message):
        raise _usage_error(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="annulus-rd",
        description="Reaction-diffusion toolkit on a two-dimensional annulus")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")
    for name, (_, opts, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag, parse, default, help_text in opts + _GLOBAL_OPTS + (
                ("config", str, None, "INI config file"),):
            kwargs = {"help": f"{help_text} (default {default})", "default": None}
            if parse is _flag:
                kwargs.update(action="store_const", const=True)
            else:
                kwargs["type"] = parse
            p.add_argument(f"--{flag}", **kwargs)
    return parser


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        print("E_USAGE: a subcommand is required", file=sys.stderr)
        return EXIT_USAGE

    section, opts, _ = _SUBCOMMANDS[args.subcommand]
    config_file = _load_config(args.config)
    opt = {**_resolve(args, config_file, section, opts),
           **_resolve(args, config_file, "cli", _GLOBAL_OPTS)}

    started = time.perf_counter()
    outputs, summary, ok = execute(args.subcommand, opt["out"], **opt)
    wall = time.perf_counter() - started
    inputs = {"config": args.config} if args.config else None
    append_manifest(opt["out"], args.subcommand, opt, outputs,
                    inputs=inputs, wall_time_s=round(wall, 3))
    print(f"{args.subcommand}: {summary}")
    return 0 if ok else 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except CliError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        sys.exit(exc.code)
    except ValueError as exc:
        print(f"E_DOMAIN: {exc}", file=sys.stderr)
        sys.exit(EXIT_DOMAIN)
    except RuntimeError as exc:
        print(f"E_RUNTIME: {exc}", file=sys.stderr)
        sys.exit(EXIT_RUNTIME)
    except OSError as exc:
        print(f"E_IO: {exc}", file=sys.stderr)
        sys.exit(EXIT_IO)
    sys.exit(code)


if __name__ == "__main__":
    main()
