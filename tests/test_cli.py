"""Command-line interface: error channel, precedence, manifests, outputs."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import annulus_rd
from annulus_rd import cli, fem, geometry, partition, spectrum, verify
from annulus_rd.stability import StabilityLabel
from annulus_rd.verify import REFERENCE_ETA

# The directory that holds the package this process imported. The child runs
# in tmp_path, where a relative PYTHONPATH (``PYTHONPATH=src``) no longer
# resolves, so it gets this absolute entry in front: it then imports the same
# code as the parent, from a source checkout or an installed package alike.
PACKAGE_ROOT = str(Path(annulus_rd.__file__).resolve().parent.parent)


def run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "annulus_rd.cli", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300,
                          env=env)


def main_exit(monkeypatch, capsys, *argv):
    """Run cli.main() in this process; return its exit code and stderr.

    In process, a test can replace an allocation site with a stand-in that
    fails, so a missing size check fails at once instead of allocating.
    Relative paths resolve against the working directory, which a test
    sets with monkeypatch.chdir. Warnings are raised as errors: a
    subprocess would print one on stderr next to the error line, where
    here pytest would capture it.
    """
    monkeypatch.setattr(sys, "argv", ["annulus-rd", *argv])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", DeprecationWarning)  # hidden outside __main__
        with pytest.raises(SystemExit) as info:
            cli.main()
    return info.value.code, capsys.readouterr().err


def written_files(out_dir):
    return [p for p in Path(out_dir).rglob("*") if p.is_file()]


def assert_exit(proc, code):
    assert proc.returncode == code, (
        f"exit code {proc.returncode}, expected {code}; stderr:\n{proc.stderr}")


def manifest_lines(out_dir):
    with open(out_dir / "manifest.jsonl", encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def test_no_arguments_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, err = main_exit(monkeypatch, capsys)
    assert code == 2, err
    assert "E_USAGE:" in err


def test_unknown_flag_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the sweep runs on one thread, and only classify and curves read a form
    for argv in (("spectrum", "--frequency", "3"), ("classify", "--threads", "2"),
                 ("simulate", "--form", "paper-literal")):
        code, err = main_exit(monkeypatch, capsys, *argv)
        assert code == 2, err
        assert err.startswith("E_USAGE:") and argv[1] in err
    assert not written_files(tmp_path)


def test_bad_form_is_usage_error(tmp_path, monkeypatch, capsys):
    # spectrum reads no determinant form, so it has no --form flag
    monkeypatch.chdir(tmp_path)
    code, err = main_exit(monkeypatch, capsys, "spectrum", "--form", "folk")
    assert code == 2, err
    assert "E_USAGE:" in err


def test_missing_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, err = main_exit(monkeypatch, capsys, "spectrum", "--config", "nope.ini")
    assert code == 3, err
    assert "E_CONFIG:" in err


def test_unknown_config_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[spectrum]\nwavelength = 3\n")
    code, err = main_exit(monkeypatch, capsys, "spectrum", "--config", "cfg.ini")
    assert code == 3, err
    assert "E_CONFIG:" in err
    assert "wavelength" in err

    # keys of removed options are unknown too
    for section, key in (("spectrum", "truncation"), ("cli", "seedless"), ("cli", "threads"),
                         ("cli", "form")):
        cfg.write_text(f"[{section}]\n{key} = 1\n")
        code, err = main_exit(monkeypatch, capsys, "eigenmode", "--config", "cfg.ini")
        assert code == 3, err
        assert "E_CONFIG:" in err and key in err


def test_config_sections_accept_sibling_keys(tmp_path):
    # subcommands that read one section accept each other's keys and ignore them
    (tmp_path / "spectrum.ini").write_text("[spectrum]\na = 0.4\nk-max = 6\n")
    proc = run_cli("spectrum", "--config", "spectrum.ini", "--out", "s", cwd=tmp_path)
    assert_exit(proc, 0)
    assert "6x12 eigenvalues" in proc.stdout

    proc = run_cli("eigenmode", "--config", "spectrum.ini", "--resolution", "60",
                   "--out", "e", cwd=tmp_path)
    assert_exit(proc, 0)
    config = manifest_lines(tmp_path / "e")[0]["config"]
    assert config["a"] == 0.4 and "k_max" not in config

    (tmp_path / "partition.ini").write_text("[partition]\nn-alpha = 50\nform = paper-literal\n")
    proc = run_cli("curves", "--config", "partition.ini", "--n-samples", "10",
                   "--out", "c", cwd=tmp_path)
    assert_exit(proc, 0)
    config = manifest_lines(tmp_path / "c")[0]["config"]
    assert "n_alpha" not in config and config["form"] == "paper-literal"


def test_bad_values(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # a bad flag value is a usage error, a bad config value a config error
    for flag, value in (("--k-max", "six"), ("--snapshots", "0.1,x")):
        sub = "simulate" if flag == "--snapshots" else "spectrum"
        code, err = main_exit(monkeypatch, capsys, sub, flag, value)
        assert code == 2, err
        assert "E_USAGE:" in err and flag in err

    cfg = tmp_path / "cfg.ini"
    for key, value in (("lumped", "maybe"), ("snapshots", "0.1,x")):
        cfg.write_text(f"[fem]\n{key} = {value}\n")
        code, err = main_exit(monkeypatch, capsys, "simulate", "--config", "cfg.ini")
        assert code == 3, err
        assert f"E_CONFIG: bad value for {key}" in err


def test_malformed_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("k-max = 3 with no section header\n")
    code, err = main_exit(monkeypatch, capsys, "spectrum", "--config", "cfg.ini")
    assert code == 3, err
    assert "E_CONFIG:" in err


def test_domain_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, err = main_exit(monkeypatch, capsys, "mesh", "--a", "2.0", "--b", "1.0")
    assert code == 4, err
    assert "E_DOMAIN:" in err

    code, err = main_exit(monkeypatch, capsys, "simulate", "--dt", "-1")
    assert code == 4, err
    assert "E_DOMAIN:" in err

    # forward-Euler kinetics is no longer offered
    code, err = main_exit(monkeypatch, capsys, "simulate", "--kinetics", "explicit",
                          "--h", "0.2")
    assert code == 4, err
    assert "E_DOMAIN:" in err and "kinetics" in err

    # the SweepSpec refuses an unknown determinant form, as RunConfig a kinetics
    for sub in ("classify", "curves"):
        code, err = main_exit(monkeypatch, capsys, sub, "--form", "folk", "--out", "folk")
        assert code == 4, err
        assert err.startswith("E_DOMAIN:") and "form" in err and "'folk'" in err
        assert not written_files(tmp_path / "folk")

    code, err = main_exit(monkeypatch, capsys, "spectrum", "--l-start", "0.5")
    assert code == 4, err
    assert "E_DOMAIN:" in err

    # one error line and nothing else: the half-integer test used to warn
    # on inf - inf first (main_exit raises warnings as errors)
    for order in ("inf", "nan"):
        code, err = main_exit(monkeypatch, capsys, "spectrum", "--l-start", order)
        assert code == 4, err
        assert err == f"E_DOMAIN: mode index l={order} is not finite\n"

    # a finite order whose eta^2 overflows wrote a table of inf (exit 0)
    # after two overflow warnings; eigenmode failed with an OverflowError
    for args in (("spectrum", "--k-max", "3", "--l-start", "1e308"),
                 ("eigenmode", "--k", "1", "--l=1e308")):
        code, err = main_exit(monkeypatch, capsys, *args, "--out", "huge")
        assert code == 4, err
        assert err == "E_DOMAIN: eta^2 is not finite for mode (k=1, l=1e+308): it overflows\n"
        assert not written_files(tmp_path / "huge")

    # a finite eta^2 whose Bessel constants' binary exponents do not fit
    # np.ldexp's int failed with an OverflowError (exit 1)
    code, err = main_exit(monkeypatch, capsys, "eigenmode", "--l=1000000000000000.25",
                          "--out", "vast")
    assert code == 4, err
    assert err.startswith("E_DOMAIN: radial profile of order l=1000000000000000.2 is out of "
                          "range") and err.count("\n") == 1
    assert not written_files(tmp_path / "vast")

    # t_end under half a step: the run would take no steps
    code, err = main_exit(monkeypatch, capsys, "simulate", "--h", "0.2", "--dt", "1e-3",
                          "--t-end", "0.0001")
    assert code == 4, err
    assert "E_DOMAIN:" in err

    # a NaN threshold would never stop a run, a NaN snapshot never be taken
    for flag in ("--threshold", "--snapshots"):
        code, err = main_exit(monkeypatch, capsys, "simulate", "--h", "0.2", flag, "nan")
        assert code == 4, err
        assert "E_DOMAIN:" in err

    # a snapshot past the last step is never taken, one before t = 0 was
    # written as snapshot_t-1.txt holding the state of step 1; t_end = 0.0104
    # rounds to 10 steps of 1e-3, so the run ends before t = 0.0102
    for end, when in (("0.01", "-1"), ("0.01", "5"), ("0.0104", "0.0102")):
        code, err = main_exit(monkeypatch, capsys, "simulate", "--h", "0.2", "--t-end", end,
                              "--snapshots", when)
        assert code == 4, err
        assert "E_DOMAIN:" in err and "snapshot" in err
    assert not list(tmp_path.rglob("snapshot_t*"))

    # infinite parameters overflowed (exit 1), wrote an all-DiscriminantCurve
    # map or a NaN table (exit 0), or failed on an array size (exit 4)
    for args, what in ((("simulate", "--alpha", "inf", "--h", "0.15", "--t-end", "0.01"), "alpha"),
                       (("classify", "--gamma", "inf", "--n-alpha", "4", "--n-beta", "4"), "gamma"),
                       (("spectrum", "--b", "inf"), "outer radius"),
                       (("mesh", "--b", "inf"), "outer radius")):
        code, err = main_exit(monkeypatch, capsys, *args, "--out", "inf")
        assert code == 4, err
        assert "E_DOMAIN:" in err and what in err and "finite" in err
        assert not [p for p in (tmp_path / "inf").rglob("*") if p.is_file()], args

    # T or D overflowing a float wrote an all-DiscriminantCurve map (exit 0),
    # or failed on numpy's "Array must not contain infs or NaNs" (exit 4),
    # after numpy overflow warnings; so did a cleared discriminant whose
    # leading coefficient gamma^2 is subnormal, or whose companion matrix
    # overflows when divided by it
    for args, value in ((("classify", "--gamma", "1e200"), "gamma=1e+200"),
                        (("classify", "--d", "1e300"), "d=1e+300"),
                        (("curves", "--gamma", "1e200"), "gamma=1e+200"),
                        (("curves", "--d", "1e300"), "d=1e+300"),
                        (("curves", "--gamma", "1e-160"), "gamma=1e-160"),
                        (("curves", "--gamma", "1e-150", "--d", "1e10"), "gamma=1e-150")):
        code, err = main_exit(monkeypatch, capsys, *args, "--out", "vast")
        assert code == 4, err
        assert err.startswith("E_DOMAIN:") and value in err and err.count("\n") == 1, args
        assert not written_files(tmp_path / "vast")
    # the sweep builds no companion matrix, so a subnormal gamma^2 labels fine
    code, err = main_exit(monkeypatch, capsys, "classify", "--gamma", "1e-160",
                          "--n-alpha", "20", "--n-beta", "20", "--out", "tiny")
    assert code == 0, err
    labels = partition.import_region_labels(tmp_path / "tiny" / "region.csv", 20, 20)
    assert (labels == partition.LABEL_CODES[StabilityLabel.STABLE_NODE]).all()

    # runaway sizes are refused before anything is allocated
    for args, limit in ((("classify", "--n-alpha", "100000", "--n-beta", "100000"), "4,000,000"),
                        (("eigenmode", "--resolution", "100000"), "2048")):
        code, err = main_exit(monkeypatch, capsys, *args)
        assert code == 4, err
        assert "E_DOMAIN:" in err and limit in err


@pytest.mark.parametrize("argv, site", [
    (("spectrum", "--k-max", "1000000000"), (spectrum, "spectrum_table")),
    (("spectrum", "--l-count", "1000000000"), (np, "arange")),
    (("curves", "--n-samples", "1000000000"), (np, "linspace")),
    (("mesh", "--h", "1e-5"), (geometry, "_hex_lattice")),
    (("simulate", "--h", "1e-5"), (geometry, "_hex_lattice")),
    (("simulate", "--t-end", "1e12"), (fem, "simulate")),
])
def test_runaway_sizes_refused_before_allocation(tmp_path, monkeypatch, capsys, unreached,
                                                 argv, site):
    # each would allocate 8 GB or more: a list of 1e9 ints, 1e9 doubles,
    # a seed lattice of about 4.6e10 points, or a run of 1e15 steps
    monkeypatch.setattr(*site, unreached(site[1]))
    code, err = main_exit(monkeypatch, capsys, *argv, "--out", str(tmp_path / "o"))
    assert code == 4, err
    assert err.startswith("E_DOMAIN:") and "limit 4,000,000" in err
    assert not written_files(tmp_path)


def test_snapshot_names_must_differ(tmp_path, monkeypatch, capsys, unreached):
    # both times of a pair are written as snapshot_t0.05.txt; the one file
    # held the later one's state (step 51, not 50)
    monkeypatch.setattr(fem, "simulate", unreached("fem.simulate"))
    for times in ("0.05,0.05000001", "0.05,0.05"):
        code, err = main_exit(monkeypatch, capsys, "simulate", "--h", "0.15", "--t-end", "0.06",
                              "--threshold", "0", "--snapshots", times,
                              "--out", str(tmp_path / "o"))
        assert code == 4, err
        assert err.startswith("E_DOMAIN:") and "snapshot" in err
    assert not written_files(tmp_path)


def test_runtime_error_on_diverging_kinetics(tmp_path, monkeypatch, capsys):
    # the first half step would need about 1.2e6 RK4 substeps; a warning on
    # the way would raise out of main_exit
    monkeypatch.chdir(tmp_path)
    code, err = main_exit(monkeypatch, capsys, "simulate", "--gamma", "1e6", "--dt", "0.5",
                          "--t-end", "1", "--h", "0.15", "--threshold", "0")
    assert code == 5, err
    assert "E_RUNTIME:" in err and "substep count" in err
    assert "Warning" not in err


def test_io_error_when_out_is_under_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    code, err = main_exit(monkeypatch, capsys, "spectrum", "--out", "blocker/sub")
    assert code == 6, err
    assert "E_IO:" in err


def test_option_precedence(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[spectrum]\nk-max = 3\n")

    proc = run_cli("spectrum", "--out", "d1", cwd=tmp_path)
    assert_exit(proc, 0)
    assert "12x12 eigenvalues" in proc.stdout

    proc = run_cli("spectrum", "--config", "cfg.ini", "--out", "d2", cwd=tmp_path)
    assert_exit(proc, 0)
    assert "3x12 eigenvalues" in proc.stdout

    proc = run_cli("spectrum", "--config", "cfg.ini", "--k-max", "2",
                   "--out", "d3", cwd=tmp_path)
    assert_exit(proc, 0)
    assert "2x12 eigenvalues" in proc.stdout


def test_spectrum_output_values(tmp_path):
    proc = run_cli("spectrum", "--out", "o", cwd=tmp_path)
    assert_exit(proc, 0)
    lines = (tmp_path / "o" / "spectrum.csv").read_text().splitlines()
    assert lines[0].startswith("k,0.3,1.3,")
    assert len(lines) == 13
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(REFERENCE_ETA[0, 0], abs=1e-3)
    last = lines[12].split(",")
    assert float(last[12]) == pytest.approx(REFERENCE_ETA[11, 11], abs=1e-3)


def test_classify_summary_and_manifest(tmp_path):
    args = ("classify", "--n-alpha", "60", "--n-beta", "60", "--out", "o")
    p1 = run_cli(*args, cwd=tmp_path)
    assert_exit(p1, 0)
    assert "HopfInstability = 0" in p1.stdout
    assert "TranscriticalCurve = 0" in p1.stdout

    p2 = run_cli(*args, cwd=tmp_path)
    assert_exit(p2, 0)
    entries = manifest_lines(tmp_path / "o")
    assert len(entries) == 2  # append-only, one line per run
    assert entries[0]["subcommand"] == "classify"
    assert entries[0]["outputs"] == entries[1]["outputs"]  # identical digests
    assert entries[0]["config"]["n_alpha"] == 60
    assert set(entries[0]["outputs"]) == {"region.csv", "region.pgm",
                                          "region_legend.txt"}


def test_mesh_deterministic_across_processes(tmp_path):
    p1 = run_cli("mesh", "--h", "0.2", "--out", "m", cwd=tmp_path)
    p2 = run_cli("mesh", "--h", "0.2", "--out", "m", cwd=tmp_path)
    assert_exit(p1, 0)
    assert_exit(p2, 0)
    e1, e2 = manifest_lines(tmp_path / "m")
    assert e1["outputs"] == e2["outputs"]
    assert set(e1["outputs"]) == {"mesh.node", "mesh.ele"}
    assert "min quality" in p1.stdout


def test_simulate_smoke(tmp_path):
    proc = run_cli("simulate", "--h", "0.25", "--dt", "1e-3", "--t-end", "0.01",
                   "--threshold", "0", "--snapshots", "0.005", "--out", "s",
                   cwd=tmp_path)
    assert_exit(proc, 0)
    assert "terminated by t_end" in proc.stdout
    out = tmp_path / "s"
    assert (out / "monitor.csv").is_file()
    assert (out / "final.txt").is_file()
    assert (out / "snapshot_t0.005.txt").is_file()
    monitor = (out / "monitor.csv").read_text().splitlines()
    assert monitor[0] == "t,rate_u,rate_v"
    assert len(monitor) == 11


def test_shared_flags_accepted(tmp_path):
    proc = run_cli("classify", "--n-alpha", "20", "--n-beta", "20",
                   "--form", "paper-literal", "--out", "o", cwd=tmp_path)
    assert_exit(proc, 0)
    entry = manifest_lines(tmp_path / "o")[0]
    assert entry["config"]["form"] == "paper-literal"
    assert "seedless" not in entry["config"] and "threads" not in entry["config"]


def test_verify_report_and_exit_code(tmp_path, monkeypatch, capsys):
    def green():
        return verify.CriterionResult(1, "stub green", True, 0.0, "fine")

    def red():
        return verify.CriterionResult(2, "stub red", False, 0.0, "broken")

    monkeypatch.setattr(verify, "ALL_CRITERIA", (green, red))
    assert cli.run(["verify", "--out", str(tmp_path)]) == 1
    assert (tmp_path / "report.txt").read_text() == (
        "[ 1] PASS  stub green\n[ 2] FAIL  stub red\n")
    assert "verify: 1/2 criteria passed" in capsys.readouterr().out

    # the manifest records the report and each artifact criterion 12 digests
    entry, = manifest_lines(tmp_path)
    artifacts = {p.name for p in (tmp_path / "artifacts").iterdir()}
    assert len(artifacts) == 11
    assert set(entry["outputs"]) == artifacts | {"report.txt"}


def test_version_flag(tmp_path):
    proc = run_cli("--version", cwd=tmp_path)
    assert_exit(proc, 0)
    assert proc.stdout.strip() == annulus_rd.__version__
