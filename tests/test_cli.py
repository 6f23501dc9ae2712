"""CLI experiments: subcommands, exit-code contract, determinism."""

import json

import numpy as np
import pytest

from discrepancy_forge.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, main
from discrepancy_forge.kernel import load_kernel

BALL = '{"variant":"ball","center":[0.5,0.5],"radius":0.25}'
LATTICE256 = '{"kind":"lattice","m":256,"d":2}'


def run_cli(args):
    return main(args)


def test_bound_subcommand(tmp_path):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "sweep.csv"
    code = run_cli(["bound", "--set", BALL, "--points", LATTICE256, "--R", "16",
                    "--out", str(out), "--csv-out", str(csv_out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["status"] == "ok"
    assert report["report"]["valid"] is True
    assert report["config_hash"]
    assert report["report"]["kernel_provenance"]["builder"] == "discrepancy-forge"
    header = csv_out.read_text().splitlines()[0]
    assert header == "k1,k2,chi_re,chi_im,chi_abs,h_abs,weyl,term"
    assert "np.float64" not in csv_out.read_text()


def test_bound_auto_rule(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["bound", "--set", BALL, "--points", LATTICE256,
                    "--R", "auto:lattice", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["report"]["R"] == 16.0


def test_set_file_argument(tmp_path):
    set_path = tmp_path / "ball.json"
    set_path.write_text(BALL)
    out = tmp_path / "report.json"
    code = run_cli(["bound", "--set", str(set_path), "--points", LATTICE256,
                    "--R", "8", "--out", str(out)])
    assert code == EXIT_OK


def test_sandwich_subcommand(tmp_path):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "sandwich.csv"
    code = run_cli(["sandwich", "--set", BALL, "--R", "8", "--grid-n", "64",
                    "--oversample", "4", "--out", str(out),
                    "--csv-out", str(csv_out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    entry = report["report"]["results"][0]
    assert entry["budget"] < 1e-2
    assert max(entry["lower_violation"], entry["upper_violation"],
               entry["width_violation"]) <= entry["budget"]
    csv_path = tmp_path / "sandwich_R8.csv"
    assert csv_path.read_text().splitlines()[0] == "x1,x2,chi,A,B,psi_bound"


def test_exit_code_on_invariant_violation(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["sandwich", "--set", BALL, "--R", "8", "--grid-n", "64",
                    "--oversample", "4", "--max-budget", "1e-12",
                    "--out", str(out)])
    assert code == EXIT_INVARIANT
    report = json.loads(out.read_text())
    assert report["status"] == "invariant-violation"
    assert "budget" in report["violation"]["check"]


def test_exit_code_on_config_error():
    bad_ball = '{"variant":"ball","center":[0.5,0.5],"radius":0.7}'
    code = run_cli(["bound", "--set", bad_ball, "--points", LATTICE256, "--R", "8"])
    assert code == EXIT_CONFIG
    assert run_cli(["bound", "--set", BALL, "--points", "nonexistent.json",
                    "--R", "8"]) == EXIT_CONFIG


def test_exit_code_on_bad_subcommand():
    assert run_cli(["no-such-command"]) == EXIT_CONFIG


def test_glp_search_subcommand(tmp_path):
    out = tmp_path / "cert.json"
    code = run_cli(["glp-search", "--m", "101", "--d", "2", "--strategy",
                    "exhaustive", "--out", str(out)])
    assert code == EXIT_OK
    cert = json.loads(out.read_text())["report"]
    assert cert["value"] <= cert["average"]
    assert "fitted_constants" in cert


def test_sphere_orbit_subcommand(tmp_path):
    out = tmp_path / "orbit.json"
    csv_out = tmp_path / "points.csv"
    code = run_cli(["sphere-orbit", "--k", "1", "--base", "0,0,1",
                    "--cap", "0,0,1,1.5707963267948966", "--L", "3",
                    "--out", str(out), "--csv-out", str(csv_out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())["report"]
    assert report["m"] == 7
    assert report["caps"][0]["discrepancy"] == pytest.approx(abs(0.5 - 3 / 7))
    assert len(csv_out.read_text().splitlines()) == 8  # header + 7 points


def test_polytope_family_subcommand(tmp_path):
    out = tmp_path / "family.json"
    code = run_cli(["polytope-family", "--m", "101", "--chain-sum-R", "16,64",
                    "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())["report"]
    assert report["bound"] >= 1 / 101
    assert report["chain_sum_spread"] <= 4


def test_kernel_cache_round_trip(tmp_path):
    cache = tmp_path / "kernel.json"
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli(["kernel-build", "--kernel-cache", str(cache),
                    "--out", str(out1)]) == EXIT_OK
    assert cache.exists()
    # second run loads the cache (fast) and reproduces the report byte for byte
    assert run_cli(["kernel-build", "--kernel-cache", str(cache),
                    "--out", str(out2)]) == EXIT_OK
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["report"] == r2["report"]


def test_kernel_cache_survives_torn_file(tmp_path):
    fresh_cache = tmp_path / "fresh.json"
    torn_cache = tmp_path / "torn.json"
    fresh_out = tmp_path / "fresh-report.json"
    torn_out = tmp_path / "torn-report.json"
    assert run_cli(["kernel-build", "--kernel-cache", str(fresh_cache),
                    "--out", str(fresh_out)]) == EXIT_OK
    text = fresh_cache.read_bytes()
    torn_cache.write_bytes(text[:len(text) // 2])
    # a cache file that fails to load is a miss: rebuilt and overwritten
    assert run_cli(["kernel-build", "--kernel-cache", str(torn_cache),
                    "--out", str(torn_out)]) == EXIT_OK
    assert load_kernel(torn_cache).gamma == load_kernel(fresh_cache).gamma
    assert torn_out.read_bytes() == fresh_out.read_bytes()


def test_kernel_cache_from_older_version_is_rebuilt(tmp_path):
    fresh_cache = tmp_path / "fresh.json"
    old_cache = tmp_path / "old.json"
    fresh_out = tmp_path / "fresh-report.json"
    old_out = tmp_path / "old-report.json"
    assert run_cli(["kernel-build", "--kernel-cache", str(fresh_cache),
                    "--out", str(fresh_out)]) == EXIT_OK
    doc = json.loads(fresh_cache.read_text())
    assert doc["version"] == 2
    doc["version"] = 1
    old_cache.write_text(json.dumps(doc, sort_keys=True) + "\n")
    # a table written by older code is a miss: rebuilt and overwritten
    assert run_cli(["kernel-build", "--kernel-cache", str(old_cache),
                    "--out", str(old_out)]) == EXIT_OK
    assert json.loads(old_cache.read_text())["version"] == 2
    assert old_out.read_bytes() == fresh_out.read_bytes()


def test_determinism_byte_identical(tmp_path):
    args_template = ["bound", "--set", BALL, "--points", LATTICE256, "--R", "16"]
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(args_template + ["--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_lattice_scaling_subcommand(tmp_path):
    out = tmp_path / "scaling.json"
    csv_out = tmp_path / "scaling.csv"
    code = run_cli(["lattice-scaling", "--set", BALL, "--m", "256,1024",
                    "--out", str(out), "--csv-out", str(csv_out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())["report"]
    assert abs(report["slope"] + 0.5) <= 0.1
    assert csv_out.read_text().startswith("m,R,bound,true_discrepancy")
