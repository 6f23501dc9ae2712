"""CLI experiments: subcommands, exit-code contract, determinism."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from discrepancy_forge import cli
from discrepancy_forge.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    _namespace_to_config,
    build_parser,
    main,
)
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


def _no_expensive_work(*args, **kwargs):
    pytest.fail("a malformed input reached a kernel, table or search")


@pytest.mark.parametrize("argv", [
    ["sphere-orbit", "--k", "1", "--cap", "0,0,1"],
    ["sphere-orbit", "--k", "1", "--cap", "0,0,1,0.5,0.5"],
    ["sphere-orbit", "--k", "1", "--base", "0,0,0"],
    ["sphere-orbit", "--k", "1", "--L", "0"],
    ["lattice-scaling", "--set", BALL, "--m="],
    ["lattice-scaling", "--set", BALL, "--m", "1024"],
    ["kronecker-scaling", "--set", BALL, "--m", "65536"],
    ["sandwich", "--set", BALL, "--R="],
    ["kronecker-scaling", "--set", BALL, "--m", "65536,262144", "--x="],
    ["glp-search", "--m", "101", "--d", "3", "--X", "[[1,0],[0,1]]"],
    ["polytope-family", "--m", "101", "--d", "3", "--X", "[[1,0],[0,1]]"],
    ["sphere-orbit", "--k", "0"],
    ["sphere-orbit", "--k", "0", "--L", "2"],
    ["kronecker-scaling", "--set", BALL, "--m", "65536,262144", "--x", "0.4142135623730951"],
    ["polytope-family", "--m", "101", "--g", "1"],
    ["glp-search", "--m", "101", "--strategy", "random", "--n-samples", "0"],
    ["polytope-family", "--m", "31", "--chain-sum-R", "0,16"],
    ["sphere-orbit", "--k", "1", "--L", "51"],
], ids=["cap-3-values", "cap-5-values", "base-zero", "L-zero", "m-empty",
        "lattice-one-size", "kronecker-one-size", "R-empty", "x-empty", "glp-X-dimension",
        "family-X-dimension", "k-zero", "k-zero-with-L", "x-dimension", "g-length",
        "n-samples-zero", "chain-sum-R-zero", "L-above-cap"])
def test_malformed_input_exits_3_before_any_work(argv, monkeypatch):
    for name in ("get_kernel", "enumerate_words", "search", "korobov", "chain_sum",
                 "ball_rho_hat"):
        monkeypatch.setattr(cli, name, _no_expensive_work)
    assert run_cli(argv) == EXIT_CONFIG


def test_polytope_family_builds_one_phi_ball(tmp_path, monkeypatch):
    # the exhaustive search's ball also feeds the CSV
    builds = []
    build = cli.PhiBall.build

    def counting_build(chains, m):
        builds.append(m)
        return build(chains, m)

    monkeypatch.setattr(cli.PhiBall, "build", staticmethod(counting_build))
    csv_out = tmp_path / "phi.csv"
    assert run_cli(["polytope-family", "--m", "101", "--chain-sum-R", "16,64",
                    "--out", str(tmp_path / "r.json"), "--csv-out", str(csv_out)]) == EXIT_OK
    assert builds == [101]
    assert csv_out.read_text().startswith("k1,k2,phi,weyl,term")


_NO_KERNEL_RUNS = [["glp-search", "--m", "101"],
                   ["polytope-family", "--m", "31", "--chain-sum-R", "16,64"],
                   ["sphere-orbit", "--k", "2", "--L", "4"]]


def test_experiments_without_a_kernel_never_import_scipy(tmp_path):
    # scipy is most of the import time; only kernel and Bessel-function code loads it
    script = textwrap.dedent("""
        import json, sys
        from discrepancy_forge.cli import main
        for argv in json.loads(sys.argv[1]):
            assert main(argv + ["--out", sys.argv[2]]) == 0, argv
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(_NO_KERNEL_RUNS),
                           str(tmp_path / "r.json")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


_SET_FLAGS = ["--set", BALL]
_ALL_COMMON = ["--seed", "7", "--kernel-d", "3", "--kernel-grid-step", "0.005",
               "--kernel-x-max", "20", "--kernel-t-max", "24", "--kernel-cache", "k.json",
               "--out", "r.json", "--csv-out", "c.csv"]
_DEFAULT_KERNEL = {"d": 2, "grid_step": 0.00390625, "t_max": 30.0, "x_max": 25.0}
_ALL_KERNEL = {"d": 3, "grid_step": 0.005, "t_max": 24.0, "x_max": 20.0}
_SQUARE_X = "[[1,0],[0,1],[1,1]]"

# (argv, params, config_hash) with no optional flag and with every optional flag;
# the hashes are those of the earlier per-subcommand translation of the flags
CONFIG_CONTRACT = [
    (["kernel-build"], {},
     "edd1c57dccf63013e62919930295524d65d1a598ec75d537b65ef6c29926698f"),
    (["kernel-build", *_ALL_COMMON], {},
     "83881fe2dbde90bfee02f4d898fa867f94363758a97f8c8f99bab0645676d7ff"),
    (["sandwich", *_SET_FLAGS, "--R", "8,16"],
     {"R": [8.0, 16.0], "grid_n": 512, "oversample": 8, "set": BALL},
     "8352eab049de861503f5abe4359f71b8b372bb42558d7e5171560bb1eb996ddf"),
    (["sandwich", *_SET_FLAGS, "--R", "8,16", "--grid-n", "64", "--oversample", "4",
      "--max-budget", "0.01", *_ALL_COMMON],
     {"R": [8.0, 16.0], "grid_n": 64, "max_budget": 0.01, "oversample": 4, "set": BALL},
     "ebc1231e167c8da95dd43ce1aa778d25b05571a6a684a4a06c05d8c8c0353b04"),
    (["bound", *_SET_FLAGS, "--points", LATTICE256, "--R", "16"],
     {"R": 16.0, "alpha": 1.0, "beta": 1.0, "eps": 0.1, "points": LATTICE256, "set": BALL},
     "a88bdda5ad57f72677b252159eb783d30b2b162143e730b9da92570027664ec0"),
    (["bound", *_SET_FLAGS, "--points", LATTICE256, "--R", "auto:search", "--alpha", "0.5",
      "--beta", "1.5", "--eps", "0.2", *_ALL_COMMON],
     {"R": "auto:search", "alpha": 0.5, "beta": 1.5, "eps": 0.2, "points": LATTICE256,
      "set": BALL},
     "20ea6830d756eb497bd0dd96218f645288e14829fa105c54d3256c0104ac630c"),
    (["lattice-scaling", *_SET_FLAGS, "--m", "256,1024"],
     {"alpha": 1.0, "beta": 1.0, "m": [256, 1024], "set": BALL},
     "47842a5a43c5c22ed80623e2aaad8a52401644826504897b8e8c26cc0ad11f6b"),
    (["lattice-scaling", *_SET_FLAGS, "--m", "256,1024", "--alpha", "0.5", "--beta", "1.5",
      *_ALL_COMMON],
     {"alpha": 0.5, "beta": 1.5, "m": [256, 1024], "set": BALL},
     "2dc02082341e963737c216769894e36602c928f8221ffe76abdfe24ab8974ae0"),
    (["kronecker-scaling", *_SET_FLAGS, "--m", "65536,262144"],
     {"eps": 0.1, "m": [65536, 262144], "schmidt_R": [64, 128, 256, 512], "set": BALL},
     "3e10899b3bf06119251321256e98fb9a30dd6e896d8d46798c551f480b92891b"),
    (["kronecker-scaling", *_SET_FLAGS, "--m", "65536,262144", "--x", "0.25,0.5",
      "--eps", "0.2", "--schmidt-R", "32,64", *_ALL_COMMON],
     {"eps": 0.2, "m": [65536, 262144], "schmidt_R": [32, 64], "set": BALL,
      "x": [0.25, 0.5]},
     "178775b57fb739cb33a7765538102b36cb59579b1a743dd4a54d1d7e67b16f53"),
    (["glp-search", "--m", "101"],
     {"X": "coordinate", "d": 2, "m": 101, "n_samples": 128, "strategy": "exhaustive"},
     "5ef8d7b4a5db149ea4767413b461f9869921662095251518b04bdb64368ef1e0"),
    (["glp-search", "--m", "101", "--d", "2", "--X", _SQUARE_X, "--strategy", "random",
      "--n-samples", "16", *_ALL_COMMON],
     {"X": _SQUARE_X, "d": 2, "m": 101, "n_samples": 16, "strategy": "random"},
     "1fe3bef428cfdb66c510241111ad8175bfd3ffa492cc3962306004a2fb52eb06"),
    (["polytope-family", "--m", "101"],
     {"X": "coordinate", "chain_sum_R": [16, 64, 256, 1024, 4096], "d": 2, "m": 101},
     "2bf2c7a591f07bc45a8092c786ab2fba0d2d2bd2ff75254ff2d02211178d84ef"),
    (["polytope-family", "--m", "101", "--d", "2", "--X", _SQUARE_X, "--g", "1,44",
      "--chain-sum-R", "16,64", *_ALL_COMMON],
     {"X": _SQUARE_X, "chain_sum_R": [16, 64], "d": 2, "g": [1, 44], "m": 101},
     "d73d3ef635ce0e27e8950a4c9abbb2ab6482a034a46457d94c4e645c119bf743"),
    (["sphere-orbit", "--k", "1"],
     {"base": [0.0, 0.0, 1.0], "delta": 1.0, "k": 1},
     "b7d2cc56ba7c7eb22af0a368546bedc63f6601b89a0bdc1899cba1605243239c"),
    (["sphere-orbit", "--k", "1", "--base", "0,1,1", "--cap", "0,0,1,0.5",
      "--cap", "1,0,0,1.0", "--L", "3", "--delta", "0.5", *_ALL_COMMON],
     {"L": 3, "base": [0.0, 1.0, 1.0], "caps": ["0,0,1,0.5", "1,0,0,1.0"], "delta": 0.5,
      "k": 1},
     "daccdbeecef3a0fa2ad6ea768c01960b1a89cd81a8e4bbc2d93a1d97edb15303"),
]


@pytest.mark.parametrize("argv, params, digest", CONFIG_CONTRACT,
                         ids=[f"{c[0][0]}-{'all' if '--seed' in c[0] else 'none'}"
                              for c in CONFIG_CONTRACT])
def test_config_contract(argv, params, digest):
    # parsing only: the config embedded in every report, and its hash, stay fixed
    config = _namespace_to_config(build_parser().parse_args(argv))
    full = "--seed" in argv
    assert config.canonical() == {
        "kind": argv[0], "params": params, "seed": 7 if full else 0,
        "kernel_params": _ALL_KERNEL if full else _DEFAULT_KERNEL}
    assert config.digest() == digest
    assert (config.out, config.csv_out, config.kernel_cache) == (
        ("r.json", "c.csv", "k.json") if full else (None, None, None))
