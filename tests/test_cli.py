"""CLI experiments: subcommands, exit-code contract, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_per_value

from discrepancy_forge import cli, erdos_turan, majorant
from discrepancy_forge.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    _namespace_to_config,
    build_parser,
    main,
)
from discrepancy_forge.chains import ChainSystem, check_chain_sum
from discrepancy_forge.erdos_turan import H_OVERSAMPLE, optimal_R
from discrepancy_forge.errors import require_memory
from discrepancy_forge.geometry import set_from_json
from discrepancy_forge.glp import PhiBall, check_search
from discrepancy_forge.hfourier import h_coefficient_table
from discrepancy_forge.kernel import load_kernel, save_kernel
from discrepancy_forge.pointsets import is_prime, korobov, pointset_from_descriptor, weyl_spectrum
from discrepancy_forge.sphere import enumerate_words, orbit, orbit_bytes, word_count

BALL = '{"variant":"ball","center":[0.5,0.5],"radius":0.25}'
LATTICE256 = '{"kind":"lattice","m":256,"d":2}'
_QUAD = ('{"variant":"polytope","epsilon":0.3,'
         '"vertices":[[0.3,0.25],[0.75,0.35],[0.7,0.7],[0.25,0.6]]}')


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


def test_sandwich_csv_per_degree(tmp_path, monkeypatch):
    # the report and the CSV share one synthesis of A and of B per R, and
    # R = 8 and R = 8.5 write to different files
    syntheses = []
    synthesis = majorant.TrigPolynomial.grid_synthesis

    def counting_synthesis(self, n):
        syntheses.append(self.degree)
        return synthesis(self, n)

    monkeypatch.setattr(majorant.TrigPolynomial, "grid_synthesis", counting_synthesis)
    assert run_cli(["sandwich", "--set", BALL, "--R", "8,8.5", "--grid-n", "64",
                    "--oversample", "1", "--out", str(tmp_path / "s.json"),
                    "--csv-out", str(tmp_path / "s.csv")]) == EXIT_OK
    assert syntheses == [8.0, 8.0, 8.5, 8.5]
    r8, r85 = tmp_path / "s_R8.csv", tmp_path / "s_R8.5.csv"
    assert r8.exists() and r85.exists()
    assert r8.read_bytes() != r85.read_bytes()


@pytest.mark.parametrize("set_", [BALL, _QUAD], ids=["ball", "quad"])
def test_sandwich_memory_stays_within_its_estimate(set_, tmp_path, kernel2, monkeypatch):
    # two degrees on the default 512 grid; only the grids' share grows with grid_n
    cache = tmp_path / "kernel.json"
    save_kernel(kernel2, cache)
    estimates = []

    def recording(estimate, what):
        estimates.append(estimate)
        return require_memory(estimate, what)

    monkeypatch.setattr(cli, "require_memory", recording)
    argv = ["sandwich", "--set", set_, "--R", "8,16", "--oversample", "1",
            "--kernel-cache", str(cache), "--out", str(tmp_path / "r.json"),
            "--csv-out", str(tmp_path / "grid.csv")]
    tracemalloc.start()
    try:
        assert run_cli(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    assert peak <= estimates[0]


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


def test_sphere_orbit_runs_past_length_8(tmp_path):
    # --k is capped by memory alone: k = 9 has 2,929,687 words
    out = tmp_path / "orbit.json"
    assert run_cli(["sphere-orbit", "--k", "9", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())["report"]
    assert report["m"] == word_count(9) == 2929687
    assert 0 <= report["caps"][0]["discrepancy"] < 0.01


def test_polytope_family_subcommand(tmp_path):
    out = tmp_path / "family.json"
    code = run_cli(["polytope-family", "--m", "101", "--chain-sum-R", "16,64",
                    "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())["report"]
    assert report["bound"] >= 1 / 101
    assert report["chain_sum_spread"] <= 4


def test_polytope_family_in_d3_streams_its_chain_sums(tmp_path):
    # the chain sums stream the signed-permutation wedge: R = 256 holds one
    # stripe, not the 12 GiB (2R + 1)^3 cube; reports and CSVs reproduce
    outs = []
    for name in ("a", "b"):
        out, csv_out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        assert run_cli(["polytope-family", "--m", "31", "--d", "3", "--g", "1,2,5",
                        "--chain-sum-R", "16,64,256", "--out", str(out),
                        "--csv-out", str(csv_out)]) == EXIT_OK
        outs.append((out.read_bytes(), csv_out.read_bytes()))
    assert outs[0] == outs[1]
    report = json.loads(outs[0][0])["report"]
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
    fresh_out = tmp_path / "fresh-report.json"
    assert run_cli(["kernel-build", "--kernel-cache", str(fresh_cache),
                    "--out", str(fresh_out)]) == EXIT_OK
    doc = json.loads(fresh_cache.read_text())
    assert doc["version"] == 4
    # version 3 set the extents and the bump grid per build: here x_max = 20
    v3 = json.loads(fresh_cache.read_text())
    v3["version"] = 3
    v3["x_max"] = v3["provenance"]["x_max"] = 20.0
    v3["provenance"]["bump"]["grid_step"] = 1.0 / 256
    for old in (dict(doc, version=2), v3):
        old_cache = tmp_path / f"v{old['version']}.json"
        old_out = tmp_path / f"v{old['version']}-report.json"
        old_cache.write_text(json.dumps(old, sort_keys=True) + "\n")
        # a table written by older code is a miss: rebuilt and overwritten
        assert run_cli(["kernel-build", "--kernel-cache", str(old_cache),
                        "--out", str(old_out)]) == EXIT_OK
        assert old_cache.read_bytes() == fresh_cache.read_bytes()
        assert old_out.read_bytes() == fresh_out.read_bytes()


def test_kernel_cache_with_truncated_khat_slopes_is_rebuilt(tmp_path):
    fresh_cache = tmp_path / "fresh.json"
    short_cache = tmp_path / "short.json"
    fresh_out = tmp_path / "fresh-report.json"
    short_out = tmp_path / "short-report.json"
    assert run_cli(["kernel-build", "--kernel-cache", str(fresh_cache),
                    "--out", str(fresh_out)]) == EXIT_OK
    doc = json.loads(fresh_cache.read_text())
    full = doc["khat_slopes"]
    doc["khat_slopes"] = full[:-1]
    short_cache.write_text(json.dumps(doc, sort_keys=True) + "\n")
    # a current-version table without a slope per knot is a miss as well
    assert run_cli(["kernel-build", "--kernel-cache", str(short_cache),
                    "--out", str(short_out)]) == EXIT_OK
    assert json.loads(short_cache.read_text())["khat_slopes"] == full
    assert short_out.read_bytes() == fresh_out.read_bytes()


@pytest.fixture(scope="module")
def fresh_kernel_build(tmp_path_factory):
    """The cache file and report of a d = 2 kernel-build into an empty cache."""
    tmp = tmp_path_factory.mktemp("fresh-kernel")
    assert run_cli(["kernel-build", "--kernel-cache", str(tmp / "kernel.json"),
                    "--out", str(tmp / "report.json")]) == EXIT_OK
    return (tmp / "kernel.json").read_bytes(), (tmp / "report.json").read_bytes()


@pytest.mark.parametrize("field, value", [("gamma", None), ("provenance", 5),
                                          ("dimension", None)])
def test_kernel_cache_with_a_mistyped_field_is_rebuilt(tmp_path, fresh_kernel_build,
                                                       field, value):
    fresh_cache, fresh_out = fresh_kernel_build
    cache, out = tmp_path / "kernel.json", tmp_path / "report.json"
    doc = json.loads(fresh_cache)
    doc[field] = value
    cache.write_text(json.dumps(doc, sort_keys=True) + "\n")
    assert run_cli(["kernel-build", "--kernel-cache", str(cache), "--out", str(out)]) == EXIT_OK
    assert cache.read_bytes() == fresh_cache
    assert out.read_bytes() == fresh_out


def test_kernel_cache_without_kvals_is_rebuilt(tmp_path):
    fresh_cache, fresh_out = tmp_path / "fresh.json", tmp_path / "fresh-report.json"
    cache, out = tmp_path / "kernel.json", tmp_path / "report.json"
    assert run_cli(["kernel-build", "--kernel-d", "1", "--kernel-cache", str(fresh_cache),
                    "--out", str(fresh_out)]) == EXIT_OK
    doc = json.loads(fresh_cache.read_text())
    doc["kvals"] = doc["kvals_grid"] = []
    cache.write_text(json.dumps(doc, sort_keys=True) + "\n")
    # an empty K table is a miss, not a failure of the positivity check on it
    assert run_cli(["kernel-build", "--kernel-d", "1", "--kernel-cache", str(cache),
                    "--out", str(out)]) == EXIT_OK
    assert cache.read_bytes() == fresh_cache.read_bytes()
    assert out.read_bytes() == fresh_out.read_bytes()


def test_kernel_cache_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the build's node sums run in fixed blocks, so the BLAS split never moves a byte
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    caches = []
    for threads in ("1", "2"):
        cache = tmp_path / f"kernel-{threads}.json"
        proc = subprocess.run([sys.executable, "-m", "discrepancy_forge.cli", "kernel-build",
                               "--kernel-d", "1", "--kernel-cache", str(cache),
                               "--out", str(tmp_path / f"report-{threads}.json")],
                              env=dict(env, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        caches.append(cache.read_bytes())
    assert caches[0] == caches[1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_kernel_cache_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    # a build pinned to one CPU runs its node sums on one worker
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    one_cpu = {min(os.sched_getaffinity(0))}
    caches = []
    for name, preexec in (("pinned", lambda: os.sched_setaffinity(0, one_cpu)),
                          ("unpinned", None)):
        cache = tmp_path / f"kernel-{name}.json"
        proc = subprocess.run([sys.executable, "-m", "discrepancy_forge.cli", "kernel-build",
                               "--kernel-d", "3", "--kernel-cache", str(cache),
                               "--out", str(tmp_path / f"report-{name}.json")],
                              env=env, preexec_fn=preexec,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        caches.append(cache.read_bytes())
    assert caches[0] == caches[1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_bound_bytes_do_not_depend_on_the_cpu_count(tmp_path, kernel2):
    # a bound pinned to one CPU evaluates its H-table strips on one worker
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    one_cpu = {min(os.sched_getaffinity(0))}
    korobov1009 = '{"kind":"korobov","g":[1,33],"m":1009}'
    cache = tmp_path / "kernel.json"
    save_kernel(kernel2, cache)
    outputs = []
    for name, preexec in (("pinned", lambda: os.sched_setaffinity(0, one_cpu)),
                          ("unpinned", None)):
        out, csv_out = tmp_path / f"report-{name}.json", tmp_path / f"terms-{name}.csv"
        proc = subprocess.run([sys.executable, "-m", "discrepancy_forge.cli", "bound",
                               "--set", _QUAD, "--points", korobov1009, "--R", "64",
                               "--kernel-cache", str(cache), "--out", str(out),
                               "--csv-out", str(csv_out)],
                              env=env, preexec_fn=preexec,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs.append((out.read_bytes(), csv_out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_csv_rows_equal_per_value_formatting(tmp_path, kernel2):
    # each experiment's CSV against its rows formatted one numpy scalar at a time
    cache = tmp_path / "kernel.json"
    save_kernel(kernel2, cache)
    paths = {name: (tmp_path / f"{name}.csv", tmp_path / f"{name}-per-value.csv")
             for name in ("bound", "family", "orbit")}
    korobov101 = '{"kind":"korobov","g":[1,33],"m":101}'
    assert run_cli(["bound", "--set", _QUAD, "--points", korobov101, "--R", "8",
                    "--kernel-cache", str(cache), "--out", str(tmp_path / "b.json"),
                    "--csv-out", str(paths["bound"][0])]) == EXIT_OK
    assert run_cli(["polytope-family", "--m", "101", "--g", "1,44", "--chain-sum-R", "16",
                    "--out", str(tmp_path / "f.json"),
                    "--csv-out", str(paths["family"][0])]) == EXIT_OK
    assert run_cli(["sphere-orbit", "--k", "3", "--base", "0.3,-0.4,0.5",
                    "--out", str(tmp_path / "o.json"),
                    "--csv-out", str(paths["orbit"][0])]) == EXIT_OK

    set_ = set_from_json(json.loads(_QUAD))
    spectrum = weyl_spectrum(pointset_from_descriptor(json.loads(korobov101)), 8.0)
    chi = set_.fourier_coefficients(spectrum.freqs)
    h_vals = np.abs(h_coefficient_table(set_, kernel2, 8.0, oversample=H_OVERSAMPLE)
                    .values(spectrum.freqs))
    csv_per_value(paths["bound"][1],
                  ["k1", "k2", "chi_re", "chi_im", "chi_abs", "h_abs", "weyl", "term"],
                  ([int(k[0]), int(k[1]), c.real, c.imag, abs(c), h, w, (abs(c) + h) * w]
                   for k, c, h, w in zip(spectrum.freqs, chi, h_vals, spectrum.values)))
    phi_ball = PhiBall.build(ChainSystem.coordinate(2), 101)
    spectrum = weyl_spectrum(korobov((1, 44), 101), 101.0)
    csv_per_value(paths["family"][1], ["k1", "k2", "phi", "weyl", "term"],
                  ([int(k[0]), int(k[1]), p, w, p * w]
                   for k, p, w in zip(phi_ball.freqs, phi_ball.values, spectrum.values)))
    base = np.array([0.3, -0.4, 0.5])
    csv_per_value(paths["orbit"][1], ["x", "y", "z"],
                  orbit(base / np.linalg.norm(base), enumerate_words(3)))
    for new, per_value in paths.values():
        assert new.read_bytes() == per_value.read_bytes()


def test_r_search_csv_reuses_the_winning_table(tmp_path, monkeypatch):
    tables = []

    def counting_table(*args, **kwargs):
        tables.append(args[2])
        return h_coefficient_table(*args, **kwargs)

    monkeypatch.setattr(erdos_turan, "h_coefficient_table", counting_table)
    out, csv_out = tmp_path / "search.json", tmp_path / "search.csv"
    assert run_cli(["bound", "--set", BALL, "--points", LATTICE256, "--R", "auto:search",
                    "--out", str(out), "--csv-out", str(csv_out)]) == EXIT_OK
    report = json.loads(out.read_text())["report"]
    # one H-table per candidate R; the CSV reuses the winner's
    assert tables == [r for r, _ in report["search_table"]]
    # and equals the CSV of a plain run at the winning R, byte for byte
    plain, plain_csv = tmp_path / "plain.json", tmp_path / "plain.csv"
    assert run_cli(["bound", "--set", BALL, "--points", LATTICE256, "--R", repr(report["R"]),
                    "--out", str(plain), "--csv-out", str(plain_csv)]) == EXIT_OK
    assert plain_csv.read_bytes() == csv_out.read_bytes()
    # both reports carry the exponents that set the formula candidate
    for doc in (report, json.loads(plain.read_text())["report"]):
        assert doc["exponents"] == {"alpha": 1.0, "beta": 1.0}


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


def test_lattice_scaling_row_is_the_bound_at_the_lattice_rule(tmp_path):
    # the row's table holds H_R-hat(0) alone, `bound`'s the whole block at the
    # same R = sqrt(m): the two bounds agree bitwise
    scaling, bound = tmp_path / "scaling.json", tmp_path / "bound.json"
    assert run_cli(["lattice-scaling", "--set", _QUAD, "--m", "1024,4096",
                    "--out", str(scaling)]) == EXIT_OK
    assert run_cli(["bound", "--set", _QUAD, "--points", '{"kind":"lattice","m":4096,"d":2}',
                    "--R", "64", "--out", str(bound)]) == EXIT_OK
    row = json.loads(scaling.read_text())["report"]["rows"][1]
    assert (row["m"], row["R"]) == (4096, 64.0)
    assert row["bound"] == json.loads(bound.read_text())["report"]["bound"]


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
    ["sandwich", "--set", BALL, "--R", "8", "--oversample", "0"],
    ["sandwich", "--set", BALL, "--R", "8,16,32", "--grid-n", "100"],
    ["sandwich", "--set", BALL, "--R", "2"],
    ["sandwich", "--set", BALL, "--R", "8", "--grid-n", "64", "--max-budget", "nan"],
    ["bound", "--set", BALL, "--points", LATTICE256, "--R", "inf"],
    ["bound", "--set", BALL, "--points", LATTICE256, "--R", "nan"],
    ["lattice-scaling", "--set", BALL, "--m", "256,1024", "--alpha", "nan"],
    ["kernel-build", "--kernel-x-max", "inf"],
    ["kernel-build", "--kernel-grid-step", "0.005"],
    ["kernel-build", "--kernel-x-max", "20"],
    ["kernel-build", "--kernel-t-max", "1e9"],
    ["kernel-build", "--kernel-x-max", "1e7", "--kernel-t-max", "1e7"],
    ["sphere-orbit", "--k", "1", "--delta=-inf"],
    ["sphere-orbit", "--k", "2", "--L", "5", "--delta", "2"],
    ["sphere-orbit", "--k", "2", "--delta", "2"],
    ["bound", "--set", BALL, "--points", LATTICE256, "--R", "2"],
    ["polytope-family", "--m", "100"],
    ["lattice-scaling", "--set", BALL, "--m", "256,1024", "--alpha", "2.999999"],
    ["lattice-scaling", "--set", BALL, "--m", "3,5"],
    pytest.param(["bound", "--set", BALL, "--points",
                  '{"kind":"kronecker","x":[0.41,0.73],"m":1}', "--R", "auto:kronecker"],
                 marks=pytest.mark.filterwarnings("error")),   # log 1 = 0 divides nothing
    ["sandwich", "--set", "[]", "--R", "8"],
    ["sandwich", "--set", BALL, "--R", "8", "--kernel-d", "1"],
    ["glp-search", "--m", "101", "--strategy", "random", "--seed=-1"],
    ["glp-search", "--m", "101", "--d", "5", "--strategy", "random"],
    ["glp-search", "--m", "101", "--d", "5", "--strategy", "korobov-rank1"],
    ["polytope-family", "--m", "101", "--d", "5", "--g", "1,2,3,4,5"],
    ["sandwich", "--set", BALL, "--R", "8", "--grid-n", "10000000"],
    ["bound", "--set", BALL, "--points", '{"kind":"lattice","m":1000000000000,"d":2}',
     "--R", "64"],
    ["bound", "--set", BALL, "--points",
     '{"kind":"kronecker","x":[0.41,0.73],"m":1000000000000}', "--R", "64"],
    ["polytope-family", "--m", "101", "--X", "[[1,0],[0,1],[NaN,1]]"],
    ["glp-search", "--m", "101", "--X", "[[1,0],[0,1],[1,-Infinity]]"],
    ["sphere-orbit", "--k", "20"],
    ["polytope-family", "--m", "11", "--d", "3", "--g", "1,2,3"],
    ["bound", "--set", '{"variant":"ball","center":[NaN,0.5],"radius":0.25}',
     "--points", '{"kind":"korobov","g":[1,76],"m":1009}', "--R", "64"],
    ["sandwich", "--set", '{"variant":"ball","center":[0.5,Infinity],"radius":0.25}',
     "--R", "8"],
    ["sandwich", "--set", '{"variant":"box","a":[NaN,0.2],"b":[0.6,0.55]}', "--R", "8"],
    ["bound", "--set", '{"variant":"polytope","epsilon":0.3,'
     '"vertices":[[0.3,0.25],[0.75,NaN],[0.7,0.7],[0.25,0.6]]}',
     "--points", LATTICE256, "--R", "8"],
    ["bound", "--set", BALL, "--points", '{"kind":"lattice","m":0,"d":2}', "--R", "8"],
    ["bound", "--set", BALL, "--points", '{"kind":"kronecker","x":[0.41,0.73],"m":0}',
     "--R", "8"],
    ["bound", "--set", BALL, "--points", '{"kind":"kronecker","x":[NaN,0.73],"m":16}',
     "--R", "8"],
    ["kronecker-scaling", "--set", BALL, "--m", "64,256", "--x", "0.5,0.25"],
    ["lattice-scaling", "--set", BALL, "--m", "1024,1024"],
    ["kronecker-scaling", "--set", BALL, "--m", "4096,4096"],
    ["bound", "--set", BALL, "--points", '{"kind":"lattice","m":1e400,"d":2}', "--R", "8"],
    ["bound", "--set", BALL, "--points", '{"kind":"lattice","m":256,"d":1e400}', "--R", "8"],
    ["bound", "--set", BALL, "--points", '{"kind":"korobov","g":[1,1e400],"m":1009}',
     "--R", "8"],
    ["bound", "--set", BALL, "--points", '{"kind":"kronecker","x":[0.41,0.73],"m":1e400}',
     "--R", "8"],
    ["bound", "--set", BALL, "--points", '{"kind":"lattice","m":256,"d":0}', "--R", "8"],
    ["bound", "--set", BALL, "--points", '{"kind":"lattice","m":256,"d":-2}', "--R", "8"],
], ids=["cap-3-values", "cap-5-values", "base-zero", "L-zero", "m-empty",
        "lattice-one-size", "kronecker-one-size", "R-empty", "x-empty", "glp-X-dimension",
        "family-X-dimension", "k-zero", "k-zero-with-L", "x-dimension", "g-length",
        "n-samples-zero", "chain-sum-R-zero", "L-above-cap", "oversample-zero",
        "grid-n-below-4R", "R-below-4", "max-budget-nan", "bound-R-inf", "bound-R-nan",
        "alpha-nan", "kernel-x-max-inf", "kernel-grid-step", "kernel-x-max-20",
        "kernel-t-max-1e9", "kernel-x-max-1e7", "delta-minus-inf", "delta-above-one-with-L",
        "delta-above-one", "bound-R-2", "family-m-not-prime", "lattice-R-overflow",
        "lattice-m-not-square", "kronecker-R-infinite", "set-not-object", "kernel-d-not-2",
        "seed-negative", "random-ball-beyond-memory", "korobov-ball-beyond-memory",
        "family-g-ball-beyond-memory", "sandwich-grid-beyond-memory",
        "lattice-beyond-memory", "kronecker-beyond-memory", "family-X-nan",
        "glp-X-minus-inf", "orbit-beyond-memory", "family-d3-chain-sum-beyond-work-cap",
        "ball-centre-nan", "ball-centre-inf", "box-corner-nan", "polygon-vertex-nan",
        "lattice-no-points", "kronecker-no-points", "kronecker-x-nan", "kronecker-x-resonant",
        "lattice-m-repeated", "kronecker-m-repeated", "lattice-m-overflow",
        "lattice-d-overflow", "korobov-g-overflow", "kronecker-m-overflow", "lattice-d-zero",
        "lattice-d-negative"])
def test_malformed_input_exits_3_before_any_work(argv, monkeypatch):
    for name in ("get_kernel", "enumerate_words", "search", "korobov", "chain_sum",
                 "ball_rho_hat"):
        monkeypatch.setattr(cli, name, _no_expensive_work)
    monkeypatch.setattr(cli.PhiBall, "build", staticmethod(_no_expensive_work))
    assert run_cli(argv) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["bound", "--set", BALL, "--points", LATTICE256, "--R", "1000000"],
    ["bound", "--set", BALL, "--points", '{"kind":"lattice","m":65536,"d":2}',
     "--R", "auto:lattice", "--alpha", "1.5", "--beta", "0.5"],
    ["bound", "--set", BALL, "--points", '{"kind":"lattice","m":65536,"d":2}',
     "--R", "auto:search", "--alpha", "1.5", "--beta", "0.5"],
    ["lattice-scaling", "--set", BALL, "--m", "1024,1000000000000"],
    ["lattice-scaling", "--set", BALL, "--m", "16,65536", "--alpha", "1.5", "--beta", "0.5"],
    ["kronecker-scaling", "--set", BALL, "--m", "64,100000000000"],
    ["kronecker-scaling", "--set", BALL, "--m", "64,256", "--eps", "-20"],
    ["sandwich", "--set", BALL, "--R", "8", "--oversample", "16777216"],
    ["glp-search", "--m", "101", "--strategy", "random", "--n-samples", "1000000000000"],
    ["kronecker-scaling", "--set", BALL, "--m", "64,256", "--schmidt-R", "64,1000000000"],
], ids=["bound-R", "bound-rule-R", "bound-search-R", "lattice-points", "lattice-table", "kronecker-points",
        "kronecker-table", "sandwich-table", "glp-random-candidates", "kronecker-schmidt-ball"])
def test_oversized_input_exits_3_before_the_kernel_is_built(argv, tmp_path, monkeypatch,
                                                            capsys):
    # on an empty cache: no kernel is built or written before the estimate refuses
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    assert run_cli(argv) == EXIT_CONFIG
    assert "GiB" in capsys.readouterr().err
    assert list(cache.iterdir()) == []


def test_polytope_family_report_does_not_depend_on_normal_scale(tmp_path):
    # a normal whose squared norm overflows names the same line as its unit normal
    reports = []
    for third in ("[1,1]", "[1e308,1e308]"):
        out = tmp_path / "r.json"
        assert run_cli(["polytope-family", "--m", "11", "--chain-sum-R", "16,64",
                        "--X", f"[[1,0],[0,1],{third}]", "--out", str(out)]) == EXIT_OK
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0] == reports[1]


def test_polytope_family_builds_one_phi_ball(tmp_path, monkeypatch):
    # the exhaustive search's ball also feeds the family bound and the CSV;
    # with --g given, the one ball feeds the bound and the CSV
    build = cli.PhiBall.build

    def counting_build(chains, m):
        builds.append(m)
        return build(chains, m)

    monkeypatch.setattr(cli.PhiBall, "build", staticmethod(counting_build))
    csv_out = tmp_path / "phi.csv"
    for g in ([], ["--g", "1,44"]):
        builds = []
        assert run_cli(["polytope-family", "--m", "101", "--chain-sum-R", "16,64", *g,
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


def test_cold_kernel_builds_import_scipy_only_for_bessel_functions(tmp_path):
    # the clamped spline's slopes come from numpy; only d = 2 needs j0 and j1
    script = textwrap.dedent("""
        import json, sys
        from discrepancy_forge.cli import main
        loaded = []
        for d in ("1", "3", "2"):
            assert main(["kernel-build", "--kernel-d", d, "--kernel-cache",
                         f"{sys.argv[1]}/k{d}.json", "--out", f"{sys.argv[1]}/r{d}.json"]) == 0
            loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        print(json.dumps(loaded))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    after_d1, after_d3, after_d2 = json.loads(proc.stdout.splitlines()[-1])
    assert after_d1 == [] and after_d3 == []
    assert "scipy.special" in after_d2
    assert not any(m.startswith("scipy.interpolate") for m in after_d2)


def test_warm_kernel_runs_never_import_scipy(tmp_path, kernel2):
    # loading a table evaluates it with numpy alone, and a ball's J1 is numpy's too
    cache = tmp_path / "kernel.json"
    save_kernel(kernel2, cache)
    script = textwrap.dedent("""
        import json, sys
        from discrepancy_forge.cli import main
        from discrepancy_forge.kernel import load_kernel
        cache, out, ball = sys.argv[1:]
        loaded = []
        def scipy_modules():
            loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        load_kernel(cache)
        scipy_modules()
        common = ["--set", ball, "--kernel-cache", cache, "--out", out]
        assert main(["lattice-scaling", "--m", "256,1024", *common]) == 0
        scipy_modules()
        assert main(["bound", "--points", '{"kind":"korobov","g":[1,33],"m":101}',
                     "--R", "8", *common]) == 0
        scipy_modules()
        assert main(["sandwich", "--R", "8", "--grid-n", "64", *common]) == 0
        scipy_modules()
        print(json.dumps(loaded))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script, str(cache), str(tmp_path / "r.json"),
                           BALL], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], [], [], []]


_SET_FLAGS = ["--set", BALL]
_ALL_COMMON = ["--seed", "7", "--kernel-d", "3", "--kernel-cache", "k.json",
               "--out", "r.json", "--csv-out", "c.csv"]
_DEFAULT_KERNEL = {"d": 2}
_ALL_KERNEL = {"d": 3}
_SQUARE_X = "[[1,0],[0,1],[1,1]]"

# (argv, params, config_hash) with no optional flag and with every optional flag;
# the params are those of the earlier per-subcommand translation of the flags, and
# the hashes those of kernel_params = {"d": d}
CONFIG_CONTRACT = [
    (["kernel-build"], {},
     "e5494a7e4f1eda46b4f604e3d393a46d0d454017af21ed78d5ca549cd0a49f8f"),
    (["kernel-build", *_ALL_COMMON], {},
     "86846a0278dd064378586e4b72271bec93262524ff93d49c5b029d69b4dde0da"),
    (["sandwich", *_SET_FLAGS, "--R", "8,16"],
     {"R": [8.0, 16.0], "grid_n": 512, "oversample": 8, "set": BALL},
     "dd29310b8a5cad91f1e5a3c316fbfc20880b44d3e3eb01160fd73df7aaa2b919"),
    (["sandwich", *_SET_FLAGS, "--R", "8,16", "--grid-n", "64", "--oversample", "4",
      "--max-budget", "0.01", *_ALL_COMMON],
     {"R": [8.0, 16.0], "grid_n": 64, "max_budget": 0.01, "oversample": 4, "set": BALL},
     "95009104afe472d91007ec0b1ee1e5eb3f79aee61c72d109df9a342f2c8a3710"),
    (["bound", *_SET_FLAGS, "--points", LATTICE256, "--R", "16"],
     {"R": 16.0, "alpha": 1.0, "beta": 1.0, "eps": 0.1, "points": LATTICE256, "set": BALL},
     "75e043a97d1088717babb73bbc58ff5518a7304399d5b9e3c61fa6d8e990047f"),
    (["bound", *_SET_FLAGS, "--points", LATTICE256, "--R", "auto:search", "--alpha", "0.5",
      "--beta", "1.5", "--eps", "0.2", *_ALL_COMMON],
     {"R": "auto:search", "alpha": 0.5, "beta": 1.5, "eps": 0.2, "points": LATTICE256,
      "set": BALL},
     "bfff60a4efeed8769664c75f3e479b8132b1288765536e90113352d4753f00af"),
    (["lattice-scaling", *_SET_FLAGS, "--m", "256,1024"],
     {"alpha": 1.0, "beta": 1.0, "m": [256, 1024], "set": BALL},
     "9bba241dff96b866a62a434981d6069d61ea104bb9ebd777cfceae7fede8d6cf"),
    (["lattice-scaling", *_SET_FLAGS, "--m", "256,1024", "--alpha", "0.5", "--beta", "1.5",
      *_ALL_COMMON],
     {"alpha": 0.5, "beta": 1.5, "m": [256, 1024], "set": BALL},
     "d2d43a42787721b221e9d90ace5708a6b02469e6ee919812f56e7f23eabb1d7e"),
    (["kronecker-scaling", *_SET_FLAGS, "--m", "65536,262144"],
     {"eps": 0.1, "m": [65536, 262144], "schmidt_R": [64, 128, 256, 512], "set": BALL},
     "201a027d2d31d76d3cc5b5d72c0f8016206b29f0aae3e1e726b7ce2ba75c7c25"),
    (["kronecker-scaling", *_SET_FLAGS, "--m", "65536,262144", "--x", "0.25,0.5",
      "--eps", "0.2", "--schmidt-R", "32,64", *_ALL_COMMON],
     {"eps": 0.2, "m": [65536, 262144], "schmidt_R": [32, 64], "set": BALL,
      "x": [0.25, 0.5]},
     "980ae58d9273bf01080c72c2e604f87c2d2b9454d8822cefc7fb4deeba3ffc87"),
    (["glp-search", "--m", "101"],
     {"X": "coordinate", "d": 2, "m": 101, "n_samples": 128, "strategy": "exhaustive"},
     "60dfecb1e49243da1bf9c918874da57af6d7775665adf6a0ed416cec740cad7a"),
    (["glp-search", "--m", "101", "--d", "2", "--X", _SQUARE_X, "--strategy", "random",
      "--n-samples", "16", *_ALL_COMMON],
     {"X": _SQUARE_X, "d": 2, "m": 101, "n_samples": 16, "strategy": "random"},
     "e8f58dd28f90b71d49c9edae4a7f423090fcc3db55913fac9a895bbce848374f"),
    (["polytope-family", "--m", "101"],
     {"X": "coordinate", "chain_sum_R": [16, 64, 256, 1024, 4096], "d": 2, "m": 101},
     "c713d3eda3e8431f1d569031e24803a68d230a87d8647f9f660224e2c462114d"),
    (["polytope-family", "--m", "101", "--d", "2", "--X", _SQUARE_X, "--g", "1,44",
      "--chain-sum-R", "16,64", *_ALL_COMMON],
     {"X": _SQUARE_X, "chain_sum_R": [16, 64], "d": 2, "g": [1, 44], "m": 101},
     "77d5376ca9db4ef3bde8cb17f8b15228c4a5c9b30a84da8ca0701fe6b3423cfe"),
    (["sphere-orbit", "--k", "1"],
     {"base": [0.0, 0.0, 1.0], "delta": 1.0, "k": 1},
     "a260ee36c2d3502af02cb27d56f8da5124f7660350cabf4c4fee800ba374ae48"),
    (["sphere-orbit", "--k", "1", "--base", "0,1,1", "--cap", "0,0,1,0.5",
      "--cap", "1,0,0,1.0", "--L", "3", "--delta", "0.5", *_ALL_COMMON],
     {"L": 3, "base": [0.0, 1.0, 1.0], "caps": ["0,0,1,0.5", "1,0,0,1.0"], "delta": 0.5,
      "k": 1},
     "d388bcf794a1737c6d3f1ed962581a705c874f6dd8441e9ef9eada01e041b325"),
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


class _Reached(Exception):
    """A drawn argv got past validation into an experiment's work."""


# the calls each experiment's work starts with (PhiBall.build besides)
_SENTINELS = ("get_kernel", "enumerate_words", "search", "korobov", "chain_sum",
              "ball_rho_hat")

_BOX = '{"variant":"box","a":[0.2,0.3],"b":[0.6,0.7]}'
_BALL3 = '{"variant":"ball","center":[0.5,0.5,0.5],"radius":0.25}'

# per flag: (values valid in some subcommand, edge values: 0, 1, empty, NaN,
# inf, wrong lengths, wrong dimension, and junk); the output paths are not drawn
_FLAG_VALUES = {
    "--seed": (["0", "7"], ["-1", "x"]),
    "--kernel-d": (["2"], ["1", "3", "0", "4"]),
    "--set": ([BALL, _QUAD, _BOX], [_BALL3, '{"variant":"ball"}', "[]", "{", "no/such/file",
                                    '{"variant":"ball","center":[0.5,0.5],"radius":null}']),
    "--points": ([LATTICE256, '{"kind":"korobov","g":[1,33],"m":101}',
                  '{"kind":"kronecker","x":[0.41,0.73],"m":64}'],
                 ['{"kind":"kronecker","x":[0.41,0.73],"m":1}', '{"kind":"lattice","m":27,"d":3}',
                  '{"kind":"lattice","m":10,"d":2}', '{"kind":"lattice","m":null,"d":2}', "{}",
                  "3"]),
    "--R": (["8", "16"], ["4", "2", "0", "-8", "nan", "inf", "", "auto:x", "auto:lattice"]),
    "--grid-n": (["64", "512"], ["0", "31", "x"]),
    "--oversample": (["1", "4"], ["0", "-2"]),
    "--max-budget": (["0.01"], ["0", "-1", "nan", "inf"]),
    "--alpha": (["1", "0.5"], ["0", "3", "-1", "nan"]),
    "--beta": (["1", "1.5"], ["0", "-1", "inf"]),
    "--eps": (["0.1", "0.2"], ["0", "-1", "1000", "nan"]),
    "--m": (["101", "31"], ["2", "100", "1", "0", "-7", "4001", "1024", "3,5", "0,256", "1,4",
                           "2,3", "", "256,1024", "1024,1024"]),
    "--x": (["0.41,0.73"], ["0.4142135623730951", "0.25,0.5,0.75", "nan,0.5", ""]),
    "--schmidt-R": (["64,128", "32,64"], ["1,2", "0", "-4", ""]),
    "--d": (["2"], ["1", "3", "0", "-1"]),
    "--X": (["coordinate", "[[1,0],[0,1],[1,1]]"],
            ["[[1,0],[0,1]]", "[[0,0]]", "[[1,0,0]]", "{", "[]", "3"]),
    "--strategy": (["exhaustive", "random", "korobov-rank1"], ["best"]),
    "--n-samples": (["16", "1"], ["0", "-3"]),
    "--g": (["1,44", "1,3"], ["1", "0,5", "1,101", "1,1,1", ""]),
    "--chain-sum-R": (["16,64", "1"], ["0,16", "-1", ""]),
    "--k": (["1", "2", "8", "9"], ["0", "-1"]),
    "--base": (["0,0,1", "0,1,1"], ["0,0,0", "1,2", "nan,0,1", ""]),
    "--cap": (["0,0,1,0.5", "1,0,0,3.2"],
              ["0,0,1", "0,0,0,0.5", "0,0,1,0", "nan,0,1,0.5", "0,0,1,inf", "a,b,c,d"]),
    "--L": (["1", "3", "50"], ["0", "51"]),
    "--delta": (["1", "0.5"], ["0", "2", "-0.5", "nan"]),
}
# valid values that differ between subcommands
_VALID_IN = {
    ("kernel-build", "--kernel-d"): ["1", "2", "3"],
    ("sandwich", "--R"): ["8", "8,16"],
    ("bound", "--R"): ["8", "16", "auto:lattice", "auto:kronecker", "auto:search"],
    ("lattice-scaling", "--m"): ["256,1024", "16,64,256"],
    ("kronecker-scaling", "--m"): ["65536,262144", "64,256"],
    ("glp-search", "--m"): ["101", "31", "4001"],
}

_SUBPARSERS = next(action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))


@st.composite
def _drawn_argv(draw):
    command = draw(st.sampled_from(sorted(_SUBPARSERS)))
    argv = [command]
    for action in _SUBPARSERS[command]._actions:
        flag = action.option_strings[-1] if action.option_strings else None
        if flag in _FLAG_VALUES and (action.required or draw(st.booleans())):
            for _ in range(draw(st.integers(1, 2)) if flag == "--cap" else 1):
                valid, edge = _FLAG_VALUES[flag]
                valid = _VALID_IN.get((command, flag), valid)
                values = valid if draw(st.integers(0, 7)) else edge  # mostly valid
                argv.append(f"{flag}={draw(st.sampled_from(values))}")
    return argv


def _finite_R(rule: str, m: int, alpha: float, beta: float, eps: float) -> bool:
    return bool(np.isfinite(optimal_R(rule, m, 2, alpha, beta, eps=eps)))


def _in_domain(config) -> bool:
    """Whether an experiment's work may start on this config: its parameters
    lie in the domain that every computation of the experiment accepts."""
    p, kp, kind = config.params, config.kernel_params, config.kind
    try:
        assert config.seed >= 0
        if kind in ("kernel-build", "sandwich", "bound", "lattice-scaling", "kronecker-scaling"):
            assert kp["d"] in (1, 2, 3)
            if kind != "kernel-build":
                assert kp["d"] == 2 and set_from_json(json.loads(p["set"])).dimension == 2
        if kind == "sandwich":
            return min(p["R"]) >= 4 and p["grid_n"] >= 4 * max(p["R"]) and p["oversample"] >= 1
        if kind == "bound":
            points = pointset_from_descriptor(json.loads(p["points"]))
            assert points.dimension == 2
            if isinstance(p["R"], str):  # auto:search starts from the lattice rule
                rule = "lattice" if p["R"] == "auto:search" else p["R"][5:]
                return _finite_R(rule, points.size, p["alpha"], p["beta"], p["eps"])
            return p["R"] >= 4
        if kind in ("lattice-scaling", "kronecker-scaling"):
            assert len(set(p["m"])) >= 2   # one distinct size has no slope
        if kind == "lattice-scaling":
            for m in p["m"]:
                assert m >= 1 and math.isqrt(m) ** 2 == m
                assert _finite_R("lattice", m, p["alpha"], p["beta"], 0.1)
        if kind == "kronecker-scaling":
            assert len(p.get("x", (0, 0))) == 2 and min(p["schmidt_R"]) >= 2
            for m in p["m"]:
                assert m >= 2 and _finite_R("kronecker", m, 1.0, 1.0, p["eps"])
        if kind in ("glp-search", "polytope-family"):
            assert cli._chain_system(p).dimension == p["d"]
        if kind == "glp-search":
            check_search(p["m"], p["d"], p["strategy"], p["n_samples"])
        if kind == "polytope-family":
            assert min(p["chain_sum_R"]) >= 1
            if "g" in p:
                g, m = p["g"], p["m"]
                assert len(g) == p["d"] and is_prime(m) and all(1 <= v < m for v in g)
            else:
                check_search(p["m"], p["d"], "exhaustive")
            check_chain_sum(cli._chain_system(p), max(p["chain_sum_R"]))
        if kind == "sphere-orbit":
            assert p["k"] >= 1 and 1 <= p.get("L", 1) <= 50 and 0 < p["delta"] <= 1
            require_memory(orbit_bytes(p["k"]), "orbit")
            base = np.asarray(p["base"])
            assert base.shape == (3,) and np.all(np.isfinite(base)) and np.any(base != 0)
            for spec in p.get("caps", []):
                cap = np.array([float(v) for v in spec.split(",")])
                assert len(cap) == 4 and np.all(np.isfinite(cap)) and np.any(cap[:3] != 0)
                assert 0 < cap[3] <= np.pi
        return True
    except Exception:
        return False


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=_drawn_argv())
def test_every_drawn_argv_exits_3_or_starts_work_inside_its_domain(argv):
    def reached(*args, **kwargs):
        raise _Reached

    with pytest.MonkeyPatch.context() as patch:
        for name in _SENTINELS:
            patch.setattr(cli, name, reached)
        patch.setattr(cli.PhiBall, "build", staticmethod(reached))
        try:
            code = main(argv)
        except _Reached:
            config = _namespace_to_config(build_parser().parse_args(argv))
            assert _in_domain(config), f"{argv} started work outside its domain"
            return
    assert code == EXIT_CONFIG, f"{argv} exited {code} before any work"
