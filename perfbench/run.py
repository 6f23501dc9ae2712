"""Benchmark of the discrepancy-forge CLI, one fresh process per experiment.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Runs are strictly sequential: one parent process, one child at a time (a closed loop
with one client). `--trace 0` prints the end-to-end metrics; `--trace 1`
alternates untraced passes with passes through `launch.py` and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; a fuller record of
the run, with the machine it ran on, goes to `.perfbench/results/`.
`--record-reference` rewrites `reference.json` from one untraced pass of every
workload at the default seed. README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"          # kernel cache, scratch files, result files
REFERENCE = HERE / "reference.json"

WORKLOADS = ("kernel-cold", "torus-bound", "lattice-sphere")
KINDS = ("kernel-build", "lattice-scaling", "bound", "sandwich", "glp-search",
         "polytope-family", "sphere-orbit")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 150

# Shapes are fixed; the seed only moves them (see README.md, "Seeded inputs").
BALL_RADIUS = 0.25
QUAD = ((0.3, 0.25), (0.75, 0.35), (0.7, 0.7), (0.25, 0.6))
QUAD_EPSILON = 0.3
KOROBOV_M = 1009
CAP_THETA = math.pi / 6


@dataclass(frozen=True)
class Run:
    """One CLI invocation of a workload."""

    label: str
    args: tuple          # generated CLI arguments, without output or cache paths
    kernel: str | None = None  # "cold": an empty cache; "warm": the prebuilt d = 2 table
    csv: bool = False

    @property
    def kind(self) -> str:
        return self.args[0]


def _unit(rng: random.Random) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def workload_runs(workload: str, seed: int) -> list[Run]:
    """The fixed list of CLI runs of a workload; the seed picks only where the
    sets and the sphere points sit, and the Korobov generator."""
    rng = random.Random(seed)
    # torus translations are multiples of 1/256: every H-table and sandwich grid
    # (n >= 256, a power of two) then sees an exact cyclic shift of the set
    shift = (rng.randrange(256) / 256, rng.randrange(256) / 256)
    g2 = rng.randrange(2, KOROBOV_M - 1)
    base, pole = _unit(rng), _unit(rng)

    ball = json.dumps({"variant": "ball", "radius": BALL_RADIUS,
                       "center": [(0.5 + s) % 1.0 for s in shift]})
    verts = [[x + shift[0], y + shift[1]] for x, y in QUAD]
    wrap = [math.floor(sum(v[i] for v in verts) / len(verts)) for i in (0, 1)]
    quad = json.dumps({"variant": "polytope", "epsilon": QUAD_EPSILON,
                       "vertices": [[x - wrap[0], y - wrap[1]] for x, y in verts]})
    korobov = json.dumps({"kind": "korobov", "g": [1, g2], "m": KOROBOV_M})

    if workload == "kernel-cold":
        return [Run(f"kernel-build-d{d}", ("kernel-build", "--kernel-d", str(d)), "cold")
                for d in (2, 1, 3)]
    if workload == "torus-bound":
        return [
            Run("lattice-scaling", ("lattice-scaling", "--set", ball,
                                    "--m", "1024,4096,16384,65536"), "warm"),
            Run("bound", ("bound", "--set", quad, "--points", korobov, "--R", "64"),
                "warm", csv=True),
            Run("sandwich", ("sandwich", "--set", ball, "--R", "8,16,32"), "warm"),
        ]
    if workload == "lattice-sphere":
        return [
            Run("glp-search", ("glp-search", "--m", "401", "--strategy", "korobov-rank1")),
            Run("polytope-family", ("polytope-family", "--m", "101")),
            Run("sphere-orbit", ("sphere-orbit", "--k", "5", "--L", "20",
                                 f"--base={_csv(base)}",
                                 f"--cap={_csv(pole + [CAP_THETA])}")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# correctness: headline values against the reference recorded at DEFAULT_SEED
# ---------------------------------------------------------------------------

def headline(kind: str, rep: dict) -> dict:
    """name -> (value, tolerance, same for every seed) for one report body.

    Tolerances are the ones the report or the acceptance suite states; where
    neither states one, a relative 1e-6 (1e-9 for pure arithmetic) is used.
    """
    h = {}

    def rel(name, value, r):
        h[name] = (value, r * abs(value), True)

    if kind == "kernel-build":
        for key in ("gamma", "ball_mass", "psi_at_zero"):
            rel(key, rep[key], 1e-5)  # criterion 1: |int K - 1| <= 1e-5
    elif kind == "lattice-scaling":
        for i, row in enumerate(rep["rows"]):
            h[f"rows[{i}].R"] = (row["R"], 0.0, True)
            rel(f"rows[{i}].bound", row["bound"], 1e-6)
            h[f"rows[{i}].true_discrepancy"] = (row["true_discrepancy"], 0.0, False)
        h["slope"] = (rep["slope"], 1e-6, True)
    elif kind == "bound":
        h["R"] = (rep["R"], 0.0, True)
        h["bound"] = (rep["bound"], rep["uncertainty"], False)
        h["true_discrepancy"] = (rep["true_discrepancy"], 0.0, False)
    elif kind == "sandwich":
        for i, row in enumerate(rep["results"]):
            rel(f"results[{i}].budget", row["budget"], 1e-6)
            rel(f"results[{i}].max_width", row["max_width"], 1e-6)
    elif kind == "glp-search":
        for i, v in enumerate(rep["g"]):
            h[f"g[{i}]"] = (v, 0, True)
        h["value"] = (rep["value"], 0.0, True)
    elif kind == "polytope-family":
        for i, v in enumerate(rep["g"]):
            h[f"g[{i}]"] = (v, 0, True)
        rel("bound", rep["bound"], 1e-9)
        for i, row in enumerate(rep["chain_sums"]):
            rel(f"chain_sums[{i}].sum", row["sum"], 1e-9)
    elif kind == "sphere-orbit":
        h["m"] = (rep["m"], 0, True)
        h["rho_hat"] = (rep["rho_hat"]["value"], 1e-12, True)
        for i, cap in enumerate(rep["caps"]):
            h[f"caps[{i}].discrepancy"] = (cap["discrepancy"], 1e-12, False)
            rel(f"caps[{i}].bound.grid_min", cap["bound"]["grid_min"], 1e-9)
    return h


def check(workload: str, run: Run, row: dict, reference: dict) -> None:
    """Fill row["problems"] and row["byte_identical"] for one finished run."""
    problems = []
    row["byte_identical"] = False
    if row["exit"] != 0:
        problems.append(f"exit code {row['exit']}")
    elif row["report"] is None or row["report"].get("status") != "ok":
        problems.append("no report with status ok")
    ref = reference.get(f"{workload}/{run.label}")
    if not problems and ref is not None:
        same_args = ref["args"] == list(run.args)
        row["byte_identical"] = same_args and row["digest"] == ref["digest"]
        values = headline(run.kind, row["report"]["report"])
        for name, (ref_value, tol, invariant) in ref["headline"].items():
            if not (same_args or invariant):
                continue
            if name not in values:
                problems.append(f"{name} missing from the report")
            elif abs(values[name][0] - ref_value) > tol:
                problems.append(f"{name} = {values[name][0]!r}, reference "
                                f"{ref_value!r} +- {tol!r}")
    row["problems"] = problems


# ---------------------------------------------------------------------------
# running child processes
# ---------------------------------------------------------------------------

def spawn(cmd: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one child process."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Bench:
    """Executes runs of one workload and keeps what a result needs."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.runs = workload_runs(workload, seed)
        self.work = work
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("DISCREPANCY_FORGE_CACHE", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.warm = STATE / f"kernel-cache-{source_digest()[:16]}" / "kernel-d2.json"
        self.reference = (json.loads(REFERENCE.read_text())["runs"]
                          if REFERENCE.exists() else {})

    def prepare(self) -> None:
        """Build the warm d = 2 kernel table once per source tree, before timing."""
        if any(r.kernel == "warm" for r in self.runs) and not self.warm.exists():
            self.warm.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.warm.with_suffix(".tmp")
            _, _, code = spawn([sys.executable, "-m", "discrepancy_forge.cli",
                                "kernel-build", "--kernel-cache", str(tmp),
                                "--out", str(self.work / "warm.json")],
                               self.env, self.work / "warm.log")
            if code != 0:
                raise RuntimeError(f"warm kernel build exited with {code}")
            tmp.replace(self.warm)

    def setup_once(self) -> float:
        """A fresh interpreter imports the CLI and loads every cached table the workload reads."""
        tables = [str(self.warm)] if any(r.kernel == "warm" for r in self.runs) else []
        code = ("import sys; from discrepancy_forge import cli; "
                "[cli.load_kernel(p) for p in sys.argv[1:]]")
        wall, _, status = spawn([sys.executable, "-c", code, *tables], self.env,
                                self.work / "setup.log")
        if status != 0:
            raise RuntimeError(f"set-up probe exited with {status}")
        return wall

    def execute(self, run: Run, traced: bool, tag: str) -> dict:
        out = self.work / f"{run.label}.json"
        csv = self.work / f"{run.label}.csv"
        cold = self.work / f"cold-{run.label}"
        spans = self.work / f"{tag}-{run.label}.spans"
        args = [*run.args, "--out", str(out)]
        if run.csv:
            args += ["--csv-out", str(csv)]
        if run.kernel == "cold":
            args += ["--kernel-cache", str(cold / "kernel.json")]
        elif run.kernel == "warm":
            args += ["--kernel-cache", str(self.warm)]
        if traced:
            cmd = [sys.executable, str(HERE / "launch.py"), "--spans", str(spans),
                   "--run-id", f"{self.workload}/{tag}/{run.label}", "--", *args]
        else:
            cmd = [sys.executable, "-m", "discrepancy_forge.cli", *args]
        log = self.work / f"{run.label}.log"
        wall, rss, code = spawn(cmd, self.env, log)

        digest = hashlib.sha256()
        report = None
        for path in (out, csv):
            if path.exists():
                digest.update(path.read_bytes())
        if out.exists():
            try:
                report = json.loads(out.read_text())
            except json.JSONDecodeError:
                pass  # check() records the run as failed
        row = {"label": run.label, "kind": run.kind, "traced": traced,
               "wall_s": wall, "rss_mb": rss, "exit": code,
               "digest": digest.hexdigest(), "report": report,
               "spans": str(spans) if traced else None}
        check(self.workload, run, row, self.reference)
        if row["problems"]:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"perfbench: {self.workload}/{run.label}: {'; '.join(row['problems'])}"
                  + (f" | {' | '.join(tail)}" if tail else ""), file=sys.stderr)
        for path in (out, csv, log):
            path.unlink(missing_ok=True)
        shutil.rmtree(cold, ignore_errors=True)
        return row

    def one_pass(self, traced: bool, tag: str) -> dict:
        rows = [self.execute(run, traced, tag) for run in self.runs]
        return {"batch_s": sum(r["wall_s"] for r in rows), "rows": rows}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

_PROBE = r"""
import ctypes, glob, json, os, numpy, scipy
threads = None
for lib in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = fn()
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas_threads": threads}))
"""


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(env: dict) -> dict:
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    libs = json.loads(probe.stdout) if probe.returncode == 0 else {}
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "ram_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20,
        "blas_threads": libs.get("blas_threads"),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": libs.get("numpy"),
        "scipy": libs.get("scipy"),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values))


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, result file) for one run of the benchmark."""
    bench.prepare()
    setup = [] if trace else [bench.setup_once() for _ in range(SETUP_REPEATS)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(bench.one_pass(False, f"p{len(plain)}"))
        if trace:
            traced.append(bench.one_pass(True, f"t{len(traced)}"))
            for a, b in zip(plain[-1]["rows"], traced[-1]["rows"]):
                if a["digest"] != b["digest"] and not b["problems"]:
                    b["problems"].append("traced report bytes differ from untraced")
                    print(f"perfbench: {b['label']}: traced report bytes differ",
                          file=sys.stderr)
        if time.perf_counter() - start >= seconds:
            break

    rows = [r for p in plain + traced for r in p["rows"]]
    failed = sum(bool(r["problems"]) for r in rows)
    kinds = {f"{k.replace('-', '_')}_s": _median(
        [sum(r["wall_s"] for r in p["rows"] if r["kind"] == k) for p in plain])
        for k in KINDS}

    if trace:
        per_pass, coverage, missing = [], [], []
        for p in traced:
            spans, missing = layers.read_spans(r["spans"] for r in p["rows"])
            per_pass.append(layers.layer_metrics(spans))
            coverage.append(layers.span_coverage(spans))
        values = {m: _median([pp[m] for pp in per_pass]) for m in per_pass[0]}
        values.update(kinds)
        values["cli.reports_byte_identical"] = _median(
            [sum(r["byte_identical"] for r in p["rows"]) for p in plain])
        values["trace.overhead_ratio"] = (_median([p["batch_s"] for p in traced])
                                          / _median([p["batch_s"] for p in plain]))
        values["trace.span_coverage"] = _median(coverage)
        units = {m: layer_unit(m) for m in values}
    else:
        missing = []
        values = {
            "batch_s": _median([p["batch_s"] for p in plain]),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([max(r["rss_mb"] for r in p["rows"]) for p in plain]),
        }
        units = {"batch_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    line = {"correct": failed == 0, "attempted": len(rows), "failed": failed,
            "metrics": metrics}
    for p in plain + traced:
        for r in p["rows"]:
            del r["report"], r["spans"]
    record = {
        "workload": bench.workload, "runs": [r.label for r in bench.runs],
        "metrics": metrics, "kinds": kinds,
        "fail_rate": failed / len(rows), "missing_callables": missing,
        "setup_s_samples": setup, "passes": plain, "traced_passes": traced,
    }
    return line, record


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.startswith("trace."):
        return "ratio"
    return "count"


def record_reference(work: Path) -> int:
    """Rewrite reference.json from one untraced pass per workload at DEFAULT_SEED."""
    runs = {}
    for workload in WORKLOADS:
        bench = Bench(workload, DEFAULT_SEED, work)
        bench.reference = {}
        bench.prepare()
        for run, row in zip(bench.runs, bench.one_pass(False, "ref")["rows"]):
            if row["problems"]:
                print(f"perfbench: {workload}/{run.label} failed; reference not written",
                      file=sys.stderr)
                return 1
            runs[f"{workload}/{run.label}"] = {
                "args": list(run.args), "digest": row["digest"],
                "headline": headline(run.kind, row["report"]["report"])}
    doc = {"seed": DEFAULT_SEED, "source_sha256": source_digest(), "runs": runs}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "discrepancy_forge" / "cli.py").is_file():
        print(f"perfbench: no discrepancy_forge sources under {SRC}", file=sys.stderr)
        return 2
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")

    STATE.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    try:
        if args.record_reference:
            return record_reference(work)
        bench = Bench(args.workload, args.seed, work)
        line, record = measure(bench, args.seconds, bool(args.trace))
        record.update(seed=args.seed, trace=args.trace, seconds=args.seconds,
                      environment=environment(bench.env))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
