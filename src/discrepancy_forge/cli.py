"""Batch experiment front-end.

Subcommands: kernel-build, sandwich, bound, lattice-scaling,
kronecker-scaling, glp-search, polytope-family, sphere-orbit.

Contracts: reports are JSON with sorted keys and no timestamps or host
information, so re-running a config reproduces outputs byte-identically
(summation orders are fixed throughout the library, seeds are explicit
inputs). Every report embeds the resolved config and its SHA-256 hash, plus
the kernel-table provenance when a kernel participates. Exit codes: 0 on
success, 2 when a named invariant check fails beyond its budget, 3 on
configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chains import ChainSystem, chain_sum
from .errors import ConfigError, InvariantViolation
from .erdos_turan import et_bound, et_bound_r_search, optimal_R
from .geometry import TorusSet, set_from_json
from .glp import PhiBall, search
from .hfourier import h_coefficient_table
from .kernel import (
    DecayProfile,
    KernelTable,
    build_bump,
    build_kernel_table,
    load_kernel,
    psi,
    save_kernel,
)
from .majorant import majorant_pair, sandwich_csv, sandwich_report
from .pointsets import (
    PointSet,
    kronecker,
    pointset_from_descriptor,
    schmidt_sum,
    weyl_spectrum,
)
from .sphere import Cap, enumerate_words, orbit, rho_hat, set_discrepancy, sphere_bound

CACHE_ENV = "DISCREPANCY_FORGE_CACHE"

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CONFIG = 3


@dataclass
class ExperimentConfig:
    """Fully serializable description of one experiment run."""

    kind: str
    params: dict
    seed: int = 0
    out: str | None = None
    csv_out: str | None = None
    kernel_cache: str | None = None
    kernel_params: dict = field(default_factory=lambda: {
        "d": 2, "grid_step": 1.0 / 256, "x_max": 25.0, "t_max": 30.0})

    def canonical(self) -> dict:
        """Scientific inputs only: output locations do not change results."""
        doc = {"kind": self.kind, "params": self.params, "seed": self.seed,
               "kernel_params": self.kernel_params}
        return json.loads(json.dumps(doc, sort_keys=True))

    def digest(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _kernel_cache_path(config: ExperimentConfig) -> Path | None:
    if config.kernel_cache:
        return Path(config.kernel_cache)
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return None
    kp = config.kernel_params
    tag = hashlib.sha256(json.dumps(kp, sort_keys=True).encode()).hexdigest()[:16]
    return Path(cache_dir) / f"kernel-d{kp['d']}-{tag}.json"


def _kernel_matches(table: KernelTable, kp: dict) -> bool:
    prov = table.provenance
    return (table.dimension == kp["d"]
            and prov.get("x_max") == kp["x_max"]
            and prov.get("t_max") == kp["t_max"]
            and prov.get("bump", {}).get("grid_step") == kp["grid_step"])


def get_kernel(config: ExperimentConfig) -> KernelTable:
    """Load the kernel table from cache or build (and cache) it."""
    kp = config.kernel_params
    path = _kernel_cache_path(config)
    if path is not None and path.exists():
        try:
            table = load_kernel(path)
        except (ValueError, KeyError):
            table = None  # torn or corrupt: a miss, rebuilt and overwritten below
        if table is not None and _kernel_matches(table, kp):
            return table
    bump = build_bump(kp["d"], kp["grid_step"])
    table = build_kernel_table(kp["d"], bump, x_max=kp["x_max"], t_max=kp["t_max"])
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_kernel(table, path)
    return table


def _require(condition: bool, check: str, observed: float, allowed: float) -> None:
    if not condition:
        raise InvariantViolation(check, observed, allowed)


def _json_or_file(spec, what: str) -> dict:
    """Accept an inline JSON object/string or a path to a JSON file."""
    if isinstance(spec, dict):
        return spec
    if isinstance(spec, str):
        text = spec.lstrip("@")
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            path = Path(text)
            if path.exists():
                return json.loads(path.read_text())
    raise ConfigError(f"{what} is neither inline JSON nor an existing file: {spec!r}")


def _load_set(params: dict) -> TorusSet:
    try:
        return set_from_json(_json_or_file(params["set"], "set spec"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_points(params: dict) -> PointSet:
    try:
        return pointset_from_descriptor(_json_or_file(params["points"], "point descriptor"))
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_kernel_build(config: ExperimentConfig) -> dict:
    table = get_kernel(config)
    profile = DecayProfile.from_kernel(table)
    step = table.tail_grid[1] - table.tail_grid[0]
    shift = int(round(1.0 / step))
    ratio_margin = float(np.min(table.tail[shift:] - np.exp(-2 * np.pi) * table.tail[:-shift]))
    report = {
        "dimension": table.dimension,
        "gamma": table.gamma,
        "ball_mass": table.ball_mass,
        "psi_at_zero": psi(table, 0.0),
        "fitted_decay_constants": {str(a): profile.fitted_c(a) for a in (2, 4, 8)},
        "checks": {
            "min_kernel_value": float(table.kvals.min()),
            "tail_at_zero_deviation": abs(table.tail_integral(0.0) - 1.0),
            "tail_ratio_margin": ratio_margin,
        },
        "provenance": table.provenance,
    }
    _require(report["checks"]["min_kernel_value"] >= -table.quadrature_tolerance,
             "kernel positivity", report["checks"]["min_kernel_value"],
             -table.quadrature_tolerance)
    _require(report["checks"]["tail_at_zero_deviation"] <= 1e-6,
             "tail normalization", report["checks"]["tail_at_zero_deviation"], 1e-6)
    _require(ratio_margin >= -1e-9, "tail ratio", ratio_margin, -1e-9)
    return report


def run_sandwich(config: ExperimentConfig) -> dict:
    params = config.params
    set_ = _load_set(params)
    kernel = get_kernel(config)
    grid_n = int(params.get("grid_n", 512))
    oversample = int(params.get("oversample", 8))
    max_budget = params.get("max_budget")
    per_r = []
    for R in params["R"]:
        pair = majorant_pair(set_, kernel, float(R), oversample=oversample)
        rep = sandwich_report(pair, set_, kernel, float(R), grid_n)
        per_r.append({
            "R": rep.R, "budget": rep.budget,
            "lower_violation": rep.lower_violation,
            "lower_violation_fraction": rep.lower_violation_fraction,
            "upper_violation": rep.upper_violation,
            "upper_violation_fraction": rep.upper_violation_fraction,
            "width_violation": rep.width_violation,
            "width_violation_fraction": rep.width_violation_fraction,
            "max_width": rep.max_width,
            "observed_width_ratio": rep.observed_width_ratio,
        })
        worst = max(rep.lower_violation, rep.upper_violation, rep.width_violation)
        _require(worst <= rep.budget, f"sandwich violation at R={R}", worst, rep.budget)
        if max_budget is not None:
            _require(rep.budget <= float(max_budget), f"sandwich budget at R={R}",
                     rep.budget, float(max_budget))
        if config.csv_out:
            stem = Path(config.csv_out)
            path = stem.with_name(f"{stem.stem}_R{int(R)}{stem.suffix or '.csv'}")
            sandwich_csv(pair, set_, kernel, float(R), grid_n, path)
    return {"set": set_.to_json(), "grid_n": grid_n, "oversample": oversample,
            "results": per_r, "kernel_provenance": kernel.provenance}


def run_bound(config: ExperimentConfig) -> dict:
    params = config.params
    set_ = _load_set(params)
    points = _load_points(params)
    kernel = get_kernel(config)
    alpha = float(params.get("alpha", 1.0))
    beta = float(params.get("beta", 1.0))
    eps = float(params.get("eps", 0.1))
    r_spec = params["R"]
    exponents = {"alpha": alpha, "beta": beta}

    report = search_table = None
    if isinstance(r_spec, str) and r_spec.startswith("auto:"):
        rule = r_spec.split(":", 1)[1]
        if rule in ("lattice", "kronecker"):
            R = optimal_R(rule, points.size, points.dimension, alpha, beta, eps=eps)
            R = max(R, 4.0)
        elif rule == "search":
            formula = max(optimal_R("lattice", points.size, points.dimension,
                                    alpha, beta), 4.0)
            report, search_table = et_bound_r_search(set_, points, kernel,
                                                     formula_R=formula)
            R = report.R
        else:
            raise ConfigError(f"unknown R rule {rule!r}")
    else:
        R = float(r_spec)
    if report is None or config.csv_out:
        # one table and one spectrum (et_bound's oversample) serve the bound and its CSV
        h_table = h_coefficient_table(set_, kernel, R, oversample=2)
        spectrum = weyl_spectrum(points, R)
    if report is None:
        report = et_bound(set_, points, kernel, R, h_table=h_table, spectrum=spectrum,
                          exponents=exponents)

    _require(report.bound + report.uncertainty >= report.true_discrepancy,
             "bound validity", report.bound + report.uncertainty,
             report.true_discrepancy)

    if config.csv_out:
        _write_bound_csv(config.csv_out, set_, h_table, spectrum)
    doc = report.to_json()
    doc["kernel_provenance"] = kernel.provenance
    if search_table is not None:
        doc["search_table"] = [[r, b] for r, b in search_table]
    return doc


def _write_bound_csv(path, set_, h_table, spectrum) -> None:
    chi = set_.fourier_coefficients(spectrum.freqs)
    h_vals = np.abs(h_table.values(spectrum.freqs))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k1", "k2", "chi_re", "chi_im", "chi_abs", "h_abs",
                         "weyl", "term"])
        for k, c, h, w in zip(spectrum.freqs, chi, h_vals, spectrum.values):
            term = (abs(c) + h) * w
            writer.writerow([int(k[0]), int(k[1]), repr(float(c.real)),
                             repr(float(c.imag)), repr(float(abs(c))),
                             repr(float(h)), repr(float(w)), repr(float(term))])


def run_lattice_scaling(config: ExperimentConfig) -> dict:
    params = config.params
    set_ = _load_set(params)
    kernel = get_kernel(config)
    alpha = float(params.get("alpha", 1.0))
    beta = float(params.get("beta", 1.0))
    ms = [int(m) for m in params["m"]]
    rows = []
    for m in ms:
        from .pointsets import lattice as lattice_points
        R = max(optimal_R("lattice", m, set_.dimension, alpha, beta), 4.0)
        rep = et_bound(set_, lattice_points(m, set_.dimension), kernel, R,
                       exponents={"alpha": alpha, "beta": beta})
        _require(rep.bound + rep.uncertainty >= rep.true_discrepancy,
                 f"bound validity at m={m}", rep.bound + rep.uncertainty,
                 rep.true_discrepancy)
        rows.append({"m": m, "R": rep.R, "bound": rep.bound,
                     "true_discrepancy": rep.true_discrepancy})
    slope = float(np.polyfit(np.log(ms), np.log([r["bound"] for r in rows]), 1)[0])
    target = float(params.get("slope_target", -0.5))
    tol = float(params.get("slope_tolerance", 0.1))
    _require(abs(slope - target) <= tol, "lattice scaling slope", slope, target)
    if config.csv_out:
        with open(config.csv_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "R", "bound", "true_discrepancy"])
            for r in rows:
                writer.writerow([r["m"], repr(r["R"]), repr(r["bound"]),
                                 repr(r["true_discrepancy"])])
    return {"set": set_.to_json(), "rows": rows, "slope": slope,
            "slope_target": target, "slope_tolerance": tol,
            "kernel_provenance": kernel.provenance}


def run_kronecker_scaling(config: ExperimentConfig) -> dict:
    params = config.params
    set_ = _load_set(params)
    kernel = get_kernel(config)
    x = tuple(float(v) for v in params.get("x", (np.sqrt(2) - 1, np.sqrt(3) - 1)))
    eps = float(params.get("eps", 0.1))
    d = set_.dimension

    schmidt_rows = []
    for R in params.get("schmidt_R", (64, 128, 256, 512)):
        val = schmidt_sum(x, float(R))
        schmidt_rows.append({"R": int(R), "sum": val,
                             "ratio": val / np.log(1 + R) ** (d + 1)})
    ratios = [r["ratio"] for r in schmidt_rows]
    spread = max(ratios) / min(ratios)
    _require(spread <= 4.0, "schmidt ratio spread", spread, 4.0)

    ms = [int(m) for m in params["m"]]
    rows = []
    for m in ms:
        R = max(optimal_R("kronecker", m, d, 1.0, 1.0, eps=eps), 4.0)
        rep = et_bound(set_, kronecker(x, m), kernel, R,
                       exponents={"alpha": 1.0, "beta": 1.0, "eps": eps})
        _require(rep.bound + rep.uncertainty >= rep.true_discrepancy,
                 f"bound validity at m={m}", rep.bound + rep.uncertainty,
                 rep.true_discrepancy)
        rows.append({"m": m, "R": rep.R, "bound": rep.bound,
                     "true_discrepancy": rep.true_discrepancy})
    slope = float(np.polyfit(np.log(ms), np.log([r["bound"] for r in rows]), 1)[0])
    slope_max = float(params.get("slope_max", -0.3))
    _require(slope <= slope_max, "kronecker scaling slope", slope, slope_max)
    return {"set": set_.to_json(), "x": list(x), "schmidt": schmidt_rows,
            "schmidt_spread": spread, "rows": rows, "slope": slope,
            "slope_max": slope_max, "kernel_provenance": kernel.provenance}


def _chain_system(params: dict, d: int) -> ChainSystem:
    spec = params.get("X", "coordinate")
    if spec == "coordinate":
        return ChainSystem.coordinate(d)
    normals = json.loads(spec) if isinstance(spec, str) else spec
    return ChainSystem.from_normals(np.asarray(normals, dtype=float))


def run_glp_search(config: ExperimentConfig) -> dict:
    params = config.params
    d = int(params.get("d", 2))
    m = int(params["m"])
    chains = _chain_system(params, d)
    strategy = params.get("strategy", "exhaustive")
    cert = search(m, chains, strategy, n_samples=int(params.get("n_samples", 128)),
                  seed=config.seed)
    if strategy == "exhaustive":
        _require(cert.value <= cert.average, "minimizer beats average",
                 cert.value, cert.average)
    log_factor = m ** -1.0 * np.log(m) ** d
    doc = cert.to_json()
    doc["fitted_constants"] = {
        "average_over_mlog": cert.average / log_factor,
        "value_over_mlog": cert.value / log_factor,
    }
    return doc


def run_polytope_family(config: ExperimentConfig) -> dict:
    from .erdos_turan import polytope_family_bound
    from .pointsets import korobov as korobov_points
    params = config.params
    d = int(params.get("d", 2))
    chains = _chain_system(params, d)
    m = int(params["m"])
    g = params.get("g")
    if g is None:
        phi_ball = PhiBall.build(chains, m)
        cert = search(m, chains, "exhaustive", phi_ball=phi_ball)
        g = list(cert.g)
    points = korobov_points(g, m)
    spectrum = weyl_spectrum(points, float(m))
    fam = polytope_family_bound(chains, spectrum, float(m))

    ratio_rows = []
    for R in params.get("chain_sum_R", (16, 64, 256, 1024, 4096)):
        total = chain_sum(chains, float(R))
        ratio_rows.append({"R": int(R), "sum": total,
                           "ratio": total / np.log(2 + R) ** d})
    ratios = [r["ratio"] for r in ratio_rows]
    spread = max(ratios) / min(ratios)
    _require(spread <= 4.0, "chain sum log-power spread", spread, 4.0)

    if config.csv_out:
        phis = PhiBall.build(chains, m)
        vals = spectrum.values
        with open(config.csv_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k1", "k2", "phi", "weyl", "term"])
            for k, p, w in zip(phis.freqs, phis.values, vals):
                writer.writerow([int(k[0]), int(k[1]), repr(float(p)),
                                 repr(float(w)), repr(float(p * w))])
    return {"m": m, "g": list(g), "bound": fam.value, "r_term": fam.r_term,
            "sum_term": fam.sum_term, "chain_sums": ratio_rows,
            "chain_sum_spread": spread}


def run_sphere_orbit(config: ExperimentConfig) -> dict:
    params = config.params
    k = int(params["k"])
    base = np.asarray([float(v) for v in params.get("base", (0.0, 0.0, 1.0))])
    base = base / np.linalg.norm(base)
    words = enumerate_words(k)
    orb = orbit(base, words)
    caps = []
    for spec in params.get("caps", ["0,0,1,0.5235987755982988"]):
        if isinstance(spec, str):
            vals = [float(v) for v in spec.split(",")]
        else:
            vals = [float(v) for v in spec]
        caps.append(Cap(tuple(vals[:3]), vals[3]))

    doc = {"k": k, "m": orb.size, "base": [float(v) for v in base], "caps": []}
    L = params.get("L")
    rho_value = None
    if L:
        rho = rho_hat(words, int(L))
        doc["rho_hat"] = rho.to_json()
        rho_value = rho.value
    delta = float(params.get("delta", 1.0))
    for cap in caps:
        entry = {"cap": cap.to_json(), "discrepancy": set_discrepancy(orb, cap)}
        if rho_value is not None:
            entry["bound"] = sphere_bound(orb.size, cap, delta, rho_value).to_json()
        doc["caps"].append(entry)
    if config.csv_out:
        with open(config.csv_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "z"])
            for p in orb.points:
                writer.writerow([repr(float(p[0])), repr(float(p[1])), repr(float(p[2]))])
    return doc


_EXPERIMENTS = {
    "kernel-build": run_kernel_build,
    "sandwich": run_sandwich,
    "bound": run_bound,
    "lattice-scaling": run_lattice_scaling,
    "kronecker-scaling": run_kronecker_scaling,
    "glp-search": run_glp_search,
    "polytope-family": run_polytope_family,
    "sphere-orbit": run_sphere_orbit,
}


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment; returns the report document (also written out)."""
    if config.kind not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind {config.kind!r}")
    try:
        body = _EXPERIMENTS[config.kind](config)
        status = "ok"
        violation = None
    except InvariantViolation as exc:
        body = None
        status = "invariant-violation"
        violation = {"check": exc.check, "observed": exc.observed,
                     "allowed": exc.allowed}
    report = {
        "experiment": config.kind,
        "config": config.canonical(),
        "config_hash": config.digest(),
        "status": status,
        "report": body,
        "violation": violation,
    }
    if config.out:
        Path(config.out).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if status != "ok":
        raise InvariantViolation(violation["check"], violation["observed"],
                                 violation["allowed"])
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # config errors exit with the dedicated status, not argparse's 2
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="report JSON path")
    sub.add_argument("--csv-out", help="CSV data path (experiment specific)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--kernel-cache", help="kernel table JSON cache path")
    sub.add_argument("--kernel-d", type=int, default=2)
    sub.add_argument("--kernel-grid-step", type=float, default=1.0 / 256)
    sub.add_argument("--kernel-x-max", type=float, default=25.0)
    sub.add_argument("--kernel-t-max", type=float, default=30.0)


def _config_from(args: argparse.Namespace, kind: str, params: dict) -> ExperimentConfig:
    return ExperimentConfig(
        kind=kind, params=params, seed=args.seed, out=args.out,
        csv_out=args.csv_out, kernel_cache=args.kernel_cache,
        kernel_params={"d": args.kernel_d, "grid_step": args.kernel_grid_step,
                       "x_max": args.kernel_x_max, "t_max": args.kernel_t_max})


def build_parser() -> _Parser:
    parser = _Parser(prog="discrepancy-forge",
                     description="majorant kernels and discrepancy bounds")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("kernel-build", parents=[], help="build/cache a kernel table")
    _add_common(p)

    p = subs.add_parser("sandwich", help="sandwich polynomials and violations")
    _add_common(p)
    p.add_argument("--set", required=True, help="set JSON (inline or file path)")
    p.add_argument("--R", required=True, help="comma-separated degree list")
    p.add_argument("--grid-n", type=int, default=512)
    p.add_argument("--oversample", type=int, default=8)
    p.add_argument("--max-budget", type=float)

    p = subs.add_parser("bound", help="discrepancy bound for one (set, points, R)")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--points", required=True, help="point descriptor JSON")
    p.add_argument("--R", required=True, help="number or auto:<lattice|kronecker|search>")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.1)

    p = subs.add_parser("lattice-scaling", help="bound decay across lattice sizes")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--m", required=True, help="comma-separated lattice sizes")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)

    p = subs.add_parser("kronecker-scaling", help="Schmidt sums and bound decay")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--x", help="comma-separated generator coordinates")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--schmidt-R", default="64,128,256,512")

    p = subs.add_parser("glp-search", help="good lattice point search")
    _add_common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--X", default="coordinate")
    p.add_argument("--strategy", default="exhaustive",
                   choices=["exhaustive", "random", "korobov-rank1"])
    p.add_argument("--n-samples", type=int, default=128)

    p = subs.add_parser("polytope-family", help="family bound and chain sums")
    _add_common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--X", default="coordinate")
    p.add_argument("--g", help="comma-separated generator (default: searched)")
    p.add_argument("--chain-sum-R", default="16,64,256,1024,4096")

    p = subs.add_parser("sphere-orbit", help="rotation orbit, rho_hat, cap bounds")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--base", default="0,0,1")
    p.add_argument("--cap", action="append", default=None,
                   help="px,py,pz,theta (repeatable)")
    p.add_argument("--L", type=int)
    p.add_argument("--delta", type=float, default=1.0)

    return parser


def _parse_list(text: str, cast=float) -> list:
    return [cast(v) for v in str(text).split(",") if v != ""]


def _namespace_to_config(args: argparse.Namespace) -> ExperimentConfig:
    cmd = args.command
    if cmd == "kernel-build":
        return _config_from(args, cmd, {})
    if cmd == "sandwich":
        params = {"set": args.set, "R": _parse_list(args.R),
                  "grid_n": args.grid_n, "oversample": args.oversample}
        if args.max_budget is not None:
            params["max_budget"] = args.max_budget
        return _config_from(args, cmd, params)
    if cmd == "bound":
        r_val = args.R if str(args.R).startswith("auto:") else float(args.R)
        return _config_from(args, cmd, {
            "set": args.set, "points": args.points, "R": r_val,
            "alpha": args.alpha, "beta": args.beta, "eps": args.eps})
    if cmd == "lattice-scaling":
        return _config_from(args, cmd, {
            "set": args.set, "m": _parse_list(args.m, int),
            "alpha": args.alpha, "beta": args.beta})
    if cmd == "kronecker-scaling":
        params = {"set": args.set, "m": _parse_list(args.m, int), "eps": args.eps,
                  "schmidt_R": _parse_list(args.schmidt_R, int)}
        if args.x:
            params["x"] = _parse_list(args.x)
        return _config_from(args, cmd, params)
    if cmd == "glp-search":
        return _config_from(args, cmd, {
            "m": args.m, "d": args.d, "X": args.X, "strategy": args.strategy,
            "n_samples": args.n_samples})
    if cmd == "polytope-family":
        params = {"m": args.m, "d": args.d, "X": args.X,
                  "chain_sum_R": _parse_list(args.chain_sum_R, int)}
        if args.g:
            params["g"] = _parse_list(args.g, int)
        return _config_from(args, cmd, params)
    if cmd == "sphere-orbit":
        params = {"k": args.k, "base": _parse_list(args.base), "delta": args.delta}
        if args.cap:
            params["caps"] = args.cap
        if args.L:
            params["L"] = args.L
        return _config_from(args, cmd, params)
    raise ConfigError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _namespace_to_config(args)
        report = run(config)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not config.out:
        print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
