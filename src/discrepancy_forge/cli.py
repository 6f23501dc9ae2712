"""Batch experiment front-end.

Subcommands: kernel-build, sandwich, bound, lattice-scaling,
kronecker-scaling, glp-search, polytope-family, sphere-orbit.

Each experiment's parameters are declared once, as the flags of its
subcommand in `build_parser`: a flag's dest is its `params` key, and its
parsed type and default are what the `run_*` function receives. Flags left
unset without a default are absent from `params`.

Contracts: reports are JSON with sorted keys and no timestamps or host
information, so re-running a config reproduces outputs byte-identically
(summation orders are fixed throughout the library, seeds are explicit
inputs). Every report embeds the resolved config and its SHA-256 hash, plus
the kernel-table provenance when a kernel participates. Exit codes: 0 on
success, 2 when a named invariant check fails beyond its budget, 3 on
configuration errors, which are raised before any kernel or table is built.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chains import ChainSystem, chain_sum
from .errors import ConfigError, InvariantViolation
from .erdos_turan import et_bound, et_bound_r_search, optimal_R, polytope_family_bound
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
    korobov,
    kronecker,
    lattice,
    pointset_from_descriptor,
    schmidt_sum,
    weyl_spectrum,
)
from .sphere import (
    MAX_DEGREE,
    Cap,
    ball_rho_hat,
    enumerate_words,
    orbit,
    set_discrepancy,
    sphere_bound,
)

CACHE_ENV = "DISCREPANCY_FORGE_CACHE"

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CONFIG = 3

# fixed acceptance thresholds of the scaling experiments (printed in their reports)
SLOPE_TARGET = -0.5       # lattice: bound ~ m^(-1/2)
SLOPE_TOLERANCE = 0.1
SLOPE_MAX = -0.3          # kronecker: the bound must at least decay like m^(-0.3)

# values used when the optional flag is not given (the flag is then absent from params)
KRONECKER_X = (float(np.sqrt(2) - 1), float(np.sqrt(3) - 1))
SPHERE_CAP = "0,0,1,0.5235987755982988"  # the polar cap of angular radius pi/6


@dataclass
class ExperimentConfig:
    """Fully serializable description of one experiment run."""

    kind: str
    params: dict
    seed: int
    out: str | None
    csv_out: str | None
    kernel_cache: str | None
    kernel_params: dict

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


def _require_valid(rep, check: str = "bound validity") -> None:
    """The certified bound (plus its uncertainty) covers the true discrepancy."""
    _require(rep.bound + rep.uncertainty >= rep.true_discrepancy, check,
             rep.bound + rep.uncertainty, rep.true_discrepancy)


def _write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    grid_n, oversample = params["grid_n"], params["oversample"]
    max_budget = params.get("max_budget")
    per_r = []
    for R in params["R"]:
        pair = majorant_pair(set_, kernel, R, oversample=oversample)
        rep = sandwich_report(pair, set_, kernel, R, grid_n)
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
            _require(rep.budget <= max_budget, f"sandwich budget at R={R}",
                     rep.budget, max_budget)
        if config.csv_out:
            stem = Path(config.csv_out)
            path = stem.with_name(f"{stem.stem}_R{int(R)}{stem.suffix or '.csv'}")
            sandwich_csv(pair, set_, kernel, R, grid_n, path)
    return {"set": set_.to_json(), "grid_n": grid_n, "oversample": oversample,
            "results": per_r, "kernel_provenance": kernel.provenance}


def run_bound(config: ExperimentConfig) -> dict:
    params = config.params
    set_ = _load_set(params)
    points = _load_points(params)
    kernel = get_kernel(config)
    alpha, beta, r_spec = params["alpha"], params["beta"], params["R"]

    report = search_table = None
    if r_spec == "auto:search":
        formula = max(optimal_R("lattice", points.size, points.dimension,
                                alpha, beta), 4.0)
        report, search_table = et_bound_r_search(set_, points, kernel,
                                                 formula_R=formula)
        R = report.R
    elif isinstance(r_spec, str):
        R = max(optimal_R(r_spec.split(":", 1)[1], points.size, points.dimension,
                          alpha, beta, eps=params["eps"]), 4.0)
    else:
        R = r_spec
    if report is None or config.csv_out:
        # one table and one spectrum (et_bound's oversample) serve the bound and its CSV
        h_table = h_coefficient_table(set_, kernel, R, oversample=2)
        spectrum = weyl_spectrum(points, R)
    if report is None:
        report = et_bound(set_, points, kernel, R, h_table=h_table, spectrum=spectrum,
                          exponents={"alpha": alpha, "beta": beta})
    _require_valid(report)

    if config.csv_out:
        chi = set_.fourier_coefficients(spectrum.freqs)
        h_vals = np.abs(h_table.values(spectrum.freqs))
        _write_csv(config.csv_out,
                   ["k1", "k2", "chi_re", "chi_im", "chi_abs", "h_abs", "weyl", "term"],
                   ([int(k[0]), int(k[1]), repr(float(c.real)), repr(float(c.imag)),
                     repr(float(abs(c))), repr(float(h)), repr(float(w)),
                     repr(float((abs(c) + h) * w))]
                    for k, c, h, w in zip(spectrum.freqs, chi, h_vals, spectrum.values)))
    doc = report.to_json()
    doc["kernel_provenance"] = kernel.provenance
    if search_table is not None:
        doc["search_table"] = [[r, b] for r, b in search_table]
    return doc


def _scaling_rows(set_: TorusSet, kernel: KernelTable, ms: list, rule: str,
                  points_for, exponents: dict) -> tuple[list, float]:
    """Per size m: the bound at the rule's R, its validity check and its row;
    then the log-log slope of the bound against m."""
    rows = []
    for m in ms:
        R = max(optimal_R(rule, m, set_.dimension, **exponents), 4.0)
        rep = et_bound(set_, points_for(m), kernel, R, exponents=exponents)
        _require_valid(rep, f"bound validity at m={m}")
        rows.append({"m": m, "R": rep.R, "bound": rep.bound,
                     "true_discrepancy": rep.true_discrepancy})
    slope = float(np.polyfit(np.log(ms), np.log([r["bound"] for r in rows]), 1)[0])
    return rows, slope


def run_lattice_scaling(config: ExperimentConfig) -> dict:
    params = config.params
    set_ = _load_set(params)
    kernel = get_kernel(config)
    rows, slope = _scaling_rows(set_, kernel, params["m"], "lattice",
                                lambda m: lattice(m, set_.dimension),
                                {"alpha": params["alpha"], "beta": params["beta"]})
    _require(abs(slope - SLOPE_TARGET) <= SLOPE_TOLERANCE, "lattice scaling slope",
             slope, SLOPE_TARGET)
    if config.csv_out:
        _write_csv(config.csv_out, ["m", "R", "bound", "true_discrepancy"],
                   ([r["m"], repr(r["R"]), repr(r["bound"]), repr(r["true_discrepancy"])]
                    for r in rows))
    return {"set": set_.to_json(), "rows": rows, "slope": slope,
            "slope_target": SLOPE_TARGET, "slope_tolerance": SLOPE_TOLERANCE,
            "kernel_provenance": kernel.provenance}


def run_kronecker_scaling(config: ExperimentConfig) -> dict:
    params = config.params
    set_ = _load_set(params)
    x = tuple(params.get("x", KRONECKER_X))
    d = set_.dimension
    if len(x) != d:
        raise ConfigError(f"--x has {len(x)} coordinates, but the set has dimension {d}")
    kernel = get_kernel(config)

    schmidt_rows = []
    for R in params["schmidt_R"]:
        val = schmidt_sum(x, R)
        schmidt_rows.append({"R": R, "sum": val,
                             "ratio": val / np.log(1 + R) ** (d + 1)})
    ratios = [r["ratio"] for r in schmidt_rows]
    spread = max(ratios) / min(ratios)
    _require(spread <= 4.0, "schmidt ratio spread", spread, 4.0)

    rows, slope = _scaling_rows(set_, kernel, params["m"], "kronecker",
                                lambda m: kronecker(x, m),
                                {"alpha": 1.0, "beta": 1.0, "eps": params["eps"]})
    _require(slope <= SLOPE_MAX, "kronecker scaling slope", slope, SLOPE_MAX)
    return {"set": set_.to_json(), "x": list(x), "schmidt": schmidt_rows,
            "schmidt_spread": spread, "rows": rows, "slope": slope,
            "slope_max": SLOPE_MAX, "kernel_provenance": kernel.provenance}


def _chain_system(params: dict) -> ChainSystem:
    d, spec = params["d"], params["X"]
    if spec == "coordinate":
        return ChainSystem.coordinate(d)
    chains = ChainSystem.from_normals(np.asarray(json.loads(spec), dtype=float))
    if chains.dimension != d:
        raise ConfigError(f"--X normals have dimension {chains.dimension}, but d = {d}")
    return chains


def run_glp_search(config: ExperimentConfig) -> dict:
    params = config.params
    d, m, strategy = params["d"], params["m"], params["strategy"]
    if strategy == "random" and params["n_samples"] < 1:
        raise ConfigError(f"--n-samples must be >= 1, got {params['n_samples']}")
    chains = _chain_system(params)
    cert = search(m, chains, strategy, n_samples=params["n_samples"], seed=config.seed)
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
    params = config.params
    d, m = params["d"], params["m"]
    chains = _chain_system(params)
    g = params.get("g")
    if g is not None and len(g) != d:
        raise ConfigError(f"--g has {len(g)} entries, but d = {d}")
    if min(params["chain_sum_R"]) < 1:
        raise ConfigError(f"--chain-sum-R values must be >= 1, got {params['chain_sum_R']}")
    phi_ball = None
    if g is None:
        phi_ball = PhiBall.build(chains, m)
        cert = search(m, chains, "exhaustive", phi_ball=phi_ball)
        g = list(cert.g)
    points = korobov(g, m)
    spectrum = weyl_spectrum(points, float(m))
    fam = polytope_family_bound(chains, spectrum, float(m))

    ratio_rows = []
    for R in params["chain_sum_R"]:
        total = chain_sum(chains, R)
        ratio_rows.append({"R": R, "sum": total,
                           "ratio": total / np.log(2 + R) ** d})
    ratios = [r["ratio"] for r in ratio_rows]
    spread = max(ratios) / min(ratios)
    _require(spread <= 4.0, "chain sum log-power spread", spread, 4.0)

    if config.csv_out:
        if phi_ball is None:
            phi_ball = PhiBall.build(chains, m)
        _write_csv(config.csv_out, ["k1", "k2", "phi", "weyl", "term"],
                   ([int(k[0]), int(k[1]), repr(float(p)), repr(float(w)),
                     repr(float(p * w))]
                    for k, p, w in zip(phi_ball.freqs, phi_ball.values, spectrum.values)))
    return {"m": m, "g": list(g), "bound": fam.value, "r_term": fam.r_term,
            "sum_term": fam.sum_term, "chain_sums": ratio_rows,
            "chain_sum_spread": spread}


def _cap(spec: str) -> Cap:
    vals = [float(v) for v in spec.split(",")]
    if len(vals) != 4:
        raise ConfigError(f"cap {spec!r} is not px,py,pz,theta")
    return Cap(tuple(vals[:3]), vals[3])


def run_sphere_orbit(config: ExperimentConfig) -> dict:
    params = config.params
    k, L, delta = params["k"], params.get("L"), params["delta"]
    base = np.asarray(params["base"])
    norm = np.linalg.norm(base)
    if base.shape != (3,) or not 0 < norm < np.inf:
        raise ConfigError(f"base must be a nonzero finite 3-vector, got {params['base']}")
    caps = [_cap(spec) for spec in params.get("caps", [SPHERE_CAP])]
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if L is not None and not 1 <= L <= MAX_DEGREE:
        raise ConfigError(f"L must be in [1, {MAX_DEGREE}], got {L}")

    base = base / norm
    words = enumerate_words(k)
    orb = orbit(base, words)
    doc = {"k": k, "m": orb.size, "base": [float(v) for v in base], "caps": []}
    rho_value = None
    if L is not None:
        rho = ball_rho_hat(k, L)
        doc["rho_hat"] = rho.to_json()
        rho_value = rho.value
    for cap in caps:
        entry = {"cap": cap.to_json(), "discrepancy": set_discrepancy(orb, cap)}
        if rho_value is not None:
            entry["bound"] = sphere_bound(orb.size, cap, delta, rho_value).to_json()
        doc["caps"].append(entry)
    if config.csv_out:
        _write_csv(config.csv_out, ["x", "y", "z"],
                   ([repr(float(v)) for v in p] for p in orb.points))
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


def _list_of(cast, min_len: int = 1):
    """argparse type: a comma-separated list of at least min_len values."""
    def parse(text: str) -> list:
        vals = [cast(v) for v in text.split(",") if v != ""]
        if len(vals) < min_len:
            raise argparse.ArgumentTypeError(
                f"needs at least {min_len} comma-separated values, got {text!r}")
        return vals
    parse.__name__ = f"{cast.__name__} list"
    return parse


def _r_spec(text: str):
    """bound --R: a degree, or auto:<lattice|kronecker|search>."""
    if text.startswith("auto:"):
        if text[5:] not in ("lattice", "kronecker", "search"):
            raise argparse.ArgumentTypeError(f"unknown R rule {text[5:]!r}")
        return text
    return float(text)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="report JSON path")
    sub.add_argument("--csv-out", help="CSV data path (experiment specific)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--kernel-cache", help="kernel table JSON cache path")
    sub.add_argument("--kernel-d", type=int, default=2)
    sub.add_argument("--kernel-grid-step", type=float, default=1.0 / 256)
    sub.add_argument("--kernel-x-max", type=float, default=25.0)
    sub.add_argument("--kernel-t-max", type=float, default=30.0)


def build_parser() -> _Parser:
    parser = _Parser(prog="discrepancy-forge",
                     description="majorant kernels and discrepancy bounds")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("kernel-build", help="build/cache a kernel table")
    _add_common(p)

    p = subs.add_parser("sandwich", help="sandwich polynomials and violations")
    _add_common(p)
    p.add_argument("--set", required=True, help="set JSON (inline or file path)")
    p.add_argument("--R", type=_list_of(float), required=True,
                   help="comma-separated degree list")
    p.add_argument("--grid-n", type=int, default=512)
    p.add_argument("--oversample", type=int, default=8)
    p.add_argument("--max-budget", type=float)

    p = subs.add_parser("bound", help="discrepancy bound for one (set, points, R)")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--points", required=True, help="point descriptor JSON")
    p.add_argument("--R", type=_r_spec, required=True,
                   help="number or auto:<lattice|kronecker|search>")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.1)

    p = subs.add_parser("lattice-scaling", help="bound decay across lattice sizes")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--m", type=_list_of(int, 2), required=True,
                   help="comma-separated lattice sizes (at least two)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)

    p = subs.add_parser("kronecker-scaling", help="Schmidt sums and bound decay")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--m", type=_list_of(int, 2), required=True,
                   help="comma-separated point counts (at least two)")
    p.add_argument("--x", type=_list_of(float),
                   help="comma-separated generator coordinates (default: sqrt2-1,sqrt3-1)")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--schmidt-R", type=_list_of(int), default="64,128,256,512")

    p = subs.add_parser("glp-search", help="good lattice point search")
    _add_common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--X", default="coordinate", help="'coordinate' or JSON normals")
    p.add_argument("--strategy", default="exhaustive",
                   choices=["exhaustive", "random", "korobov-rank1"])
    p.add_argument("--n-samples", type=int, default=128)

    p = subs.add_parser("polytope-family", help="family bound and chain sums")
    _add_common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--X", default="coordinate", help="'coordinate' or JSON normals")
    p.add_argument("--g", type=_list_of(int),
                   help="comma-separated generator (default: searched)")
    p.add_argument("--chain-sum-R", type=_list_of(int), default="16,64,256,1024,4096")

    p = subs.add_parser("sphere-orbit", help="rotation orbit, rho_hat, cap bounds")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--base", type=_list_of(float), default="0,0,1")
    p.add_argument("--cap", dest="caps", action="append",
                   help="px,py,pz,theta (repeatable; default: the polar cap, theta = pi/6)")
    p.add_argument("--L", type=int,
                   help=f"harmonic degree cutoff for rho_hat (1 to {MAX_DEGREE})")
    p.add_argument("--delta", type=float, default=1.0)

    return parser


def _namespace_to_config(args: argparse.Namespace) -> ExperimentConfig:
    """Common flags fill the config's fields; every other flag that is set is a param."""
    ns = vars(args).copy()
    kernel_params = {key: ns.pop(f"kernel_{key}")
                     for key in ("d", "grid_step", "x_max", "t_max")}
    fields = {key: ns.pop(key) for key in ("seed", "out", "csv_out", "kernel_cache")}
    kind = ns.pop("command")
    return ExperimentConfig(kind=kind, kernel_params=kernel_params, **fields,
                            params={k: v for k, v in ns.items() if v is not None})


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
