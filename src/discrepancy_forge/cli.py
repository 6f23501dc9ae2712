"""Batch experiment front-end.

Subcommands: kernel-build, sandwich, bound, lattice-scaling,
kronecker-scaling, glp-search, polytope-family, sphere-orbit.

Each experiment's parameters are declared once, as the flags of its
subcommand in `build_parser`: a flag's dest is its `params` key, and its
parsed type and default are what the `run_*` function receives. Flags left
unset without a default are absent from `params`. A flag's type also checks
its own domain (finite, in range), so such errors exit while parsing; checks
that span several flags run at the top of each `run_*`, before its first
kernel, table or search.

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
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .chains import ChainSystem, chain_sum, check_chain_sum
from .errors import ConfigError, InvariantViolation, require_memory
from .erdos_turan import (
    H_OVERSAMPLE,
    et_bound,
    et_bound_r_search,
    optimal_R,
    polytope_family_bound,
    r_search_candidates,
)
from .frequencies import integer_ball_bytes
from .geometry import TorusSet, set_from_json
from .glp import PhiBall, check_phi_ball, check_search, search
from .hfourier import check_table_memory
from .kernel import (
    EXP_MINUS_2PI,
    SUPPORTED_DIMENSIONS,
    KernelTable,
    build_bump,
    build_kernel_table,
    load_kernel,
    psi,
    save_kernel,
)
from .majorant import (
    SANDWICH_BYTES_PER_POINT,
    majorant_pair,
    sandwich_csv,
    sandwich_grids,
    sandwich_report,
)
from .pointsets import (
    PointSet,
    check_point_memory,
    is_prime,
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
    orbit_bytes,
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
    return Path(cache_dir) / f"kernel-d{config.kernel_params['d']}.json"


def get_kernel(config: ExperimentConfig) -> KernelTable:
    """Load the kernel table from cache or build (and cache) it."""
    d = config.kernel_params["d"]
    path = _kernel_cache_path(config)
    if path is not None and path.exists():
        try:
            table = load_kernel(path)
        except ValueError:
            table = None  # torn, corrupt or mistyped: a miss, rebuilt and overwritten below
        if table is not None and table.dimension == d:
            return table
    table = build_kernel_table(build_bump(d))
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
    """The bytes of csv.writer's excel dialect for rows of Python numbers and
    repr strings, none of which needs quoting: fields joined by commas, rows
    ended by CRLF, as `majorant.sandwich_csv` writes them."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def _columns(*columns: np.ndarray):
    """CSV rows from equal-length columns, as Python ints and floats:
    str(float) is repr(float), so no per-value numpy scalar is made."""
    return zip(*(c.tolist() for c in columns))


def _json_or_file(spec: str, what: str) -> dict:
    """Accept an inline JSON object or a path to a file holding one."""
    text = spec.lstrip("@")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        if not Path(text).exists():
            raise ConfigError(
                f"{what} is neither inline JSON nor an existing file: {spec!r}") from None
        doc = json.loads(Path(text).read_text())
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} is not a JSON object: {spec!r}")
    return doc


def _load_set(config: ExperimentConfig) -> TorusSet:
    """The experiment's set; the torus experiments run on T^2 with a d = 2 kernel."""
    try:
        set_ = set_from_json(_json_or_file(config.params["set"], "set spec"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed set spec: {exc!r}") from exc
    if set_.dimension != 2 or config.kernel_params["d"] != 2:
        raise ConfigError(f"torus experiments need a 2-d set and --kernel-d 2, got a "
                          f"{set_.dimension}-d set and --kernel-d {config.kernel_params['d']}")
    return set_


def _load_points(params: dict, d: int) -> PointSet:
    try:
        points = pointset_from_descriptor(_json_or_file(params["points"], "point descriptor"))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed point descriptor: {exc!r}") from exc
    if points.dimension != d:
        raise ConfigError(f"the points have dimension {points.dimension}, the set {d}")
    return points


def _rule_R(rule: str, m: int, alpha: float, beta: float, eps: float = 0.1) -> float:
    """The cutoff of an R rule at m points in d = 2, at least 4; ConfigError unless finite."""
    try:
        R = max(optimal_R(rule, m, 2, alpha, beta, eps=eps), 4.0)
    except OverflowError:
        R = np.inf
    if not np.isfinite(R):
        raise ConfigError(f"the {rule} R rule gives R = {R} at m = {m}")
    return R


def _require_distinct_R(rule: str, ms: list, rs: list) -> None:
    """ConfigError if two distinct sizes share one clamped rule R; a slope needs distinct R."""
    if len(set(rs)) < len(set(ms)):
        raise ConfigError(f"--m sizes {ms} give the {rule} rule's R {rs} (at least 4): "
                          "distinct sizes share one R, and the slope needs distinct R")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_kernel_build(config: ExperimentConfig) -> dict:
    table = get_kernel(config)
    grid = np.linspace(0.0, 2.0 * table.t_max, 2001)  # psi on [0, 2 t_max], where I ends
    psi_grid = psi(table, grid)
    step = table.tail_grid[1] - table.tail_grid[0]
    shift = int(round(1.0 / step))
    ratio_margin = float(np.min(table.tail[shift:] - EXP_MINUS_2PI * table.tail[:-shift]))
    report = {
        "dimension": table.dimension,
        "gamma": table.gamma,
        "ball_mass": table.ball_mass,
        "psi_at_zero": psi(table, 0.0),
        # sup over the grid of psi(t) (1 + t)^alpha
        "fitted_decay_constants": {str(a): float(np.max(psi_grid * (1.0 + grid) ** a))
                                   for a in (2, 4, 8)},
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
    set_ = _load_set(config)
    grid_n, oversample, rs = params["grid_n"], params["oversample"], params["R"]
    if not grid_n >= 4 * max(rs):
        raise ConfigError(f"--grid-n must be at least 4 max(R) = {4 * max(rs):g}, got {grid_n}")
    require_memory(SANDWICH_BYTES_PER_POINT * grid_n ** 2, f"a sandwich grid at --grid-n {grid_n}")
    for R in rs:
        check_table_memory(R, oversample)
    kernel = get_kernel(config)
    max_budget = params.get("max_budget")
    per_r = []
    for R in rs:
        pair = majorant_pair(set_, kernel, R, oversample=oversample)
        grids = sandwich_grids(pair, set_, kernel, grid_n)
        rep = sandwich_report(pair, grids)
        per_r.append({k: v for k, v in asdict(rep).items() if k != "grid_n"})
        worst = max(rep.lower_violation, rep.upper_violation, rep.width_violation)
        _require(worst <= rep.budget, f"sandwich violation at R={R}", worst, rep.budget)
        if max_budget is not None:
            _require(rep.budget <= max_budget, f"sandwich budget at R={R}",
                     rep.budget, max_budget)
        if config.csv_out:
            stem = Path(config.csv_out)
            sandwich_csv(grids, stem.with_name(f"{stem.stem}_R{R:g}{stem.suffix or '.csv'}"))
        del pair, grids  # the next R's are built without this R's alive
    return {"set": set_.to_json(), "grid_n": grid_n, "oversample": oversample,
            "results": per_r, "kernel_provenance": kernel.provenance}


def run_bound(config: ExperimentConfig) -> dict:
    params = config.params
    set_ = _load_set(config)
    points = _load_points(params, set_.dimension)
    alpha, beta, r_spec = params["alpha"], params["beta"], params["R"]
    if isinstance(r_spec, str):  # auto:search starts its grid search at the lattice rule
        rule = "lattice" if r_spec == "auto:search" else r_spec[5:]
        R = _rule_R(rule, points.size, alpha, beta, params["eps"])
    else:
        R = r_spec
    candidates = r_search_candidates(R) if r_spec == "auto:search" else [R]
    for candidate in candidates:
        check_table_memory(candidate, H_OVERSAMPLE)
    # one Weyl spectrum at the largest candidate serves them all
    require_memory(integer_ball_bytes(max(candidates), points.dimension),
                   f"the Weyl spectrum's ball |k| < {max(candidates)}")
    kernel = get_kernel(config)

    # the best candidate's table and spectrum serve its CSV as well
    report, search_table, h_table, spectrum = et_bound_r_search(set_, points, kernel, candidates)
    _require_valid(report)

    if config.csv_out:
        chi = set_.fourier_coefficients(spectrum.freqs)
        # abs() of each complex scalar, bitwise; the array np.abs(chi) rounds differently
        chi_abs = np.hypot(chi.real, chi.imag)
        h_vals = np.abs(h_table.values(spectrum.freqs))
        _write_csv(config.csv_out,
                   ["k1", "k2", "chi_re", "chi_im", "chi_abs", "h_abs", "weyl", "term"],
                   _columns(*spectrum.freqs.T, chi.real, chi.imag, chi_abs, h_vals,
                            spectrum.values, (chi_abs + h_vals) * spectrum.values))
    doc = report.to_json()
    doc["exponents"] = {"alpha": alpha, "beta": beta}
    doc["kernel_provenance"] = kernel.provenance
    if r_spec == "auto:search":
        doc["search_table"] = [[r, b] for r, b in search_table]
    return doc


def _scaling_rows(set_: TorusSet, kernel: KernelTable, ms: list, rs: list,
                  points_for) -> tuple[list, float]:
    """Per size m: the bound at its rule's R, its validity check and its row;
    then the log-log slope of the bound against m."""
    rows = []
    for m, R in zip(ms, rs):
        rep = et_bound(set_, points_for(m), kernel, R)
        _require_valid(rep, f"bound validity at m={m}")
        rows.append({"m": m, "R": rep.R, "bound": rep.bound,
                     "true_discrepancy": rep.true_discrepancy})
    slope = float(np.polyfit(np.log(ms), np.log([r["bound"] for r in rows]), 1)[0])
    return rows, slope


def _log_power_rows(rs: list, total, shift: int, power: int,
                    check: str) -> tuple[list, float]:
    """Per R: total(R) and its ratio to log(shift + R)^power; then the spread
    max/min of the ratios, which `check` requires to be at most 4."""
    rows = []
    for R in rs:
        val = total(R)
        rows.append({"R": R, "sum": val, "ratio": val / np.log(shift + R) ** power})
    ratios = [r["ratio"] for r in rows]
    spread = max(ratios) / min(ratios)
    _require(spread <= 4.0, check, spread, 4.0)
    return rows, spread


def run_lattice_scaling(config: ExperimentConfig) -> dict:
    params = config.params
    set_ = _load_set(config)
    ms, alpha, beta = params["m"], params["alpha"], params["beta"]
    if any(math.isqrt(m) ** 2 != m for m in ms):
        raise ConfigError(f"--m values must be squares (lattice sizes in d = 2), got {ms}")
    rs = [_rule_R("lattice", m, alpha, beta) for m in ms]
    for m, R in zip(ms, rs):
        check_point_memory(m, 2, "lattice")
        check_table_memory(R, H_OVERSAMPLE)
    _require_distinct_R("lattice", ms, rs)
    kernel = get_kernel(config)
    rows, slope = _scaling_rows(set_, kernel, ms, rs, lambda m: lattice(m, 2))
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
    set_ = _load_set(config)
    x = tuple(params.get("x", KRONECKER_X))
    d = set_.dimension
    if len(x) != d:
        raise ConfigError(f"--x has {len(x)} coordinates, but the set has dimension {d}")
    rs = [_rule_R("kronecker", m, 1.0, 1.0, params["eps"]) for m in params["m"]]
    for m, R in zip(params["m"], rs):
        check_point_memory(m, d, "kronecker")
        check_table_memory(R, H_OVERSAMPLE)
    schmidt_R = max(params["schmidt_R"])
    require_memory(integer_ball_bytes(schmidt_R, d), f"the Schmidt sum at --schmidt-R {schmidt_R}")
    _require_distinct_R("kronecker", params["m"], rs)
    # the Schmidt rows need no kernel, and a resonant x is refused before one is built
    schmidt_rows, spread = _log_power_rows(params["schmidt_R"], lambda R: schmidt_sum(x, R),
                                           1, d + 1, "schmidt ratio spread")
    kernel = get_kernel(config)
    rows, slope = _scaling_rows(set_, kernel, params["m"], rs, lambda m: kronecker(x, m))
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
    check_search(m, d, strategy, params["n_samples"])
    chains = _chain_system(params)
    cert = search(m, chains, strategy, n_samples=params["n_samples"], seed=config.seed)
    if strategy == "exhaustive":
        _require(cert.value <= cert.average, "minimizer beats average",
                 cert.value, cert.average)
    log_factor = m ** -1.0 * np.log(m) ** d
    doc = asdict(cert)
    doc["fitted_constants"] = {
        "average_over_mlog": cert.average / log_factor,
        "value_over_mlog": cert.value / log_factor,
    }
    return doc


def run_polytope_family(config: ExperimentConfig) -> dict:
    params = config.params
    d, m, g = params["d"], params["m"], params.get("g")
    if g is None:
        check_search(m, d, "exhaustive")  # before the search's Phi ball is built
    elif len(g) != d or not is_prime(m) or not all(1 <= v < m for v in g):
        raise ConfigError(f"--g needs d = {d} entries in [1, m - 1] at a prime m, "
                          f"got {g} at m = {m}")
    else:
        check_phi_ball(m, d)  # the Weyl spectrum and the CSV's ball span it too
    chains = _chain_system(params)
    check_chain_sum(chains, max(params["chain_sum_R"]))
    # Phi over |k| < m: the search's ball, the bound's values and the CSV's column
    phi_ball = PhiBall.build(chains, m)
    if g is None:
        g = list(search(m, chains, "exhaustive", phi_ball=phi_ball).g)
    spectrum = weyl_spectrum(korobov(g, m), float(m))
    fam = polytope_family_bound(phi_ball.values, spectrum)

    ratio_rows, spread = _log_power_rows(params["chain_sum_R"], lambda R: chain_sum(chains, R),
                                         2, d, "chain sum log-power spread")

    if config.csv_out:
        _write_csv(config.csv_out, ["k1", "k2", "phi", "weyl", "term"],
                   _columns(*phi_ball.freqs.T, phi_ball.values, spectrum.values,
                            phi_ball.values * spectrum.values))
    return {"m": m, "g": list(g), "bound": fam.value, "r_term": fam.r_term,
            "sum_term": fam.sum_term, "chain_sums": ratio_rows,
            "chain_sum_spread": spread}


def _cap(spec: str) -> Cap:
    vals = [float(v) for v in spec.split(",")]
    if len(vals) != 4 or not np.all(np.isfinite(vals)):
        raise ConfigError(f"cap {spec!r} is not px,py,pz,theta (finite numbers)")
    return Cap(tuple(vals[:3]), vals[3])


def run_sphere_orbit(config: ExperimentConfig) -> dict:
    params = config.params
    k, L, delta = params["k"], params.get("L"), params["delta"]
    base = np.asarray(params["base"])
    norm = np.linalg.norm(base)
    if base.shape != (3,) or not 0 < norm < np.inf:
        raise ConfigError(f"base must be a nonzero finite 3-vector, got {params['base']}")
    caps = [_cap(spec) for spec in params.get("caps", [SPHERE_CAP])]

    require_memory(orbit_bytes(k), f"the orbit at --k {k}")

    base = base / norm
    points = orbit(base, enumerate_words(k))
    m = len(points)
    doc = {"k": k, "m": m, "base": [float(v) for v in base], "caps": []}
    rho_value = None
    if L is not None:
        rho = ball_rho_hat(k, L)
        doc["rho_hat"] = asdict(rho)
        rho_value = rho.value
    for cap in caps:
        entry = {"cap": cap.to_json(), "discrepancy": set_discrepancy(points, cap)}
        if rho_value is not None:
            entry["bound"] = asdict(sphere_bound(m, cap, delta, rho_value))
        doc["caps"].append(entry)
    if config.csv_out:
        _write_csv(config.csv_out, ["x", "y", "z"], points.tolist())
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


def _finite(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {text!r}")
    return value


def _list_of(cast, min_len: int = 1):
    """argparse type: a comma-separated list of at least min_len distinct values."""
    def parse(text: str) -> list:
        vals = [cast(v) for v in text.split(",") if v != ""]
        if len(set(vals)) < min_len:
            raise argparse.ArgumentTypeError(
                f"needs at least {min_len} distinct comma-separated values, got {text!r}")
        return vals
    parse.__name__ = f"{cast.__name__} list"
    return parse


def _within(cast, low: float, high: float = np.inf, *, open_low: bool = False):
    """argparse type: cast(text) in [low, high], or in (low, high] with open_low."""
    def parse(text: str):
        value = cast(text)
        if not (low < value if open_low else low <= value) or value > high:
            raise argparse.ArgumentTypeError(
                f"needs a value in {'(' if open_low else '['}{low:g}, {high:g}], got {text!r}")
        return value
    parse.__name__ = cast.__name__
    return parse


def _r_spec(text: str):
    """bound --R: a degree of at least 4, or auto:<lattice|kronecker|search>."""
    if text.startswith("auto:"):
        if text[5:] not in ("lattice", "kronecker", "search"):
            raise argparse.ArgumentTypeError(f"unknown R rule {text[5:]!r}")
        return text
    return _within(_finite, 4.0)(text)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="report JSON path")
    sub.add_argument("--csv-out", help="CSV data path (experiment specific)")
    sub.add_argument("--seed", type=_within(int, 0), default=0)
    sub.add_argument("--kernel-cache", help="kernel table JSON cache path")
    sub.add_argument("--kernel-d", type=int, choices=SUPPORTED_DIMENSIONS, default=2)


def build_parser() -> _Parser:
    parser = _Parser(prog="discrepancy-forge",
                     description="majorant kernels and discrepancy bounds")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("kernel-build", help="build/cache a kernel table")
    _add_common(p)

    p = subs.add_parser("sandwich", help="sandwich polynomials and violations")
    _add_common(p)
    p.add_argument("--set", required=True, help="set JSON (inline or file path)")
    p.add_argument("--R", type=_list_of(_within(_finite, 4.0)), required=True,
                   help="comma-separated degree list (each at least 4)")
    p.add_argument("--grid-n", type=int, default=512)
    p.add_argument("--oversample", type=_within(int, 1), default=8)
    p.add_argument("--max-budget", type=_finite)

    p = subs.add_parser("bound", help="discrepancy bound for one (set, points, R)")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--points", required=True, help="point descriptor JSON")
    p.add_argument("--R", type=_r_spec, required=True,
                   help="number or auto:<lattice|kronecker|search>")
    p.add_argument("--alpha", type=_finite, default=1.0)
    p.add_argument("--beta", type=_finite, default=1.0)
    p.add_argument("--eps", type=_finite, default=0.1)

    p = subs.add_parser("lattice-scaling", help="bound decay across lattice sizes")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--m", type=_list_of(_within(int, 1), 2), required=True,
                   help="comma-separated lattice sizes (at least two distinct squares)")
    p.add_argument("--alpha", type=_finite, default=1.0)
    p.add_argument("--beta", type=_finite, default=1.0)

    p = subs.add_parser("kronecker-scaling", help="Schmidt sums and bound decay")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--m", type=_list_of(_within(int, 2), 2), required=True,
                   help="comma-separated point counts (at least two distinct)")
    p.add_argument("--x", type=_list_of(_finite),
                   help="comma-separated generator coordinates (default: sqrt2-1,sqrt3-1)")
    p.add_argument("--eps", type=_finite, default=0.1)
    p.add_argument("--schmidt-R", type=_list_of(_within(int, 2)), default="64,128,256,512")

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
    p.add_argument("--chain-sum-R", type=_list_of(_within(int, 1)),
                   default="16,64,256,1024,4096")

    p = subs.add_parser("sphere-orbit", help="rotation orbit, rho_hat, cap bounds")
    _add_common(p)
    p.add_argument("--k", type=_within(int, 1), required=True,
                   help="word length (at least 1; the orbit must fit in memory)")
    p.add_argument("--base", type=_list_of(_finite), default="0,0,1")
    p.add_argument("--cap", dest="caps", action="append",
                   help="px,py,pz,theta (repeatable; default: the polar cap, theta = pi/6)")
    p.add_argument("--L", type=_within(int, 1, MAX_DEGREE),
                   help=f"harmonic degree cutoff for rho_hat (1 to {MAX_DEGREE})")
    p.add_argument("--delta", type=_within(_finite, 0.0, 1.0, open_low=True), default=1.0)

    return parser


def _namespace_to_config(args: argparse.Namespace) -> ExperimentConfig:
    """Common flags fill the config's fields; every other flag that is set is a param."""
    ns = vars(args).copy()
    kernel_params = {"d": ns.pop("kernel_d")}
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
