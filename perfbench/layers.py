"""Per-layer metric table and span arithmetic, shared by launch.py and run.py.

Span names are `<module>.<qualname>` of a public callable of the package, for
example `kernel.autocorrelation_values` or `geometry.Ball.boundary_distances`.
Metric patterns are `fnmatch` globs over those names. A pattern that matches
no callable of the package is reported as missing instead of failing the run.
"""

from __future__ import annotations

import json
from fnmatch import fnmatch

import numpy as np

# Modules whose public callables the launcher wraps. `quadrature` and `errors`
# do no work of their own worth a span; their time stays in their callers.
MODULES = ("kernel", "geometry", "chains", "hfourier", "pointsets", "frequencies",
           "majorant", "erdos_turan", "glp", "sphere", "cli")

# metric -> callables whose summed self time the metric is (seconds)
TIMES = {
    "kernel.autocorrelation_s": ["kernel.autocorrelation_values"],
    "kernel.table_build_s": ["kernel.build_kernel_table"],
    "kernel.save_s": ["kernel.save_kernel", "kernel.KernelTable.to_dict"],
    "kernel.load_s": ["kernel.load_kernel", "kernel.KernelTable.from_dict"],
    "kernel.tail_integral_s": ["kernel.KernelTable.tail_integral"],
    "geometry.boundary_distances_s": ["geometry.*.boundary_distances",
                                      "geometry.*.boundary_distance"],
    "geometry.distance_grid_s": ["geometry.*.distance_grid"],
    "geometry.fourier_s": ["geometry.*.fourier_coefficients",
                           "geometry.*.fourier_coefficient"],
    "geometry.contains_s": ["geometry.*.contains"],
    "hfourier.table_s": ["hfourier.h_coefficient_table"],
    "pointsets.weyl_s": ["pointsets.weyl_spectrum"],
    "pointsets.true_discrepancy_s": ["pointsets.true_discrepancy"],
    "frequencies.integer_ball_s": ["frequencies.integer_ball"],
    "majorant.pair_s": ["majorant.majorant_pair"],
    "majorant.report_s": ["majorant.sandwich_report"],
    "majorant.synthesis_s": ["majorant.TrigPolynomial.grid_synthesis"],
    "erdos_turan.assembly_s": ["erdos_turan.*"],
    "chains.phi_s": ["chains.phi"],
    "chains.chain_sum_s": ["chains.chain_sum"],
    "glp.phi_ball_s": ["glp.PhiBall.build"],
    "glp.congruence_sum_s": ["glp.congruence_sum"],
    "glp.search_s": ["glp.search"],
    "sphere.hecke_block_s": ["sphere.hecke_block", "sphere.euler_zyz",
                             "sphere.wigner_d_matrix"],
    "sphere.enumerate_words_s": ["sphere.enumerate_words"],
    "sphere.orbit_s": ["sphere.orbit"],
    "sphere.set_discrepancy_s": ["sphere.set_discrepancy"],
    "cli.self_s": ["cli.*"],
}


def _rows(x) -> int:
    return len(np.atleast_2d(np.asarray(x)))


# metric -> (callable pattern, count of one call from its bound arguments and
# return value; None counts calls)
COUNTS = {
    "kernel.autocorrelation_radii": ("kernel.autocorrelation_values",
                                     lambda a, r: np.size(a["s"])),
    "kernel.tail_integral_evals": ("kernel.KernelTable.tail_integral",
                                   lambda a, r: np.size(a["t"])),
    "geometry.distance_points": ("geometry.*.boundary_distances",
                                 lambda a, r: _rows(a["points"])),
    "geometry.fourier_freqs": ("geometry.*.fourier_coefficients",
                               lambda a, r: _rows(a["freqs"])),
    "hfourier.tables": ("hfourier.h_coefficient_table", None),
    "hfourier.grid_points": ("hfourier.h_function_grid", lambda a, r: a["n"] ** 2),
    "pointsets.weyl_calls": ("pointsets.weyl_spectrum", None),
    "pointsets.weyl_freqs": ("pointsets.weyl_spectrum", lambda a, r: len(r.freqs)),
    "frequencies.integer_ball_points": ("frequencies.integer_ball", lambda a, r: len(r)),
    "erdos_turan.et_bound_calls": ("erdos_turan.et_bound", None),
    "chains.phi_calls": ("chains.phi", None),
    "chains.phi_rows": ("chains.phi", lambda a, r: _rows(a["xi"])),
    "glp.congruence_sum_calls": ("glp.congruence_sum", None),
    "sphere.hecke_blocks": ("sphere.hecke_block", None),
    "sphere.words": ("sphere.enumerate_words", lambda a, r: len(r)),
}

# metric -> callable whose spans run under tracemalloc; the metric is the
# highest traced peak of any one call, in MB
ALLOCS = {
    "hfourier.peak_alloc_mb": "hfourier.h_coefficient_table",
}

# name of the launcher's own span around `cli.main`
ROOT = "launcher.cli_main"


def patterns() -> list[str]:
    """Every callable pattern the tables name."""
    out = [p for pats in TIMES.values() for p in pats]
    out += [pat for pat, _ in COUNTS.values()] + list(ALLOCS.values())
    return list(dict.fromkeys(out))


def matches(name: str, pats) -> bool:
    return any(fnmatch(name, p) for p in pats)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans refer to their parent by index into `spans`. Child intervals are
    clipped to the parent and merged before subtracting, so overlapping or
    overhanging children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def read_spans(paths) -> tuple[list[dict], list[str]]:
    """Spans of several launcher files as one list, and the missing patterns.

    Each file starts with a header line `{"run": ..., "missing": [...]}`;
    parent indices are shifted so they stay valid in the joined list.
    """
    spans, missing = [], set()
    for path in paths:
        with open(path) as fh:
            header = json.loads(fh.readline())
            missing.update(header["missing"])
            base = len(spans)
            for line in fh:
                s = json.loads(line)
                if s["parent"] is not None:
                    s["parent"] += base
                spans.append(s)
    return spans, sorted(missing)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans of all its runs).

    A span that no TIMES entry names (a helper such as `kernel.bump_raw`)
    adds its self time to its nearest named ancestor, as if it were unwrapped.
    """
    own = self_times(spans)
    named_by: dict[str, str | None] = {}
    owner: list[str | None] = []
    for s in spans:  # a parent always precedes its children
        if s["name"] not in named_by:
            named_by[s["name"]] = next(
                (m for m, pats in TIMES.items() if matches(s["name"], pats)), None)
        named = named_by[s["name"]]
        if named is None and s["parent"] is not None:
            named = owner[s["parent"]]
        owner.append(named)
    out = dict.fromkeys(TIMES, 0.0)
    for metric, t in zip(owner, own):
        if metric is not None:
            out[metric] += t
    for metric in COUNTS:
        out[metric] = sum(s.get("counts", {}).get(metric, 0) for s in spans)
    for metric in ALLOCS:
        out[metric] = max((s.get("alloc_mb", {}).get(metric, 0.0) for s in spans),
                          default=0.0)
    return out


def span_coverage(spans: list[dict]) -> float:
    """Time in the launcher's children over the launcher's time inside `cli.main`."""
    roots = {i for i, s in enumerate(spans) if s["name"] == ROOT}
    inside = sum(s["end"] - s["start"] for s in spans if s["parent"] in roots)
    total = sum(spans[i]["end"] - spans[i]["start"] for i in roots)
    return inside / total if total > 0 else 0.0
