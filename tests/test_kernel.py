"""Kernel construction: bump profile, autocorrelation, kernel table, psi."""

import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    hermite_by_raise,
    kernel_value,
    radial_masses_by_blocks,
    radial_transform_by_blocks,
    tail_by_whole_array,
)
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.special import j0

from discrepancy_forge import hfourier, kernel, parallel
from discrepancy_forge.geometry import Ball, ConvexPolytope
from discrepancy_forge.kernel import (
    _HERMITE_BLOCK,
    KernelTable,
    _CubicHermite,
    _clamped_slopes,
    _hermite_scratch,
    autocorrelation_values,
    build_bump,
    build_kernel_table,
    bump_raw,
    load_kernel,
    psi,
    save_kernel,
)
from discrepancy_forge.quadrature import panel_nodes

EXP_MINUS_2PI = np.exp(-2 * np.pi)

# frozen from the nested-interval adaptive quadrature oracle below
C2_EXPECTED = 193.1249033588253


def test_bump_vanishes_at_support_boundary():
    bump = build_bump(1)
    assert bump(0.5) == 0.0


def test_bump_square_integral_is_one(bump2):
    # independent check of the normalization with adaptive quadrature
    c = bump2.normalization
    val, _ = quad(lambda r: (c * bump_raw(r)) ** 2 * r, 0.0, 0.5,
                  epsabs=1e-16, epsrel=1e-13)
    assert abs(2 * np.pi * val - 1.0) < 1e-8


def test_bump_normalization_matches_adaptive_oracle(bump2):
    val, _ = quad(lambda r: bump_raw(r) ** 2 * r, 0.0, 0.5, epsabs=1e-16, epsrel=1e-13)
    c2_oracle = 1.0 / np.sqrt(2 * np.pi * val)
    assert abs(bump2.normalization - c2_oracle) / c2_oracle < 1e-6
    assert abs(bump2.normalization - C2_EXPECTED) / C2_EXPECTED < 1e-9


def test_bump_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_bump(4)


def test_autocorrelation_normalization_and_support(bump2):
    values, change = autocorrelation_values(bump2, np.linspace(0.0, 1.0, 513))
    assert abs(values[0] - 1.0) < 1e-6
    assert values[-1] == pytest.approx(0.0, abs=1e-12)
    assert change.shape == values.shape and change.max() < 1e-8


def direct_autocorrelation(bump, s):
    """(m * m)(s) by nested adaptive quadrature in physical space."""
    c = bump.normalization
    tol = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}

    def m(r):
        return c * math.exp(-1.0 / (0.25 - r * r)) if abs(r) < 0.5 else 0.0

    def integral(f, lo, hi):
        return quad(f, lo, hi, **tol)[0] if lo < hi else 0.0

    if bump.dimension == 1:
        return integral(lambda u: m(u) * m(s - u), s - 0.5, 0.5)
    if bump.dimension == 2:
        def ring(rho):
            # integral of m(|s e_1 - rho e(theta)|) over theta
            if s == 0.0:
                return 2 * math.pi * m(rho)
            cos_min = (s * s + rho * rho - 0.25) / (2 * s * rho)
            theta_max = math.acos(min(max(cos_min, -1.0), 1.0))
            return 2 * integral(lambda th: m(math.sqrt(max(
                s * s + rho * rho - 2 * s * rho * math.cos(th), 0.0))), 0.0, theta_max)
        return integral(lambda rho: m(rho) * rho * ring(rho), 0.0, 0.5)
    if s == 0.0:
        return 4 * math.pi * integral(lambda r: m(r) ** 2 * r * r, 0.0, 0.5)
    shell = lambda rho: integral(lambda u: m(u) * u, abs(s - rho), min(s + rho, 0.5))
    return 2 * math.pi / s * integral(lambda rho: m(rho) * rho * shell(rho), 0.0, 0.5)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.75, 0.95])
def test_autocorrelation_matches_direct_convolution(d, s):
    # m * m = F[(F m)^2] against the convolution integral itself
    bump = build_bump(d)
    values, change = autocorrelation_values(bump, s)
    assert abs(values[0] - direct_autocorrelation(bump, s)) < 1e-12
    assert change[0] < 1e-12


def test_autocorrelation_matches_monte_carlo(bump2):
    # Monte Carlo convolution over the support disk, 1e7 samples, 3 sigma
    rng = np.random.default_rng(20240817)
    n = 10 ** 7
    r = 0.5 * np.sqrt(rng.random(n))
    th = 2 * np.pi * rng.random(n)
    eta = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    vals = bump2(np.hypot(eta[:, 0], eta[:, 1])) * bump2(np.hypot(0.5 - eta[:, 0], eta[:, 1]))
    area = np.pi * 0.25
    est = area * vals.mean()
    se = area * vals.std(ddof=1) / np.sqrt(n)
    direct, _ = autocorrelation_values(bump2, np.array([0.5]))
    assert abs(est - direct[0]) < 3 * se


def test_build_transforms_the_bump_once_per_resolution(monkeypatch):
    # per resolution, F m on its 800 or 1,600 frequency nodes and (F m)^2 mapped
    # back to the 1,024 master nodes and 1,025 khat knots at once; then K = F khat
    radii = []
    transform = kernel._radial_transform

    def counting(d, r, wf, s):
        radii.append(len(s))
        return transform(d, r, wf, s)

    monkeypatch.setattr(kernel, "_radial_transform", counting)
    table = build_kernel_table(build_bump(1))
    assert radii == [800, 2049, 1600, 2049, len(table.kvals_grid)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_joined_radii_keep_each_sets_values_and_accuracy(d, kernel_tables):
    # the master nodes fill whole blocks of radii, so the knots after them
    # start a block, as they do alone; the table's accuracy adds the largest
    # refinement change over the nodes, not over the knots as well
    table, bump = kernel_tables[d], build_bump(d)
    nodes, _ = panel_nodes(0.0, 1.0, kernel.BUILD_PARAMETERS["master_panels"])
    assert len(nodes) % kernel._TRANSFORM_CHUNK == 0
    joined, change = autocorrelation_values(bump, np.concatenate([nodes, table.khat_grid]))
    for part, s in zip(np.split(joined, [len(nodes)]), (nodes, table.khat_grid)):
        assert np.array_equal(part, autocorrelation_values(bump, s)[0])
    khat_nodes = (1.0 + nodes ** 2) ** (-(d + 1) / 2.0) * joined[:len(nodes)]
    spline_gap = float(np.max(np.abs(table.khat_value(nodes) - khat_nodes)))
    assert table.khat_accuracy == spline_gap + float(np.max(change[:len(nodes)]))


def test_tail_integral_normalized(kernel2):
    assert abs(kernel2.tail_integral(0.0) - 1.0) < 1e-6


def test_tail_ratio_claim(kernel2):
    # I(t+1) >= exp(-2 pi) I(t) on the whole table, slack 1e-9
    step = kernel2.tail_grid[1] - kernel2.tail_grid[0]
    shift = int(round(1.0 / step))
    lhs = kernel2.tail[shift:]
    rhs = EXP_MINUS_2PI * kernel2.tail[:-shift]
    assert np.all(lhs >= rhs - 1e-9)
    assert abs(EXP_MINUS_2PI - 1.867442e-3) < 1e-9


def test_kernel_positivity_and_mean(kernel2):
    assert kernel2.kvals.min() >= -kernel2.quadrature_tolerance
    s = kernel2.kvals_grid
    mean = 2 * np.pi * np.trapezoid(kernel2.kvals * s, s)
    assert abs(mean - 1.0) < 1e-5


def test_gamma_matches_monte_carlo_ball_integral(kernel2):
    # gamma^{-1} = exp(-2 pi) * integral of K over the unit ball
    rng = np.random.default_rng(7)
    n = 10 ** 6
    radii = np.sqrt(rng.random(n))  # uniform on the unit disk
    vals = kernel_value(kernel2, radii)
    est = np.pi * vals.mean()
    se = np.pi * vals.std(ddof=1) / np.sqrt(n)
    assert abs(est - kernel2.ball_mass) < 3 * se
    assert kernel2.gamma == pytest.approx(np.exp(2 * np.pi) / kernel2.ball_mass)


def test_transform_round_trip(kernel2):
    # forward radial transform of tabulated K recovers khat within 1e-4 sup norm
    s = kernel2.kvals_grid
    rr = np.linspace(0.0, 1.0, 101)
    fwd = np.array([2 * np.pi * simpson(kernel2.kvals * j0(2 * np.pi * r * s) * s, x=s)
                    for r in rr])
    assert np.max(np.abs(fwd - kernel2.khat_value(rr))) < 1e-4


def test_khat_support_and_normalization(kernel2):
    assert kernel2.khat_value(1.0) == 0.0
    assert kernel2.khat_value(1.7) == 0.0
    assert abs(kernel2.khat_value(0.0) - 1.0) < 1e-6


def test_psi_basics(kernel2):
    assert psi(kernel2, 0.0) == pytest.approx(4 * kernel2.gamma, rel=1e-9)
    t = np.linspace(0.0, 40.0, 1000)
    vals = psi(kernel2, t)
    assert np.all(np.diff(vals) <= 1e-12)
    with pytest.raises(ValueError):
        psi(kernel2, -0.5)


def test_decay_profile_polynomial_fits(kernel2):
    # sup of psi(t) (1 + t)^alpha over kernel-build's grid on [0, 2 t_max]
    grid = np.linspace(0.0, 2.0 * kernel2.t_max, 2001)
    values = psi(kernel2, grid)

    def fitted_c(alpha):
        return float(np.max(values * (1.0 + grid) ** alpha))

    c4 = fitted_c(4)
    assert np.isfinite(c4) and c4 < 1e6
    # regression pin for the default d=2 build
    assert c4 == pytest.approx(2.2367e5, rel=2e-3)
    for alpha in (2, 8):
        assert np.isfinite(fitted_c(alpha))


def test_psi_h_identity(kernel2):
    # psi(2t)/4 == gamma * I(t): both routes share the tail table
    t = np.linspace(0.0, 20.0, 200)
    lhs = psi(kernel2, 2 * t) / 4.0
    rhs = kernel2.gamma * kernel2.tail_integral(t)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)


def test_serialization_round_trip(tmp_path, kernel2):
    path = tmp_path / "kernel.json"
    save_kernel(kernel2, path)
    loaded = load_kernel(path)
    assert loaded.gamma == kernel2.gamma
    assert np.array_equal(loaded.kvals, kernel2.kvals)
    assert np.array_equal(loaded.tail, kernel2.tail)
    assert loaded.provenance == kernel2.provenance
    # interpolators rebuilt identically
    t = np.linspace(0, 25, 50)
    assert np.array_equal(loaded.tail_integral(t), kernel2.tail_integral(t))
    with pytest.raises(ValueError):
        KernelTable.from_dict({"format": "something-else"})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cache_file_is_the_table_fields_and_rewrites_byte_identical(d, kernel_tables, tmp_path):
    table = kernel_tables[d]
    doc = table.to_dict()
    names = {f.name for f in dataclasses.fields(KernelTable) if f.init}
    assert set(doc) == names | {"format", "version"}
    assert (doc["format"], doc["version"]) == ("discrepancy-forge-kernel", 4)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_kernel(table, first)
    save_kernel(load_kernel(first), second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("field, value", [
    ("gamma", None), ("gamma", "1.5"), ("gamma", True), ("provenance", 5),
    ("dimension", None), ("dimension", 2.0), ("kvals", None), ("kvals", [[0.0]]),
    ("kvals", [0.0, None]), ("tail", [0.0, [1.0]]), ("tail", "0.0"), ("khat_accuracy", []),
    ("kvals", []), ("kvals", [0.0, 1.0]), ("kvals_grid", []), ("kvals_grid", [0.0, 0.005, 0.01])])
def test_mistyped_or_missing_field_is_a_value_error(kernel2, field, value):
    broken = kernel2.to_dict()
    broken[field] = value
    with pytest.raises(ValueError, match=field):
        KernelTable.from_dict(broken)
    del broken[field]
    with pytest.raises(ValueError, match=field):
        KernelTable.from_dict(broken)


@pytest.mark.parametrize("d", [1, 3])
def test_other_dimensions_build(d, kernel_tables):
    tab = kernel_tables[d]
    assert abs(tab.tail_integral(0.0) - 1.0) < 1e-6
    assert tab.kvals.min() >= -tab.quadrature_tolerance
    step = tab.tail_grid[1] - tab.tail_grid[0]
    shift = int(round(1.0 / step))
    assert np.all(tab.tail[shift:] >= EXP_MINUS_2PI * tab.tail[:-shift] - 1e-9)


def _master_coefficients(d):
    """The build's transform nodes r_i and coeff = w_i khat(r_i), K = F khat."""
    nodes, weights = panel_nodes(0.0, 1.0, kernel.BUILD_PARAMETERS["master_panels"])
    conv, _ = autocorrelation_values(build_bump(d), nodes)
    return nodes, weights * ((1.0 + nodes ** 2) ** (-(d + 1) / 2.0) * conv)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_blocked_radial_masses_match_one_whole_product(d, kernel_tables):
    # the blocked sums against the node-by-all-radii product on the build's
    # 2,501 tail radii up to x_max, and at t = 0 up to 1 (the ball mass)
    table = kernel_tables[d]
    nodes, coeff = _master_coefficients(d)
    t = table.tail_grid[table.tail_grid <= table.x_max]
    assert len(t) == 2501
    for radii, hi in ((t, table.x_max), (np.zeros(1), 1.0)):
        blocked = kernel._radial_masses(d, nodes, coeff, radii, hi)
        whole = radial_masses_by_blocks(d, nodes, coeff, radii, hi, len(radii))
        assert np.max(np.abs(blocked - whole)) <= 2e-15
    assert blocked[0] == table.ball_mass


@pytest.mark.parametrize("d", [1, 2, 3])
def test_build_holds_one_block_of_radii(d, monkeypatch):
    # traced peak of a cold build on two workers and its cache document; one
    # node-by-all-radii product of the radial masses peaked at 39.4 / 19.9 /
    # 59.0 MiB for d = 1 / 2 / 3, and np.sinc's four node-by-block arrays at 12.6
    # MiB for d = 3. Each worker holds its own buffers, so the count is fixed.
    monkeypatch.setattr(parallel, "WORKERS", 2)
    bump = build_bump(d)
    tracemalloc.start()
    try:
        build_kernel_table(bump).to_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2 ** 20


@pytest.mark.parametrize("d", [1, 2, 3])
def test_table_does_not_depend_on_the_worker_count(d, monkeypatch):
    # with 3 workers the blocks split unevenly (40 blocks of K radii, 20 of tail radii)
    docs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        docs.append(build_kernel_table(build_bump(d)).to_dict())
    assert docs[0] == docs[1] == docs[2]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_node_sums_over_a_suffix_equal_fresh_blocks(d, kernel_tables):
    # a suffix moves every block boundary and leaves a short last block. Its
    # columns must be C-contiguous as fresh arrays are, or numpy's cos and sin
    # take another inner loop and move the last bits. BLAS gemv sums the last
    # len % 4 radii of a block in another order, so the suffix's last 3 entries
    # may differ from the full sums' and are checked against fresh blocks only.
    table = kernel_tables[d]
    nodes, coeff = _master_coefficients(d)
    radii = table.tail_grid[table.tail_grid <= table.x_max]
    chunk = kernel._TRANSFORM_CHUNK
    transform = kernel._radial_transform(d, nodes, coeff, table.kvals_grid)
    masses = kernel._radial_masses(d, nodes, coeff, radii, table.x_max)
    assert np.array_equal(transform, table.kvals)
    for k in (1, 77, 130):
        part = kernel._radial_transform(d, nodes, coeff, table.kvals_grid[k:])
        assert np.array_equal(part, radial_transform_by_blocks(d, nodes, coeff,
                                                               table.kvals_grid[k:], chunk))
        assert np.array_equal(part[:-3], transform[k:-3])
        part = kernel._radial_masses(d, nodes, coeff, radii[k:], table.x_max)
        assert np.array_equal(part, radial_masses_by_blocks(d, nodes, coeff, radii[k:],
                                                            table.x_max, chunk))
        assert np.array_equal(part[:-3], masses[k:-3])


def test_build_calls_the_public_api_on_the_calling_thread(monkeypatch, kernel2):
    # perfbench's tracer keeps one span stack for all threads, so a public call
    # from a node-sum or strip worker would give its span the wrong parent
    package = importlib.import_module("discrepancy_forge")
    modules = [importlib.import_module(f"discrepancy_forge.{m.name}")
               for m in pkgutil.iter_modules(package.__path__)]
    threads = []

    def recorder(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.append((fn.__qualname__, threading.current_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith("discrepancy_forge"):
                monkeypatch.setattr(mod, name, recorder(obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, raw in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(raw):
                        monkeypatch.setattr(obj, meth, recorder(raw))
    monkeypatch.setattr(parallel, "WORKERS", 2)
    for d in (1, 2, 3):
        kernel.build_kernel_table(kernel.build_bump(d)).to_dict()
    quad = ConvexPolytope(((0.3, 0.25), (0.75, 0.35), (0.7, 0.7), (0.25, 0.6)), epsilon=0.3)
    for set_ in (Ball((0.3, 0.7), 0.25), quad):   # the ball's tail passes t_max
        hfourier.h_coefficient_table(set_, kernel2, 64.0, oversample=2)
        hfourier.h_function_grid(set_, kernel2, 64.0, 512)
        hfourier.h_coefficient_table(set_, kernel2, 64.0, oversample=2, kmax=0)
    names = {name for name, _ in threads}
    assert {"build_kernel_table", "autocorrelation_values", "bump_raw", "panel_nodes",
            "h_coefficient_table", "h_function_grid", "check_table_memory", "deal"} <= names
    assert [name for name, thread in threads if thread is not threading.main_thread()] == []


def _scipy_pairs(table):
    """(numpy evaluator, scipy interpolant, knots) for the tail, kvals and khat tables."""
    return [
        (table._tail_interp, PchipInterpolator(table.tail_grid, table.tail), table.tail_grid),
        (_CubicHermite(table.kvals_grid, table.kvals),
         PchipInterpolator(table.kvals_grid, table.kvals), table.kvals_grid),
        (table._khat_spline, CubicSpline(table.khat_grid, table.khat, bc_type="clamped"),
         table.khat_grid),
    ]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hermite_evaluators_equal_scipy_bitwise(d, kernel_tables):
    table = kernel_tables[d]
    rng = np.random.default_rng(d)
    for ours, ref, x in _scipy_pairs(table):
        pts = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                              [0.0, x[-1]], rng.uniform(x[0], x[-1], 200_000)])
        assert np.array_equal(ours(pts), ref(pts))
    # the public evaluators: I(t) (clipped at 0; the envelope beyond t_max) on
    # 2-d grids inside the table and reaching beyond it, and khat on [0, 1)
    for t_hi in (table.t_max, 1.5 * table.t_max):
        t = np.concatenate([[0.0, table.t_max], rng.uniform(0.0, t_hi, 99_998)])
        t = t.reshape(200, 500)
        tail = np.where(t <= table.t_max, PchipInterpolator(table.tail_grid, table.tail)(t),
                        table._envelope(np.maximum(t, table.t_max)))
        assert np.array_equal(table.tail_integral(t), np.maximum(tail, 0.0))
    r = rng.uniform(0.0, 1.0, 100_000)
    khat = CubicSpline(table.khat_grid, table.khat, bc_type="clamped")(r)
    assert np.array_equal(table.khat_value(r), khat)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 31.0, allow_subnormal=True), min_size=1, max_size=64))
def test_hermite_evaluators_equal_scipy_at_drawn_points(kernel2, values):
    pts = np.asarray(values)
    for ours, ref, _ in _scipy_pairs(kernel2):
        assert np.array_equal(ours(pts), ref(pts))


def _tail_inputs(table):
    """Named arrays of t for the tail evaluator: blocks that straddle t_max,
    t_max and 0 alone, the lengths around one block, and inf and NaN."""
    t_max, block = table.t_max, _HERMITE_BLOCK
    rng = np.random.default_rng(7)
    cases = {
        "t_max": np.array([t_max]),
        "zero": np.array([0.0]),
        "straddling": np.linspace(0.5 * t_max, 1.5 * t_max, 3 * block + 5),
        "one-point-beyond": np.append(np.full(block - 1, 0.5 * t_max), 2 * t_max),
        "inf-nan": np.array([np.inf, np.nan, 1.0, np.nan, 2 * t_max, 0.0, np.inf]),
        "nan-in-blocks": np.where(np.arange(2 * block) % 97, 1.0, np.nan),
    }
    for length in (1, block - 1, block, block + 1):
        cases[f"length-{length}"] = rng.uniform(0.0, 1.5 * t_max, length)
    return cases


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tail_into_out_equals_tail_integral_bitwise(d, kernel_tables):
    # in place, into a fresh array and with a worker's scratch: the same bits
    # as tail_integral, and as one gather and scatter over the whole array
    table = kernel_tables[d]
    for name, t in _tail_inputs(table).items():
        expected = table.tail_integral(t)
        assert np.array_equal(expected, tail_by_whole_array(table, t), equal_nan=True), name
        in_place = t.copy()
        assert table._tail(in_place, out=in_place) is in_place
        fresh = table._tail(t, out=np.empty_like(t), scratch=_hermite_scratch(_HERMITE_BLOCK))
        for got in (in_place, fresh, table._tail(t.reshape(1, -1))[0]):
            assert np.array_equal(got, expected, equal_nan=True), name
    assert table.tail_integral(np.inf) == 0.0 and np.isnan(table.tail_integral(np.nan))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.floats(-40.0, 80.0, allow_subnormal=True), min_size=1, max_size=64))
def test_clipped_gathers_equal_raising_gathers(kernel2, values):
    # below, inside and beyond the knots: mode='clip' never moves an index, or
    # the reference, whose gathers raise for an index out of range, would differ
    pts = np.asarray(values)
    for interp in (kernel2._tail_interp, kernel2._khat_spline,
                   _CubicHermite(kernel2.kvals_grid, kernel2.kvals)):
        assert np.array_equal(interp(pts), hermite_by_raise(interp, pts))
        out = pts.copy()
        assert interp(out, out=out) is out and np.array_equal(out, interp(pts))


def _scipy_clamped_slopes(x, y):
    # c[2] holds the slope at each knot but the last, where "clamped" fixes 0
    return np.append(CubicSpline(x, y, bc_type="clamped").c[2], 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_clamped_slopes_equal_scipy_on_khat_tables(d, kernel_tables):
    table = kernel_tables[d]
    slopes = _clamped_slopes(table.khat_grid, table.khat)
    assert np.array_equal(slopes, _scipy_clamped_slopes(table.khat_grid, table.khat))
    assert np.array_equal(slopes, table.khat_slopes)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(1e-6, 1.0),
       st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=80))
def test_clamped_slopes_equal_scipy_on_drawn_knots(x0, step, values):
    x = x0 + step * np.arange(len(values))
    y = np.asarray(values)
    assert np.array_equal(_clamped_slopes(x, y), _scipy_clamped_slopes(x, y))


def test_table_without_khat_slopes_is_rejected(kernel2):
    doc = kernel2.to_dict()
    assert doc["version"] == 4
    assert KernelTable.from_dict(doc).khat_slopes.tolist() == doc["khat_slopes"]
    for slopes in (None, doc["khat_slopes"][:-1]):
        broken = dict(doc)
        if slopes is None:
            del broken["khat_slopes"]
        else:
            broken["khat_slopes"] = slopes
        with pytest.raises(ValueError):
            KernelTable.from_dict(broken)
