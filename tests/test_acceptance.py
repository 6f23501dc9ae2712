"""Acceptance criteria, one test per criterion (criterion 9 split by clause).

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -rA` or `-s`) and asserts the criterion at
its stated tolerance, including the stated runtime budgets.

Criterion 9d holds each spectral threshold to the operator it belongs to.
The Ramanujan bound of Lubotzky, Phillips and Sarnak (Hecke operators and
distributing points on S^2, I-II) says every nontrivial eigenvalue of the
sum of the six generator rotations lies within 2 sqrt(5), so the generator
average G_l has spectral radius at most 2 sqrt(5)/6 = 0.745356 in every
degree l >= 1. `rho_hat` averages over the word set it is given; the seven
words of length <= 1 include the identity, so their block is
T_l = (I + 6 G_l)/7, and the ball obeys only the bound that follows from
this identity: rho_hat(7, L) <= (1 + 2 sqrt(5))/7 = 0.781734 for every L.
The test of 9d derives both thresholds from sqrt(5) and asserts each one,
plus the k = 1 identity that links them.
"""

import time

import numpy as np
from oracles import all_distinct, polytope_ft_bound
from scipy.integrate import dblquad

from discrepancy_forge.chains import ChainSystem, chain_sum
from discrepancy_forge.cli import EXIT_OK, main as cli_main
from discrepancy_forge.erdos_turan import et_bound, optimal_R
from discrepancy_forge.geometry import Ball, Box, ConvexPolytope
from discrepancy_forge.glp import search
from discrepancy_forge.kernel import build_bump, build_kernel_table
from discrepancy_forge.majorant import majorant_pair, sandwich_grids, sandwich_report
from discrepancy_forge.pointsets import korobov, kronecker, lattice, schmidt_sum
from discrepancy_forge.sphere import (
    LETTERS,
    Cap,
    enumerate_words,
    hecke_block,
    lps_generators,
    orbit,
    rho_hat,
    set_discrepancy,
    sphere_bound,
    wigner_d_matrix,
    word_count,
)

BALL = Ball((0.5, 0.5), 0.25)
KRONECKER_X = (np.sqrt(2) - 1, np.sqrt(3) - 1)

_times: dict[str, float] = {}


def _stamp(name: str, t0: float) -> float:
    elapsed = time.time() - t0
    _times[name] = elapsed
    return elapsed


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_kernel_claims():
    t0 = time.time()
    bump = build_bump(2)
    table = build_kernel_table(bump)
    elapsed = _stamp("c1", t0)

    min_k = float(table.kvals.min())
    s = table.kvals_grid
    mass = float(2 * np.pi * np.trapezoid(table.kvals * s, s))
    grid_t = np.round(np.arange(0.0, 10.0 + 1e-9, 0.01), 10)
    lhs = table.tail_integral(grid_t + 1.0)
    rhs = np.exp(-2 * np.pi) * table.tail_integral(grid_t)
    margin = float(np.min(lhs - rhs))

    ok = (min_k >= -1e-6 and abs(mass - 1.0) <= 1e-5 and margin >= -1e-9
          and elapsed < 120.0)
    _report("1 (kernel claims)", ok,
            f"min K={min_k:.2e}, |int K - 1|={abs(mass - 1):.2e}, "
            f"tail-ratio margin={margin:.2e}, runtime={elapsed:.1f}s < 120s")


def test_criterion_2_sandwich(kernel2):
    details = []
    ok = True
    for R in (8.0, 16.0, 32.0):
        t0 = time.time()
        pair = majorant_pair(BALL, kernel2, R, oversample=8)
        rep = sandwich_report(pair, sandwich_grids(pair, BALL, kernel2, 512))
        elapsed = time.time() - t0
        _times[f"c2_R{int(R)}"] = elapsed
        worst = max(rep.lower_violation, rep.upper_violation, rep.width_violation)
        ok &= worst <= rep.budget <= 1e-3 and elapsed < 300.0
        details.append(f"R={int(R)}: worst={worst:.2e} <= budget={rep.budget:.2e} "
                       f"<= 1e-3, {elapsed:.1f}s")
    _report("2 (sandwich)", ok, "; ".join(details))


def _corpus_sets():
    return [
        Box((0.0, 0.0), (0.5, 0.5)),
        Box((0.1, 0.2), (0.6, 0.55)),
        Box((0.3, 0.05), (0.9, 0.4)),
        Ball((0.5, 0.5), 0.25),
        Ball((0.3, 0.7), 0.2),
        Ball((0.62, 0.41), 0.15),
        ConvexPolytope(((0.0, 0.0), (0.25, 0.0), (0.0, 0.25)), epsilon=0.5),
        ConvexPolytope(((0.1, 0.1), (0.45, 0.2), (0.2, 0.5)), epsilon=0.4),
        ConvexPolytope(((0.5, 0.3), (0.8, 0.45), (0.6, 0.7)), epsilon=0.4),
        ConvexPolytope(((0.2, 0.2), (0.6, 0.25), (0.55, 0.6), (0.15, 0.5)),
                       epsilon=0.3),
    ]


def test_criterion_3_et_validity_corpus(kernel2):
    t0 = time.time()
    g257 = search(257, ChainSystem.coordinate(2), "exhaustive").g
    families = [lattice(1024, d=2), kronecker(KRONECKER_X, 500), korobov(g257, 257)]
    valid, total = 0, 0
    for i, set_ in enumerate(_corpus_sets()):
        for j, points in enumerate(families):
            R = 16.0 if (i + j) % 2 == 0 else 32.0
            rep = et_bound(set_, points, kernel2, R)
            total += 1
            valid += int(rep.bound + rep.uncertainty >= rep.true_discrepancy)
    elapsed = _stamp("c3", t0)
    _report("3 (bound validity)", valid == total == 30,
            f"{valid}/{total} valid, runtime={elapsed:.1f}s")


def test_criterion_4_lattice_scaling(kernel2):
    t0 = time.time()
    ms = [256, 1024, 4096]
    bounds = []
    for m in ms:
        R = optimal_R("lattice", m, 2, 1.0, 1.0)
        bounds.append(et_bound(BALL, lattice(m, d=2), kernel2, R).bound)
    slope = float(np.polyfit(np.log(ms), np.log(bounds), 1)[0])
    elapsed = _stamp("c4", t0)
    ok = abs(slope + 0.5) <= 0.1 and elapsed < 600.0
    _report("4 (lattice scaling)", ok,
            f"slope={slope:.4f} in -0.5 +- 0.1, runtime={elapsed:.1f}s < 600s")


def test_criterion_5_kronecker(kernel2):
    t0 = time.time()
    rs = (64, 128, 256, 512)
    sums = [schmidt_sum(KRONECKER_X, float(R)) for R in rs]
    ratios = [s / np.log(1 + R) ** 3 for s, R in zip(sums, rs)]
    spread = max(ratios) / min(ratios)

    ms = [2 ** 16, 2 ** 18, 2 ** 20]
    bounds = []
    for m in ms:
        R = optimal_R("kronecker", m, 2, 1.0, 1.0, eps=0.1)
        bounds.append(et_bound(BALL, kronecker(KRONECKER_X, m), kernel2, R).bound)
    slope = float(np.polyfit(np.log(ms), np.log(bounds), 1)[0])
    elapsed = _stamp("c5", t0)
    ok = spread <= 4.0 and slope <= -0.3
    _report("5 (kronecker machinery)", ok,
            f"schmidt spread={spread:.2f} <= 4, bound slope={slope:.3f} <= -0.3, "
            f"runtime={elapsed:.1f}s")


def _ft_oracle(poly: ConvexPolytope, k) -> complex:
    verts = poly.vertex_array
    total = 0.0 + 0.0j
    for i in range(1, len(verts) - 1):
        v0, v1, v2 = verts[0], verts[i], verts[i + 1]
        jac = abs((v1 - v0)[0] * (v2 - v0)[1] - (v1 - v0)[1] * (v2 - v0)[0])

        def phase(v, u, trig):
            x = v0 + u * (v1 - v0) + v * (v2 - v0)
            return trig(2 * np.pi * (k[0] * x[0] + k[1] * x[1]))

        re, _ = dblquad(lambda v, u: phase(v, u, np.cos), 0, 1, 0, lambda u: 1 - u,
                        epsabs=1e-13, epsrel=1e-11)
        im, _ = dblquad(lambda v, u: -phase(v, u, np.sin), 0, 1, 0, lambda u: 1 - u,
                        epsabs=1e-13, epsrel=1e-11)
        total += jac * complex(re, im)
    return total


def test_criterion_6_polytope_fourier():
    t0 = time.time()
    rng = np.random.default_rng(20250810)

    def random_poly(n_sides):
        while True:
            pts = rng.random((n_sides, 2)) * 0.45 + 0.05
            c = pts.mean(axis=0)
            ang = np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
            pts = pts[np.argsort(ang)]
            try:
                return ConvexPolytope(tuple(map(tuple, pts)), epsilon=0.25)
            except ValueError:
                continue

    polys = [random_poly(3) for _ in range(10)] + [random_poly(4) for _ in range(10)]
    worst_rel = 0.0
    dominated = 0
    total = 0
    for poly in polys:
        ks = rng.integers(-24, 25, size=(60, 2))
        ks = ks[np.any(ks != 0, axis=1)][:50]
        vals = poly.fourier_coefficients(ks)
        bounds = polytope_ft_bound(poly, ks.astype(float))
        for k, v, b in zip(ks, vals, bounds):
            oracle = _ft_oracle(poly, k)
            worst_rel = max(worst_rel, abs(v - oracle) / max(abs(v), abs(oracle)))
            dominated += int(abs(v) <= b + 1e-12)
            total += 1
    elapsed = _stamp("c6", t0)
    ok = worst_rel <= 1e-6 and dominated == total == 1000
    _report("6 (polytope Fourier)", ok,
            f"worst rel err={worst_rel:.2e} <= 1e-6, dominated {dominated}/{total}, "
            f"runtime={elapsed:.1f}s")


def test_criterion_7_chain_sum_claim():
    t0 = time.time()
    cs = ChainSystem.coordinate(2)
    ratios = []
    for R in (16, 64, 256, 1024, 4096):
        ratios.append(chain_sum(cs, float(R)) / np.log(2 + R) ** 2)
    spread = max(ratios) / min(ratios)
    elapsed = _stamp("c7", t0)
    _report("7 (chain-sum claim)", spread < 4.0,
            f"ratio spread={spread:.3f} < 4 over R in 16..4096, runtime={elapsed:.1f}s")


def test_criterion_8_glp():
    t0 = time.time()
    cs = ChainSystem.coordinate(2)
    fitted = []
    all_beat_average = True
    for m in (101, 211, 401, 809):
        cert = search(m, cs, "exhaustive")
        all_beat_average &= cert.value <= cert.average
        fitted.append(cert.average * m / np.log(m) ** 2)
    fitted = np.array(fitted)
    deviation = float(np.max(np.abs(fitted - fitted.mean()) / fitted.mean()))
    elapsed = _stamp("c8", t0)
    ok = all_beat_average and deviation <= 0.5 and elapsed < 900.0
    _report("8 (good lattice points)", ok,
            f"minimizer<=average in 4/4, fitted c dev={deviation:.1%} <= 50%, "
            f"runtime={elapsed:.1f}s < 900s")


def test_criterion_9a_sphere_word_counts():
    t0 = time.time()
    counts_ok = all(len(enumerate_words(k)) == word_count(k) == (3 * 5 ** k - 1) // 2
                    for k in range(0, 7))
    _times["c9a"] = time.time() - t0
    _report("9a (word counts k<=6)", counts_ok, "m = (3*5^k-1)/2 exact")


def test_criterion_9b_sphere_distinctness():
    t0 = time.time()
    ok = all_distinct(enumerate_words(5), 5)
    _times["c9b"] = time.time() - t0
    _report("9b (exact distinctness k<=5)", ok,
            "4687 exact integer matrices over 5^5, no collision")


def test_criterion_9c_sphere_characters():
    t0 = time.time()
    theta = np.arccos(-3.0 / 5.0)
    gens = dict(zip(LETTERS, lps_generators()))
    worst = 0.0
    for ell in range(0, 11):
        char = np.sum(np.exp(1j * np.arange(-ell, ell + 1) * theta))
        for letter in ("a", "b", "c"):
            d_mat = wigner_d_matrix(ell, gens[letter])
            worst = max(worst, abs(np.trace(d_mat) - char))
    _times["c9c"] = time.time() - t0
    _report("9c (character formula l<=10)", worst <= 1e-8, f"worst dev={worst:.2e}")


def test_criterion_9d_rho_hat_threshold():
    """The Ramanujan threshold on the generator average, and its ball bound.

    Let G_l be the average of the degree-l Wigner blocks of the six LPS
    generators and T_l the average over the seven words of length <= 1.
    1. LPS: every nontrivial eigenvalue of the six-generator sum has modulus
       at most 2 sqrt(5), so rho_hat(6, L) <= 2 sqrt(5)/6 for every L.
    2. The k = 1 identity: the ball adds the identity word to the
       generators, so T_l = (I + 6 G_l)/7 in every degree l.
    3. Hence each eigenvalue of T_l is (1 + 6 mu)/7 with |mu| <= 2 sqrt(5)/6,
       and rho_hat(7, L) <= (1 + 2 sqrt(5))/7. The ball does not meet
       2 sqrt(5)/6 itself: the identity shifts the spectrum up by 1/7.
    """
    t0 = time.time()
    L = 20
    generator_threshold = 2 * np.sqrt(5) / 6
    ball_threshold = (1 + 2 * np.sqrt(5)) / 7
    gens = lps_generators()
    ball = enumerate_words(1)
    generator_value = rho_hat(gens, L).value
    ball_value = rho_hat(ball, L).value
    identity_dev = 0.0
    for ell in range(1, L + 1):
        G = hecke_block(gens, ell).matrix
        T = hecke_block(ball, ell).matrix
        expected = (np.eye(2 * ell + 1) + 6 * G) / 7
        identity_dev = max(identity_dev, float(np.max(np.abs(T - expected))))
    _times["c9d"] = time.time() - t0
    ok = (generator_value <= generator_threshold and identity_dev <= 1e-12
          and ball_value <= ball_threshold)
    _report("9d (rho_hat(7,20) threshold)", ok,
            f"generator average rho_hat(6,{L})={generator_value:.6f} <= "
            f"2 sqrt(5)/6={generator_threshold:.6f}, "
            f"|T - (I + 6G)/7|={identity_dev:.1e} <= 1e-12, "
            f"ball average rho_hat(7,{L})={ball_value:.6f} <= "
            f"(1 + 2 sqrt(5))/7={ball_threshold:.6f}")


def test_criterion_9e_ramanujan_scaling():
    t0 = time.time()
    scaled = []
    decreasing = []
    for k in (1, 2, 3, 4):
        words = enumerate_words(k)
        value = rho_hat(words, 20).value
        decreasing.append(value)
        scaled.append(value * np.sqrt(len(words)) / np.log(len(words)))
    spread = max(scaled) / min(scaled)
    mono = all(a > b for a, b in zip(decreasing, decreasing[1:]))
    _times["c9e"] = time.time() - t0
    _report("9e (Ramanujan scaling)", spread <= 3.0 and mono,
            f"rho_hat*sqrt(m)/log(m) spread={spread:.2f} <= 3, "
            f"rho_hat decreasing in k: {mono}")


def test_criterion_9f_cap_bounds():
    t0 = time.time()
    rng = np.random.default_rng(20250810)
    caps = [Cap((0, 0, 1), th) for th in (np.pi / 6, np.pi / 3, np.pi / 2)]
    ratios = []
    for k in (2, 3, 4):
        words = enumerate_words(k)
        rho = rho_hat(words, 20).value
        for _ in range(5):
            v = rng.normal(size=3)
            orb = orbit(v / np.linalg.norm(v), words)
            for cap in caps:
                measured = set_discrepancy(orb, cap)
                bound = sphere_bound(len(orb), cap, 1.0, rho).grid_min
                ratios.append(measured / bound)
    c_fit = float(max(ratios))
    covered = all(r <= c_fit + 1e-15 for r in ratios)
    elapsed = _stamp("c9f", t0)
    total9 = sum(v for k, v in _times.items() if k.startswith("c9"))
    ok = covered and np.isfinite(c_fit) and 0 < c_fit <= 1.0 and total9 < 1200.0
    _report("9f (cap discrepancy bounds)", ok,
            f"fitted c={c_fit:.4f} (<= 1: the closed-form bound dominates outright), "
            f"45 measurements covered, criterion-9 runtime={total9:.1f}s < 1200s")


def _run_twice(args, tmp_path, tag):
    """Run a CLI config twice into different files; byte-compare reports."""
    payloads = []
    for run_idx in (0, 1):
        out = tmp_path / f"{tag}-{run_idx}.json"
        extra = ["--out", str(out)]
        if "--csv-out" in args:
            idx = args.index("--csv-out")
            csv_target = tmp_path / f"{tag}-{run_idx}{args[idx + 1]}"
            args_run = args[:idx] + ["--csv-out", str(csv_target)] + args[idx + 2:]
        else:
            args_run = list(args)
            csv_target = None
        assert cli_main(args_run + extra) == EXIT_OK, f"{tag} run failed"
        body = out.read_bytes()
        if csv_target is not None and csv_target.exists():
            body += csv_target.read_bytes()
        payloads.append(body)
    return payloads[0] == payloads[1]


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    cache = str(tmp_path / "kernel-cache.json")
    ball = '{"variant":"ball","center":[0.5,0.5],"radius":0.25}'
    lattice_desc = '{"kind":"lattice","m":256,"d":2}'
    configs = {
        # fresh kernel builds (no cache): proves the build itself is deterministic
        "kernel-build": ["kernel-build"],
        "sandwich": ["sandwich", "--set", ball, "--R", "8", "--grid-n", "64",
                     "--oversample", "2", "--kernel-cache", cache],
        "bound": ["bound", "--set", ball, "--points", lattice_desc, "--R", "16",
                  "--kernel-cache", cache, "--csv-out", ".csv"],
        "lattice-scaling": ["lattice-scaling", "--set", ball, "--m", "256,1024",
                            "--kernel-cache", cache],
        "kronecker-scaling": ["kronecker-scaling", "--set", ball,
                              "--m", "65536,262144", "--kernel-cache", cache],
        "glp-search": ["glp-search", "--m", "101"],
        "polytope-family": ["polytope-family", "--m", "101",
                            "--chain-sum-R", "16,64"],
        "sphere-orbit": ["sphere-orbit", "--k", "1", "--L", "3",
                         "--cap", "0,0,1,1.0471975511965976", "--csv-out", ".csv"],
    }
    failures = [tag for tag, args in configs.items()
                if not _run_twice(args, tmp_path, tag)]
    elapsed = _stamp("c10", t0)
    _report("10 (determinism)", not failures,
            f"byte-identical reports for all {len(configs)} experiment kinds "
            f"(failures: {failures or 'none'}), runtime={elapsed:.1f}s")
