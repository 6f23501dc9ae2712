"""Generalized Erdos-Turan discrepancy bounds on the torus.

Main assembly: for a torus set, a point multiset and a cutoff R,

    |mu(Omega) - m^-1 sum_j chi(x_j)|
        <= |H_R-hat(0)| + sum_{0 < |k| < R} (|chi-hat(k)| + |H_R-hat(k)|) Psi(k)

with Psi the Weyl spectrum. Magnitudes are used exactly as the inequality is
stated (no complex cancellation). Coefficient quadrature errors inflate a
reported uncertainty, never silently. The terms where Psi vanishes are
zero, so chi-hat and H_R-hat are read only where it does not, and a bound
that builds its own H-table sizes it to Psi's support: a full lattice's Psi
vanishes on all of 0 < |k| < R at the lattice rule, and its table holds
H_R-hat(0) alone. The polyhedra-family variant replaces the set
coefficients by the chain functional Phi.

R selection rules: the full-lattice rule R = m^(1/(d+beta-alpha)) and the
Kronecker rule with its logarithmic correction, plus a grid search that never
returns a worse bound than the formula value (the formula candidate is always
included; the power-of-two grid stops at `R_SEARCH_CAP` = 512, since
coefficient tables at R = 4096 are out of desk-scale memory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TorusSet
from .hfourier import HCoefficientTable, h_coefficient_table
from .kernel import KernelTable
from .pointsets import PointSet, WeylSpectrum, true_discrepancy, weyl_spectrum

# grid oversampling of the H-tables the bound builds for itself
H_OVERSAMPLE = 2
# largest power-of-two R that `et_bound_r_search` tries
R_SEARCH_CAP = 512


@dataclass(frozen=True)
class DiscrepancyReport:
    """One bound evaluation with its breakdown and the exact discrepancy."""

    set_descriptor: dict
    points_descriptor: dict
    R: float
    bound: float
    zero_term: float          # |H_R-hat(0)|
    sum_term: float           # sum (|chi-hat| + |H-hat|) Psi
    uncertainty: float
    true_discrepancy: float | None

    @property
    def valid(self) -> bool | None:
        if self.true_discrepancy is None:
            return None
        return self.bound + self.uncertainty >= self.true_discrepancy

    def to_json(self) -> dict:
        return {
            "set": self.set_descriptor,
            "points": self.points_descriptor,
            "R": self.R,
            "bound": self.bound,
            "zero_term": self.zero_term,
            "sum_term": self.sum_term,
            "uncertainty": self.uncertainty,
            "true_discrepancy": self.true_discrepancy,
            "valid": self.valid,
        }


def et_bound(set_: TorusSet, points: PointSet, kernel: KernelTable, R: float, *,
             h_table: HCoefficientTable | None = None,
             spectrum: WeylSpectrum | None = None) -> DiscrepancyReport:
    """Assemble the discrepancy bound at cutoff R and attach the true value."""
    if R < 4:
        raise ValueError("R must be >= 4")
    if spectrum is None:
        spectrum = weyl_spectrum(points, R)
    elif spectrum.R < R:
        raise ValueError("spectrum does not cover |k| < R")
    else:
        spectrum = spectrum.restrict(R)

    # chi-hat and H_R-hat are read only where Psi is nonzero; the other terms
    # stay zero, so every sum runs over the whole spectrum in its order
    support = spectrum.values != 0
    freqs = spectrum.freqs[support]
    if h_table is None:
        kmax = int(np.abs(freqs).max(initial=0))
        h_table = h_coefficient_table(set_, kernel, R, oversample=H_OVERSAMPLE, kmax=kmax)
    chi, h_vals, h_errs = np.zeros((3, len(support)))
    chi[support] = np.abs(set_.fourier_coefficients(freqs))
    h_vals[support] = np.abs(h_table.values(freqs))
    h_errs[support] = h_table.errors(freqs)

    zero_term = abs(h_table.zero)
    sum_term = float(np.sum((chi + h_vals) * spectrum.values))
    uncertainty = float(h_table.zero_error + np.sum(h_errs * spectrum.values)
                        + 1e-14 * (1.0 + np.sum(chi * spectrum.values)))

    return DiscrepancyReport(
        set_descriptor=set_.to_json(),
        points_descriptor=points.descriptor,
        R=float(R),
        bound=zero_term + sum_term,
        zero_term=zero_term,
        sum_term=sum_term,
        uncertainty=uncertainty,
        true_discrepancy=true_discrepancy(points, set_),
    )


# ---------------------------------------------------------------------------
# R selection
# ---------------------------------------------------------------------------

def optimal_R(rule: str, m: int, d: int, alpha: float, beta: float, *,
              eps: float = 0.1) -> float:
    """Closed-form cutoff: the lattice rule m^(1/(d+beta-alpha)); the
    Kronecker rule adds the log(m)^(-(d+1+eps)/(d+beta-alpha)) correction."""
    denom = d + beta - alpha
    if denom <= 0:
        raise ValueError(f"d + beta - alpha = {denom} must be positive")
    base = m ** (1.0 / denom)
    if rule == "lattice":
        return float(base)
    if rule == "kronecker":
        if m < 2:   # log m = 0: the correction has no finite value
            return float("inf")
        return float(base * np.log(m) ** (-(d + 1 + eps) / denom))
    raise ValueError(f"unknown R rule {rule!r}")


def r_search_candidates(formula_R: float | None) -> list:
    """The R values `et_bound_r_search` tries: the powers of two from 4 to
    R_SEARCH_CAP, then formula_R when it is at least 4 and not among them."""
    candidates = [float(2 ** j) for j in range(2, 13) if 2 ** j <= R_SEARCH_CAP]
    if formula_R is not None and formula_R >= 4 and float(formula_R) not in candidates:
        candidates.append(float(formula_R))
    return candidates


def et_bound_r_search(set_: TorusSet, points: PointSet, kernel: KernelTable, candidates: list
                      ) -> tuple[DiscrepancyReport, list, HCoefficientTable, WeylSpectrum]:
    """Minimize the bound over the cutoffs `candidates`: `r_search_candidates`
    for a grid search, or one fixed R.

    Returns (best report, [(R, bound), ...] table, the best R's H-table and
    Weyl spectrum). One spectrum at the largest candidate is restricted to
    each R. Over `r_search_candidates(formula_R)` it often beats the formula
    constant and is never worse, because the formula candidate participates.
    """
    spectrum = weyl_spectrum(points, max(candidates))
    table = []
    best = best_h = None
    for R in candidates:
        h_table = h_coefficient_table(set_, kernel, R, oversample=H_OVERSAMPLE)
        rep = et_bound(set_, points, kernel, R, h_table=h_table, spectrum=spectrum)
        table.append((R, rep.bound))
        if best is None or rep.bound < best.bound:
            best, best_h = rep, h_table
    return best, table, best_h, spectrum.restrict(best.R)


# ---------------------------------------------------------------------------
# polyhedra family bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolytopeFamilyBound:
    """R^-1 + sum Phi(k) Psi(k): family bound up to the dimensional constant.

    The unspecified constant is a calibration output (fit it against true
    discrepancies), never baked in.
    """

    R: float
    value: float
    r_term: float
    sum_term: float


def polytope_family_bound(phis: np.ndarray, spectrum: WeylSpectrum) -> PolytopeFamilyBound:
    """The family bound at the spectrum's cutoff R, from `phis`, the values of
    Phi at the spectrum's frequencies in their order; ValueError unless there
    is one value per frequency."""
    phis = np.asarray(phis, dtype=float)
    if phis.shape != spectrum.values.shape:
        raise ValueError(f"{phis.shape} Phi values do not cover {len(spectrum.freqs)} frequencies")
    R = spectrum.R
    sum_term = float(np.sum(np.sort(phis * spectrum.values)))
    return PolytopeFamilyBound(R=float(R), value=1.0 / R + sum_term,
                               r_term=1.0 / R, sum_term=sum_term)
