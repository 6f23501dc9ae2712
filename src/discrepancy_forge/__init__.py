"""Majorant/minorant kernels and generalized Erdos-Turan discrepancy bounds.

Modules: `kernel` (radial kernel tables, tail integral, decay profile),
`geometry` (torus set models), `chains` (subspace chain systems, the chain
functional and its ball sums), `hfourier` (boundary-layer coefficient tables),
`pointsets` (lattice/Kronecker/Korobov families, Weyl spectra, discrepancy),
`majorant` (sandwich polynomials), `erdos_turan` (bound assembly and R
rules), `glp` (good-lattice-point search), `sphere` (rotation orbits and
Hecke blocks), `cli` (batch experiments).

On the torus, the Minkowski content M(alpha, Omega) and the decay constant
F(alpha, beta, Omega) are hypotheses of the construction that no report
uses; the test suite cross-checks them against its own oracles. (The
sphere report computes the Minkowski content of its caps.)
"""

__version__ = "0.1.0"

from .chains import ChainSystem, chain_sum, phi  # noqa: F401
from .erdos_turan import (  # noqa: F401
    DiscrepancyReport,
    et_bound,
    et_bound_r_search,
    optimal_R,
    polytope_family_bound,
)
from .errors import (  # noqa: F401
    ConfigError,
    InvariantViolation,
    QuadratureError,
    ResonanceError,
)
from .frequencies import integer_ball  # noqa: F401
from .geometry import (  # noqa: F401
    Ball,
    Box,
    ConvexPolytope,
    TorusSet,
    set_from_json,
)
from .glp import GlpCertificate, PhiBall, congruence_sum, search  # noqa: F401
from .hfourier import HCoefficientTable, h_coefficient_table  # noqa: F401
from .kernel import (  # noqa: F401
    BumpProfile,
    KernelTable,
    build_bump,
    build_kernel_table,
    load_kernel,
    psi,
    save_kernel,
)
from .majorant import (  # noqa: F401
    MajorantPair,
    SandwichReport,
    TrigPolynomial,
    majorant_pair,
    sandwich_grids,
    sandwich_report,
)
from .pointsets import (  # noqa: F401
    PointSet,
    WeylSpectrum,
    korobov,
    kronecker,
    lattice,
    schmidt_sum,
    true_discrepancy,
    weyl_spectrum,
)
from .sphere import (  # noqa: F401
    Cap,
    HarmonicBlock,
    ball_rho_hat,
    enumerate_words,
    hecke_block,
    lps_generators,
    orbit,
    rho_hat,
    set_discrepancy,
    sphere_bound,
)
