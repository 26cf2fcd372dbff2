"""Exact spectral-torsion densities for perturbed Dirac-type operators.

Public surface: the exact scalar kernel, the Clifford algebra, multilinear
forms, sphere moments, the interior symbol engine, the half-line boundary
calculus, and the top-level evaluation plus identity-verification API.  Every
value below the report layer is exact: traces are Gaussian rationals, sphere
moments rationals in units of vol(S^(n-1)) and line integrals Gaussian
rationals in units of pi; the densities attach their symbolic atoms once.
"""

from .scalars import (
    DIM_F,
    GaussianRational,
    MissingAtom,
    PI,
    Rational,
    SymScalar,
    TR_F_PHI,
    rational,
    sym,
    vol_sphere,
)
from .clifford import (
    DimensionMismatch,
    Multivector,
    OddDimension,
    grading,
    mv_mul,
    scalar_product,
    supertrace,
    trace,
)
from .forms import (
    OneForm,
    ThreeForm,
    eval_threeform,
    frame_product,
    metric_pair,
    to_clifford,
)
from .moments import (
    XiPolynomialMV,
    integrate_sphere,
    moment,
    vol_numeric,
    xi_monomial,
)
from .symbols import (
    Grading,
    PerturbationCase,
    TorsionGrading,
    TorsionVector,
    VectorGrading,
    interior_density,
    sigma_minus2m,
)
from .halfline import (
    NonIntegrable,
    Poly,
    XiRational,
    boundary_density,
    dxn_symbol,
    line_integral,
    pi_plus,
    residue_derivative,
)
from .torsion import (
    ManifoldSpec,
    TorsionReport,
    UnsupportedDimension,
    normal_trace_combination,
    spectral_torsion,
    theorem_boundary_value,
    theorem_value,
)
from .verify import FINAL_IDS, IDENTITY_IDS, IdentityComparison, verify_suite
