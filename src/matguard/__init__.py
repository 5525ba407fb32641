"""Guardian maps for Hurwitz stability via matrix representations.

The package builds the four classical "guardian representations" of a
real square matrix -- the Kronecker sum, the 2-additive compound, the
degree-2 lower Schlaflian, and the bialternate sum -- whose determinants
vanish exactly on the boundary of the Hurwitz stability region.  On top
of those it provides boundary classification with overflow-safe signed
log-determinants, one-parameter stability sweeps with bisection
refinement, and seeded randomized self-verification of the underlying
identities.
"""

from .bialternate import bialternate_sum_self, pair_list, verify_bialt_equals_add2
from .compound import add_compound, cauchy_binet_residual, mult_compound
from .core import (
    GuardianValue,
    Stability,
    det_signed_log,
    expm,
    is_hurwitz,
    match_spectra,
    spectrum,
)
from .gallery import hurwitz_matrix, imaginary_pair_matrix, well_conditioned_matrix
from .io import (
    MatrixIOError,
    dumps_canonical,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix_csv,
    save_matrix_json,
)
from .kron import kron_sum_self
from .ode import (
    check_skew_basis_columns,
    check_skew_reduction,
    check_symmetric_reduction,
    extract_v,
    extract_w,
    matrix_ode_closed_form,
    matrix_ode_rk4,
    skew_basis_element,
    skew_from_v,
    sym_from_w,
)
from .representations import (
    GuardianMapKind,
    GuardianReport,
    Verdict,
    apply_rho,
    contragradient,
    guardian_evaluate,
    lie_bracket,
)
from .schlaflian import MonomialBasis, lower_schlaflian, s_p_eval, upper_schlaflian
from .sweep import Crossing, ParamFamily, SweepResult, SweepSample, refine_crossing
from .verify import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "Crossing",
    "GuardianMapKind",
    "GuardianReport",
    "GuardianValue",
    "MatrixIOError",
    "MonomialBasis",
    "ParamFamily",
    "SUITES",
    "Stability",
    "SweepResult",
    "SweepSample",
    "Verdict",
    "add_compound",
    "apply_rho",
    "bialternate_sum_self",
    "cauchy_binet_residual",
    "check_skew_basis_columns",
    "check_skew_reduction",
    "check_symmetric_reduction",
    "contragradient",
    "det_signed_log",
    "dumps_canonical",
    "expm",
    "extract_v",
    "extract_w",
    "guardian_evaluate",
    "hurwitz_matrix",
    "imaginary_pair_matrix",
    "is_hurwitz",
    "kron_sum_self",
    "lie_bracket",
    "load_matrix",
    "lower_schlaflian",
    "match_spectra",
    "matrix_from_obj",
    "matrix_ode_closed_form",
    "matrix_ode_rk4",
    "matrix_to_obj",
    "mult_compound",
    "pair_list",
    "refine_crossing",
    "run_suite",
    "s_p_eval",
    "save_matrix_csv",
    "save_matrix_json",
    "skew_basis_element",
    "skew_from_v",
    "spectrum",
    "sym_from_w",
    "upper_schlaflian",
    "verify_bialt_equals_add2",
    "well_conditioned_matrix",
]
