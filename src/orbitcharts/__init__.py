"""Exact rational charts on adjoint orbits of classical matrix Lie algebras."""

from .charts import (
    NotSemisimpleError,
    OrbitChart,
    build_chart,
    chart_from_json,
    chart_mixed,
    chart_nilpotent,
    chart_semisimple,
    chart_to_json,
    eval_chart,
    exp_nilpotent,
)
from .grading import (
    Grading,
    NonIntegerSpectrumError,
    ParabolicData,
    WitnessNotFoundError,
    grading_by,
    parabolic_data,
    semisimple_for_levi,
)
from .jordan import JordanPair, jordan_decompose
from .liealg import (
    LieAlgebra,
    LieElement,
    NotInAlgebraError,
    ad_matrix,
    build_classical,
    center_basis,
    centralizer_basis,
    trace_form_gram,
)
from .linalg import (
    NotNilpotentError,
    Polynomial,
    RatMatrix,
    char_poly,
    det,
    integer_roots,
    kernel_basis,
    rank,
    squarefree_part,
)
from .sl2 import NoTripleFoundError, Sl2Triple, jacobson_morozov
from .verify import (
    OrbitClassId,
    VerificationReport,
    ZeroSemisimplePartError,
    check_centralizer_reductive,
    hamiltonian_class,
    invariants,
    jacobian_rank_at,
    kostant_rep,
    redstab_suite,
    verify_chart,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
