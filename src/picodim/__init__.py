"""Exact-arithmetic polynomial-identity invariants of Lie algebras."""

from .errors import (
    BudgetExceededError,
    HypothesisFailure,
    InternalInvariantError,
    JacobiError,
    MalformedInputError,
    NotSemisimpleError,
    NotSplitError,
)
from .evaluation import (
    CodimEngine,
    CocharacterTable,
    SampledMode,
    evaluate,
)
from .exponent import (
    ExponentReport,
    GrowthReport,
    LowerWitness,
    QPolySpec,
    UpperVerdict,
    find_lower_witness,
    growth_report,
    height_spans,
    pi_exponent_candidate,
    verify_upper,
)
from .freelie import (
    AltSpec,
    MultilinearPolynomial,
    alternate,
    basis_Pn,
    permute,
    rewrite,
)
from .liealg import (
    CATALOG_NAMES,
    LieAlgebra,
    StructureReport,
    analyze,
    catalog_algebra,
    change_basis,
    from_json_dict,
    killing_form,
    radical,
    simple_decomposition,
    to_json_dict,
    validate,
)
from .linalg import Subspace, rank, span_add
from .symgroup import (
    GroupAlgebraElement,
    Partition,
    YoungTableau,
    act,
    hook_dim,
    partitions,
    symmetrizer,
)

__version__ = "0.1.0"
