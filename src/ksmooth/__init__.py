"""Exact smoothness orders, norm attainment and Birkhoff-James
orthogonality for linear operators between polyhedral normed spaces."""

from .errors import (
    InternalInconsistencyError,
    KsmoothError,
    ValidationError,
)
from .linalg import (
    Matrix,
    Vector,
    greedy_independent_subset,
    nullspace,
    rank,
    solve,
)
from .operators import (
    AttainmentSet,
    LinearOperator,
    SmoothnessReport,
    construct_face_operator,
    face_operator_and_order,
    index_of_smoothness,
    operator_norm_and_attainment,
    oracle_order_of_smoothness,
    order_of_smoothness,
    paper_example_operator,
    rank1_admissible_orders,
    rank1_forbidden_primes,
)
from .orthogonality import (
    BJVerdict,
    Subspace,
    Witness,
    bj_subspace_subspace,
    bj_subspace_vector,
    bj_vector_subspace,
    bj_vector_vector,
    is_best_coapproximation,
    is_strong_auerbach,
)
from .polytope import (
    FaceDescriptor,
    Polytope,
    canonicalize,
    count_faces,
    enumerate_faces,
    minimal_face,
)
from .scalars import FieldTag, QuadScalar, Scalar, parse, serialize, sign
from .spaces import (
    PolyhedralSpace,
    SupportSet,
    ell1,
    ellinf,
    from_vertices,
    norm,
    normalized,
    paper_example_space,
    point_smoothness,
    product_space,
    random_space,
    support_set,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
