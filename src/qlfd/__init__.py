"""Quiver representation spaces, semi-invariants, and linear free divisor
certification."""

from .arith import DEFAULT_PRIME, PrimeField, Rng, derive_seed
from .certify import (
    DEFAULT_SEED,
    CertifyError,
    CertifyOptions,
    LfdReport,
    certify,
    discriminant_degree,
    line_certificate,
    multiplicity_vector,
    verify_factorization,
)
from .qfile import parse, serialize
from .quiver import (
    Quiver,
    build_quiver,
    cartan_matrix,
    classify_underlying_graph,
    euler_form,
    euler_inverse,
    euler_matrix,
    in_out_degree,
    opposite_quiver,
    support_subquiver,
    tits_form,
)
from .repmatrix import (
    Representation,
    action_matrix,
    defect_matrix,
    hom_ext_dims,
    random_representation,
)
from .roots import (
    SchurCertificate,
    brick_probe,
    highest_root,
    is_real_root,
    orthogonal_roots,
    perpendicular_simples,
    positive_roots,
)
from .semiinv import (
    BlockHandle,
    BlockRecipe,
    SchofieldHandle,
    discriminant_weight,
    sample_generic_witness,
    weight_degree,
    weight_of_schofield,
    weight_support_type,
)

__version__ = "0.1.0"
