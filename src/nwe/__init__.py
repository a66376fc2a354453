"""Locally indistinguishable orthogonal product states: construction and
exact certification that every orthogonality-preserving local measurement
must be proportional to the identity."""

from .constructions import (
    ConstructionError,
    EqualDims,
    GeneralDims,
    SizeReport,
    expected_size,
    gen_equal,
    gen_general,
    prior_sizes,
)
from .inference import (
    Certificate,
    DiagonalEqualFact,
    EntryRef,
    PairConstraint,
    PartyConclusion,
    ZeroEntryFact,
    derive_certificate,
    lemma1_zero,
    lemma2_diagonal,
    pair_constraint,
    render_certificate,
    render_fact,
)
from .serialize import (
    FORMAT_VERSION,
    DocumentError,
    dumps_canonical,
    load_state_set,
    save_state_set,
    state_set_from_document,
    state_set_to_document,
)
from .states import (
    DimensionError,
    LocalVector,
    NonOrthogonalSetError,
    ProductState,
    StateSet,
    SystemShape,
    are_orthogonal,
    basis_ket,
    check_pairwise_orthogonality,
    diff_ket,
    dim_cap,
    find_stopper,
    flat_ket,
    inner_factors,
    local_inner,
    stopper,
)
from .verifier import (
    HermitianMatrix,
    InvariantError,
    MeasurementConstraintSystem,
    TrivialityVerdict,
    anti_index,
    assemble,
    certified_nonlocal,
    coords_to_matrix,
    identity_coords,
    matrix_to_coords,
    nullspace,
    rank,
    sym_index,
    verdict,
    verify_all,
)

__version__ = "0.1.0"
