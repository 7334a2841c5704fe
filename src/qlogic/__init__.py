"""Workbench for finite quantum-logic structures.

Validates effect-algebra and orthoalgebra axioms, decides Boolean-ness,
searches exhaustively for cloning bimorphisms, enumerates state spaces over
exact rationals, and builds hidden-variable MV models.
"""

__version__ = "0.1.0"

from .algebra import (  # noqa: F401
    AlgebraError,
    FiniteEffectAlgebra,
    MalformedTable,
    ValidationError,
    atoms,
    derive_order,
    find_isomorphism,
    from_json,
    is_archimedean,
    is_atomic,
    is_boolean,
    is_orthoalgebra,
    is_sharp,
    isotropic_index,
    join,
    meet,
    sharp_elements,
    structure_report,
    validate,
)
from .cloning import (  # noqa: F401
    CloningWitness,
    SearchOutcome,
    check_witness_lemmas,
    compatibility_core,
    find_cloning_bimorphism,
    meet_witness,
    verify_witness,
)
from .mv import (  # noqa: F401
    FiniteMV,
    check_mv_axioms,
    effect_algebra_of_mv,
    find_chain_decomposition,
    hidden_variable_construct,
    verify_hidden_variable,
)
from .states import (  # noqa: F401
    EmptyStateSpace,
    StateCarrierTooLarge,
    StatePolytope,
    enumerate_vertex_states,
    is_separating,
)
