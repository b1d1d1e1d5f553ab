"""Exact computer algebra for a deformed Minkowski coordinate algebra,
its symmetry action, and locality structures (coverings, partitions of
unity, glued derivations, forms, connections) on finite star-algebras.
"""

from nctangent.scalars import Matrix, Scalar, Subspace
from nctangent.minkowski import (
    PBWElement,
    PoincareGenerator,
    act_poincare,
    antipode,
    coproduct,
    counit,
    hopf_axiom_check,
    integral_star_oracle,
    module_law_sides,
)
from nctangent.algebras import StarAlgebra, center, characters, derivations
from nctangent.covering import Covering, ideal_from_declaration, verify_covering
from nctangent.partition import (
    Partition,
    functional,
    product_partition,
    reconstruction_check,
    verify_adapted,
    verify_partition,
)
from nctangent.tangent import (
    ActionAssignment,
    GlobalDerivation,
    LocalDerivation,
    bracket,
    canonical_inner_model,
    decompose,
    glue,
)
from nctangent.forms import (
    DerivationBasis,
    FormN,
    glued_basis,
    kappa_basis,
    koszul_d,
    wedge,
)
from nctangent.connection import (
    ConnectionCoefficients,
    curvature_components,
    curvature_cross_check,
    curvature_operator,
    nabla,
)

__all__ = [
    "ActionAssignment",
    "ConnectionCoefficients",
    "Covering",
    "DerivationBasis",
    "FormN",
    "GlobalDerivation",
    "LocalDerivation",
    "Matrix",
    "PBWElement",
    "Partition",
    "PoincareGenerator",
    "Scalar",
    "StarAlgebra",
    "Subspace",
    "act_poincare",
    "antipode",
    "bracket",
    "canonical_inner_model",
    "center",
    "characters",
    "coproduct",
    "counit",
    "curvature_components",
    "curvature_cross_check",
    "curvature_operator",
    "decompose",
    "derivations",
    "functional",
    "glue",
    "glued_basis",
    "hopf_axiom_check",
    "ideal_from_declaration",
    "integral_star_oracle",
    "kappa_basis",
    "koszul_d",
    "module_law_sides",
    "nabla",
    "product_partition",
    "reconstruction_check",
    "verify_adapted",
    "verify_covering",
    "verify_partition",
    "wedge",
]
