"""fibrecheck: exact openness and flatness checking for affine morphisms.

Decides whether Spec A -> Spec R (R a polynomial ring over Q or F_p, A a
finitely presented R-algebra) is open, and whether A or a finitely presented
A-module is R-flat, by detecting vertical components and R-torsion in the
fibred (tensor) powers up to the base dimension.  Failures come with
independently re-checked witnesses.
"""

__version__ = "0.1.0"

from .fields import QQ, PrimeField, RationalField
from .groebner import (
    ComputeBudget,
    Ideal,
    ModulePresentation,
    ResourceLimitError,
    buchberger,
    module_buchberger,
    module_normal_form,
    normal_form,
    s_polynomial,
)
from .idealops import (
    DimensionReport,
    contract_to_base,
    fibre_dim,
    krull_dim,
    module_saturate,
    quotient,
    radical_member,
    saturate,
)
from .poly import (
    LayoutMismatchError,
    MonomialOrder,
    Polynomial,
    RingLayout,
    base_leading_coefficient,
    default_order,
    integer_normalized,
    relabel,
    render_poly,
    substitute_base_point,
    transport,
)
from .power import ModuleSpec, Problem, fibred_power_ideal, tensor_power_presentation
from .verticality import (
    CharacteristicGuardError,
    CheckConfig,
    Verdict,
    WitnessSoundnessError,
    check_flatness,
    check_openness,
    dominant_part,
    generic_denominator,
    has_torsion_ideal,
    has_torsion_module,
    has_vertical_component,
    squarefree_part,
    vertical_witness,
)
