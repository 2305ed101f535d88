"""Exact-arithmetic computations with non-abelian extensions of associative
algebras: Hochschild cochains, the Gerstenhaber bracket, Maurer-Cartan
elements, gauge equivalence, and brute-force classification over prime
fields."""

from .algebra import Algebra, SplitSpace, direct_sum_space
from .classify import (
    BudgetExceededError,
    CandidateSpace,
    ClassificationReport,
    Orbit,
    census,
    enumerate_cocycles,
    orbit_partition,
)
from .cochains import (
    MultilinearMap,
    circ,
    circ_i,
    delta_as_bracket,
    gerstenhaber_bracket,
    hochschild_delta,
    hochschild_delta_module,
    multiplication_map,
)
from .exact_sequences import (
    BrokenExtensionError,
    ExtensionPresentation,
    Section,
    canonical_section,
    check_extension_equivalence,
    cocycle_from_section,
    enumerate_sections,
    section_cocycle,
    section_difference,
    theta_from_gauge,
    verify_extension,
)
from .fields import GF2, GF3, QQ, Field, FieldError, PrimeField, Rationals, Scalar
from .nonabelian import (
    AbelianStructure,
    CocycleViolation,
    CrossCheckError,
    GaugeParam,
    NabCocycle,
    ViolationKind,
    abelian_specialize,
    all_gauge_params,
    apply_equivalence,
    associator_residual,
    beta_element,
    build_extension,
    check_cocycle,
    cocycle_from_mc,
    cocycle_residuals,
    cocycle_to_mc,
    derivation_condition_defect,
    gauge_closed_form,
    gauge_series,
    is_mc,
    is_valid_cocycle,
    mc_context,
    mc_residual,
    module_coboundary,
)
from .splitspace import MembershipError, embed_block_map, in_L, project_block_map

__version__ = "0.1.0"
