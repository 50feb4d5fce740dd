"""Geometric control workbench: flows, high-order variations, perturbation
cones and constraint ladders for control-affine systems."""

__version__ = "0.1.0"

from .expr import (
    Dual,
    ExprSyntaxError,
    UnknownIdentifierError,
    differentiate,
    evaluate,
    parse_expression,
    render,
)
from .fields import (
    Covector,
    DivergenceError,
    Point,
    TangentVector,
    VectorField,
    as_point,
    composite_flow,
    eval_vector_field,
    lie_bracket,
    vector_field,
)
from .variations import (
    KAPPA,
    PerturbationVector,
    bracket_variation,
    estimate_jets,
    needle_variation,
    order_and_vector,
    residual_slope,
    sample_perturbation_set,
    variation_curve,
)
from .cone import (
    Cone,
    SupportReport,
    assemble_cone,
    find_supporting_covector,
    is_supporting,
)
from .ocp import (
    Biextremal,
    ControlAffineSystem,
    ControlSchedule,
    ExtendedSystem,
    Trajectory,
    audit_necessary_conditions,
    build_control_affine,
    classify_extremal,
    expression_schedule,
    extend_system,
    hamiltonian,
    integrate_biextremal,
    integrate_trajectory,
    piecewise_schedule,
    search_normal_lift,
    transport_vector,
)
from .pca import (
    ConstraintLadder,
    abnormal_verdict,
    annihilator_at,
    ladder_pairings,
    ladder_step,
    primary_constraints,
    run_algorithm,
)
from .mech import (
    ConnectionSpec,
    build_acc_system,
    connection_spec,
    generator_families,
    spray_from_christoffel,
    vertical_lift,
)
