"""Numerical geometry of Sasaki pseudo-metrics on tangent and sphere bundles.

The package builds, over a pseudo-Riemannian base chart (M, g):

* the tangent bundle TM with its Sasaki pseudo-metric, lifts, brackets,
  Levi-Civita connection and almost complex structure J;
* the tangent (pseudo-)sphere bundle T_eps M = {g(u, u) = eps} with its
  induced metric, connection and curvature in closed form;
* the contact pseudo-metric structure (phi, xi, eta, g_cm) of T_eps M,
  the operator h, and checkers for the (kappa, mu)-nullity, K-contact,
  Sasakian and phi-sectional classification statements;
* an independent finite-difference oracle layer (Koszul symbols, coordinate
  curvature, Lie brackets/derivatives, exterior derivatives, hypersurface
  pullback and the Gauss equation) certifying every closed formula.

The ``verify`` command line runs named suites and emits JSON/text reports.
"""

from .contact import (
    ContactData,
    KappaMu,
    check_contact_axioms,
    contact_data_at,
    h_at,
    k_contact_residual,
    kappa_mu_for_space_form,
    kappa_mu_residual,
    nabla_phi,
    nabla_xi,
    phi_sectional,
    psi_u_quadratics,
    sasakian_residual,
)
from .manifold import (
    ChartedMetric,
    SpaceFormSpec,
    christoffel_at,
    metric_at,
    riemann_at,
    sectional_curvature,
    signature_at,
    space_form_chart,
    validate_space_form,
)
from .oracle import (
    GaussOracle,
    HypersurfaceChart,
    fd_christoffel,
    fd_exterior_derivative,
    fd_lie_bracket,
    fd_lie_derivative_metric,
    fd_nijenhuis,
    fd_riemann,
    gauss_curvature_oracle,
    hypersurface_pullback,
)
from .report import CheckItem, CheckReport, emit_report
from .sphere import (
    SBFrame,
    SBPoint,
    SBVec,
    frame_at,
    induced_metric_at,
    sb_bracket,
    sb_curvature,
    sb_nabla,
    sb_point,
    tangential_lift,
)
from .suites import SuiteConfig, run_suite
from .tangent import (
    TMPoint,
    TMVec,
    almost_complex_J,
    from_induced_coords,
    lift_bracket,
    sasaki_metric_at,
    tm_nabla,
    to_induced_coords,
)

__all__ = [
    "ChartedMetric",
    "CheckItem",
    "CheckReport",
    "ContactData",
    "GaussOracle",
    "HypersurfaceChart",
    "KappaMu",
    "SBFrame",
    "SBPoint",
    "SBVec",
    "SpaceFormSpec",
    "SuiteConfig",
    "TMPoint",
    "TMVec",
    "almost_complex_J",
    "check_contact_axioms",
    "christoffel_at",
    "contact_data_at",
    "emit_report",
    "fd_christoffel",
    "fd_exterior_derivative",
    "fd_lie_bracket",
    "fd_lie_derivative_metric",
    "fd_nijenhuis",
    "fd_riemann",
    "frame_at",
    "from_induced_coords",
    "gauss_curvature_oracle",
    "h_at",
    "hypersurface_pullback",
    "induced_metric_at",
    "k_contact_residual",
    "kappa_mu_for_space_form",
    "kappa_mu_residual",
    "lift_bracket",
    "metric_at",
    "nabla_phi",
    "nabla_xi",
    "phi_sectional",
    "psi_u_quadratics",
    "riemann_at",
    "run_suite",
    "sasaki_metric_at",
    "sasakian_residual",
    "sb_bracket",
    "sb_curvature",
    "sb_nabla",
    "sb_point",
    "sectional_curvature",
    "signature_at",
    "space_form_chart",
    "tangential_lift",
    "tm_nabla",
    "to_induced_coords",
    "validate_space_form",
]

__version__ = "0.1.0"
