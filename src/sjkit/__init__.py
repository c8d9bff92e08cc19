"""Numerics for the Jacobi group on the Siegel-Jacobi space and disk.

Group laws and actions, the partial Cayley transform connecting the bounded
and unbounded models, Harish-Chandra components, invariant metrics and
Laplacians, canonical automorphic factors, and seeded verification suites
that certify the identities numerically.
"""

from .numkit import (
    ConditioningError,
    ConsistencyError,
    DimensionError,
    DomainError,
    SjkError,
    bracket,
    rel_error,
)
from .groups import (
    ComplexHeisenbergElement,
    GStarElement,
    GStarJacobiElement,
    HeisenbergElement,
    JacobiElement,
    SymplecticMatrix,
    conjugate_by_T,
    embed_sp_gph,
    gstarj_inv,
    gstarj_mul,
    heisenberg_mul,
    jacobi_inv,
    jacobi_mul,
    sample_element,
    theta,
    tstar_agreement_residual,
)
from .spaces import (
    DiskJacobiPoint,
    DiskPoint,
    SiegelJacobiPoint,
    SiegelPoint,
    act_disk,
    act_jacobi,
    act_jacobi_disk,
    act_siegel,
    cayley,
    cayley_inv,
    check_compatibility,
    partial_cayley,
    partial_cayley_inv,
    sample_point,
)
from .decomp import (
    HCFactors,
    JacobiHCFactors,
    decompose_full,
    hc_decompose_gstar,
    kc_component,
    pminus_component,
)
from .geometry import (
    MetricParams,
    ScalarField,
    TEST_FIELDS,
    TangentVector,
    laplacian_disk,
    laplacian_sj,
    laplacian_siegel,
    metric_disk,
    metric_sj,
    metric_siegel,
    pullback_metric_disk,
    pushforward,
    sample_tangent,
    volume_density,
)
from .automorphy import (
    IndexMatrix,
    Representation,
    chi_character,
    j_factor,
    rho_eval,
    verify_cocycle,
)
from .suites import SUITES, VerifyReport, run_all, run_suite

__version__ = "0.1.0"
