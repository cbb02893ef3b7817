"""Green-function growth series on finitely generated groups.

Sphere-summed Green series H_r(n), growth rates omega(r), phase
transitions for products of trees, free-product Green transfer, and
branching-random-walk experiments, with certified truncation tails.
"""

from .groups import (
    BudgetExceededError, DiestelLeader, Element, FreeAbelian, FreeGroup,
    FreeProduct, Group, GroupSpec, Heisenberg3, RegularTree, TreeProduct,
    dl_class_count, dl_sphere_count, dl_sphere_profiles, group_for,
    tree_level_sphere_count,
)
from .kernels import (
    FirstReturnKernel, GreenEstimate, Measure, first_return_coefficients,
    first_return_kernel, green_truncated, return_probability,
    spectral_radius_lower, standard_measure,
)
from .trees import (
    TreeClosedForm, bw_calibration, bw_green_shape, lamplighter_h1_model,
    tree_closed_form, tree_green, tree_omega, tree_sphere_green_sum,
)
from .bitree import (
    PhaseParams, PhaseReport, capital_R, classify, f_sum_log, find_lambda0,
    hn_model_log, model_window, prefactor_exponent, psi, psi_prime,
    solve_t0, solve_t1t2,
)
from .growth import (
    DrDistance, GapReport, GrowthSeries, HEntry, OmegaEstimate,
    convergence_diagnostic, dr_distance, h_series, omega_estimate,
    parabolic_gap_report, sphere_reduced_sweep, theta_partial,
)
from .freeprod import (
    ConstructionReport, ScanPoint, TransferPoint, induced_omega_P,
    scan_construction, transfer, transfer_consistency,
)
from .brw import (
    BrwConfig, CosetReport, TraceSummary, coset_hits, mean_offspring,
    offspring_law, simulate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
