"""Equidistribution mod 1, hitting patterns, and obstruction sets for dilates."""

__version__ = "0.1.0"

from .torus import (
    BudgetError,
    DiscrepancyReport,
    TorusInterval,
    erdos_turan_bound,
    exact_discrepancy,
    grid_discrepancy,
    max_circular_gap,
    weyl_sum,
)
from .patterns import (
    CalibrationResult,
    HittingReport,
    NetSpec,
    Pattern,
    PolySeqSpec,
    bertrand_prime,
    build_nets,
    calibrate_sampled,
    elementary_pattern,
    find_hitter,
    is_prime_64,
    pattern_gap,
    scale_for_budget,
    thin_pattern,
    verify_hitting_net,
    verify_hitting_sampled,
)
from .annuli import (
    AnnulusSpec,
    DensityReport,
    NoCopyReport,
    ReductionCertificate,
    density,
    member,
    members,
    no_copy_check,
    one_variable_measure,
    reduce_to_polynomial,
    sample_lp_sphere,
)
from .lpgeom import (
    ClarksonResult,
    CoordSumBand,
    CopyCheckReport,
    LineCopy,
    SignAxisResult,
    clarkson_check,
    copy_sampler_check,
    cross_configuration,
    equally_spaced_obstruction,
    lp_norm,
    recover_line,
    sign_axis_deduction,
)
