"""topkcert: PAC certification of the exact top-k set with two oracles.

A cheap noisy weak oracle screens items into clear in / clear out / ambiguous
via jointly valid confidence intervals; a scarce exact strong oracle resolves
the ambiguity.  The certifiers guarantee the returned set equals the true
top-k with probability at least 1 - delta while minimizing strong calls.
"""

from .certify import (
    ALGORITHMS,
    AdaptiveCertify,
    AdaptiveCertifyWeak,
    BruteForceCertify,
    CertificationReport,
    ScreenThenCertify,
    ThresholdCertify,
)
from .confidence import (
    AnytimeEmpiricalBernstein,
    EmpiricalBernstein,
    SubGaussian,
    build_fixed_intervals,
)
from .core import (
    Instance,
    IntervalState,
    ambiguous_set,
    coverage_event_holds,
    epsilon_max,
    kth_largest,
    near_tie_mass,
    true_top_k,
)
from .instances import (
    GapInstanceSpec,
    PackingSpec,
    generate_gap_instance,
    generate_packing_instance,
    load_instance,
    save_instance,
)
from .oracles import BudgetExceededError, OracleStats, StrongOracle, WeakOracle, snapshot_and_reset

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AdaptiveCertify",
    "AdaptiveCertifyWeak",
    "AnytimeEmpiricalBernstein",
    "BruteForceCertify",
    "BudgetExceededError",
    "CertificationReport",
    "EmpiricalBernstein",
    "GapInstanceSpec",
    "Instance",
    "IntervalState",
    "OracleStats",
    "PackingSpec",
    "ScreenThenCertify",
    "StrongOracle",
    "SubGaussian",
    "ThresholdCertify",
    "WeakOracle",
    "ambiguous_set",
    "build_fixed_intervals",
    "coverage_event_holds",
    "epsilon_max",
    "generate_gap_instance",
    "generate_packing_instance",
    "kth_largest",
    "load_instance",
    "near_tie_mass",
    "save_instance",
    "snapshot_and_reset",
    "true_top_k",
]
