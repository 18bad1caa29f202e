"""Non-half-sum disjoint packings and the coded-caching designs they generate.

The library builds and verifies half-sum-free disjoint packings over Z_v,
lifts them to placement delivery arrays with one row per user, simulates the
resulting caching scheme byte-for-byte, derives progression-free sets and
perfect hash families from single-block packings, and evaluates the usual
catalogue of caching schemes in exact rational arithmetic.
"""

from .designs import (
    NtapBoundReport,
    NtapSet,
    PhfArray,
    PhfColumnComparison,
    ntap_bound_report,
    ntap_construct,
    phf_column_comparison,
    phf_columns_from_elements,
    phf_from_ntap,
    verify_ntap,
    verify_phf,
)
from .packing import (
    BlockParams,
    Cdp,
    Nhsdp,
    Verdict,
    block_params,
    cdp_to_nhsdp,
    choose_params_closed_form,
    construct_nhsdp,
    ds_search,
    half_sum_set,
    solve_problem1_exact,
    verify_cdp,
    verify_nhsdp,
)
from .pda import (
    STAR,
    Pda,
    PdaStats,
    conjugate_pda,
    drop_columns,
    group_pda_divisible,
    mn_pda,
    pda_from_nhsdp,
    pda_stats,
    symbol_groups,
    verify_pda,
)
from .ringmath import (
    OddResidueRing,
    binomial,
    gaussian_binomial,
    integer_nth_root,
    is_prime_power,
)
from .schemes import (
    SCHEME_NAMES,
    RatioReport,
    SchemeConstraintError,
    SchemePoint,
    apply_grouping_formula,
    evaluate_nhsdp_scheme,
    evaluate_scheme,
    ratio_report,
    tradeoff_sweep,
)
from .simulate import (
    CacheContents,
    DeliveryTranscript,
    DemandCheckReport,
    FileLibrary,
    Transmission,
    UnrecoverablePacketError,
    decode,
    deliver,
    exhaustive_demand_check,
    place,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
