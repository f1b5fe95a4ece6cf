"""Optimal reverse-Pinsker upper bounds on f-divergences.

Computes f-divergences between finite discrete distributions, the optimal
upper bounds given total variation and density-ratio extremes, explicit
extremal pairs attaining them, and a randomized oracle certifying validity
and tightness.

The scalar layer (bounds, extremal pairs, Distribution) is plain ``math``.
numpy loads with the oracle, whose names resolve on first use, and with the
array paths (``batch_f_divergence``, ``f_divergence``,
``Generator.evaluate``, ``custom_generator``, ``Distribution.weights``);
mpmath loads only where an ``mp_fn`` runs.
"""

from .bounds import (
    INF,
    ClassParams,
    chord_slope_gap,
    corollary1_bound,
    default_grid,
    feasible,
    kl_bound_ab,
    log_over_x_minus_1,
    renyi_bound,
    sason_chi2_bound,
    simic_kl_bound,
    theorem1_bound,
    tv_cap,
    vajda_bound,
)
from .distributions import (
    Distribution,
    ratio_extremes,
    total_variation,
    validate_distribution,
)
from .divergence import (
    batch_f_divergence,
    f_divergence,
    measure_pair,
    renyi_from_hellinger,
)
from .extremal import ExtremalPair, PairReport, ternary_extremal, verify_membership
from .generators import (
    Generator,
    chi2_generator,
    chord_bound,
    custom_generator,
    hellinger_generator,
    kl_generator,
    tv_generator,
)

#: names resolved from ``revpinsker.oracle``, and so numpy, on first use
_ORACLE_NAMES = frozenset({
    "SearchConfig",
    "SearchOutcome",
    "falsify_feasibility",
    "sample_pair_in_class",
    "search_sup",
    "search_unconstrained_sup",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClassParams",
    "Distribution",
    "ExtremalPair",
    "Generator",
    "INF",
    "PairReport",
    "SearchConfig",
    "SearchOutcome",
    "batch_f_divergence",
    "chi2_generator",
    "chord_bound",
    "chord_slope_gap",
    "corollary1_bound",
    "custom_generator",
    "default_grid",
    "f_divergence",
    "falsify_feasibility",
    "feasible",
    "hellinger_generator",
    "kl_bound_ab",
    "kl_generator",
    "log_over_x_minus_1",
    "measure_pair",
    "ratio_extremes",
    "renyi_bound",
    "renyi_from_hellinger",
    "sample_pair_in_class",
    "sason_chi2_bound",
    "search_sup",
    "search_unconstrained_sup",
    "simic_kl_bound",
    "ternary_extremal",
    "theorem1_bound",
    "total_variation",
    "tv_cap",
    "tv_generator",
    "vajda_bound",
    "validate_distribution",
    "verify_membership",
]

__version__ = "0.4.0"
