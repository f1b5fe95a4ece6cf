"""Optimal reverse-Pinsker upper bounds on f-divergences.

Computes f-divergences between finite discrete distributions, the optimal
upper bounds given total variation and density-ratio extremes, explicit
extremal pairs attaining them, and a randomized oracle certifying validity
and tightness.

The scalar layer (bounds, extremal pairs, Distribution) is plain ``math``.
Every module imports numpy inside the functions that build arrays (the
oracle's searches and sampler, ``batch_f_divergence``, ``f_divergence``,
``Generator.evaluate``, ``custom_generator``, ``Distribution.weights``), so
importing the package loads neither numpy nor mpmath; mpmath loads only
where an ``mp_fn`` runs.  The oracle's names (``search_sup``,
``SearchConfig``, ...) resolve on first use.  The records (``ClassParams``,
``Distribution``, ``Generator``, ...) are plain classes on
``errors.Record``, so no import loads ``dataclasses`` and its ``inspect``.
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
    renyi_divergence,
    renyi_from_hellinger,
)
from .extremal import ExtremalPair, PairReport, ternary_extremal, verify_membership
from .generators import (
    Generator,
    chi2_generator,
    custom_generator,
    hellinger_generator,
    kl_generator,
    tv_generator,
)


def __getattr__(name: str):
    # the exported names that no import above binds are the oracle's; they
    # resolve on first use, since compiling and running oracle.py adds about
    # a quarter to the package's import time where no bytecode is cached
    if name in __all__:
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
    "renyi_divergence",
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

__version__ = "0.7.0"
