"""Randomized verification of the bounds.

Independent of the closed forms, this module samples distribution pairs that
sit exactly inside a constraint class, confirms the bounds are never violated,
checks they are attained by the ternary construction, and probes whether the
feasibility predicate matches searchable reality.

In-class sampling never uses rejection: a sample starts from the ternary
extremal pair, splits each atom into randomly weighted sub-atoms sharing the
parent's density ratio, then transfers mass between same-side atoms in ways
that provably fix (delta, m, M).  The sampler is vectorized over the rows of
a batch: the split normalizes the weights with one ``np.bincount`` over
(row, parent) cells, and each transfer step picks donor and recipient from
the row's contiguous run of band members in ``np.flatnonzero(band)``, so a
step costs O(trials) whatever the support size.

The oracle adds no class checks of its own: ``theorem1_bound`` and
``ternary_extremal`` ask the one class guard, ``ClassParams.check_finite``.
Only ``falsify_feasibility`` calls ``feasible``, to test it against an
independent member search.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .bounds import ClassParams, feasible, theorem1_bound, tv_cap, vajda_bound
from .distributions import Distribution, validate_distribution
from .divergence import batch_f_divergence, f_divergence
from .errors import InvalidParams
from .extended import INF, bound_gap
from .extremal import ExtremalPair, ternary_extremal, verify_membership
from .generators import Generator

#: proxy threshold for "the supremum is infinite" in unconstrained sweeps
DIVERGENCE_THRESHOLD = 1e6

#: decimal exponents for the extended-precision tail of the unconstrained
#: sweep, reaching far beyond float range
_MP_SWEEP_EXPONENTS = (16, 32, 64, 128, 256, 1_000, 10_000, 100_000, 1_000_000, 10_000_000)


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search settings; identical configs give identical runs."""

    support_size: int = 6
    trials: int = 1000
    seed: int = 0
    perturbation_steps: int = 4
    step_scale: float = 0.9
    tolerance: float = 1e-10

    def __post_init__(self):
        if not (3 <= self.support_size <= 12):
            raise InvalidParams("support_size must be in [3, 12]")
        if self.trials < 1:
            raise InvalidParams("trials must be positive")
        if not (0.0 < self.step_scale <= 1.0):
            raise InvalidParams("step_scale must be in (0, 1]")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: the best pair found versus the claimed bound."""

    best_value: float
    best_pair: tuple[Distribution, Distribution] | None
    bound: float
    gap: float
    violations: int
    history: tuple = ()


def _sample_batch(
    params: ClassParams,
    base: ExtremalPair,
    n: int,
    trials: int,
    rng: np.random.Generator,
    steps: int,
    step_scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked weight arrays (trials, n) of pairs lying exactly in the class.

    ``base`` is ``ternary_extremal(params)``, built once by the caller and
    shared by every chunk.

    Split: each row keeps one anchor atom per parent atom of ``base`` (with
    Q mass) and gives each other atom a random parent.  One ``np.bincount``
    sums the exponential (gamma(1)) weights per (row, parent) cell; an atom
    takes the share ``e / sums[cell]`` of its parent's P and Q mass, so it
    keeps the parent's ratio.

    Transfers: every non-anchor atom is on the low band (ratio in [m, 1]) or
    on the high band ([1, M]).  A row's members of one band form a contiguous
    run of ``np.flatnonzero(band)`` that starts at ``cumsum(counts) -
    counts``; the runs are found once.  Each step draws, for every row with
    at least two members in a band, a donor uniformly from the run and a
    recipient uniformly from the rest of it, and moves
    eps = max(u * step_scale * min(give, take), 0) of P mass between them
    through a flat view of p.  A move keeps both ratios in the band, leaves
    the anchors at m and M and leaves sum |p - q| unchanged; a step costs
    O(trials) whatever n is.  At delta = 0 the base is P = Q = (1): the
    split gives p == q bit for bit, and every transfer has eps = 0.
    """
    if n < 3:
        raise InvalidParams("need support size n >= 3")
    active = np.flatnonzero(base.Q.weights > 0)
    k0 = active.size
    parent_p = base.P.weights[active]
    parent_q = base.Q.weights[active]

    # each atom gets a code: 2j or 2j + 1 for a free atom of parent j, and
    # 2 k0 + j for parent j's anchor.  A free atom's band is its parent's
    # side of 1, or code & 1 when the parent has ratio 1; drawing that side
    # once keeps transfers from flipping an atom across 1, which would change
    # |p - q|.  Anchors are on no band (-1) and never move.
    parent_of = np.concatenate([np.arange(k0).repeat(2), np.arange(k0)])
    side = active[parent_of]  # 0 below 1, 1 above 1, 2 at ratio 1
    band_of = np.where(side == 2, np.arange(3 * k0) & 1, side)
    band_of[2 * k0:] = -1
    code = np.empty((trials, n), dtype=np.intp)
    code[:, :k0] = np.arange(2 * k0, 3 * k0)
    code[:, k0:] = rng.integers(0, 2 * k0, size=(trials, n - k0))

    e = rng.standard_exponential((trials, n))
    cell = parent_of[code]
    cell += k0 * np.arange(trials)[:, None]
    sums = np.bincount(cell.ravel(), weights=e.ravel(), minlength=k0 * trials)
    sums = sums.reshape(trials, k0)
    p = np.take((parent_p / sums).ravel(), cell)
    p *= e
    q = np.take((parent_q / sums).ravel(), cell)
    q *= e

    # the low band's runs, then the high band's, one run per row and band
    band = band_of[code]
    runs = [np.flatnonzero(band == k) for k in (0, 1)]
    members = np.concatenate(runs)
    counts = np.concatenate([np.bincount(r // n, minlength=trials) for r in runs])
    start = np.cumsum(counts) - counts
    ready = np.flatnonzero(counts >= 2)
    count = counts[ready].astype(float)
    start = start[ready]
    # a member's ratio stays in [floor_q / q, ceil_q / q]:
    # give = p - floor_q at the donor, take = ceil_q - p at the recipient
    n_low = runs[0].size
    floor_q = q.reshape(-1)[members]
    ceil_q = floor_q.copy()
    floor_q[:n_low] *= params.m
    ceil_q[n_low:] *= params.M

    pf = p.reshape(-1)
    for _ in range(steps):
        u = rng.random((3, ready.size))
        # u < 1, so floor(u * count) < count for these small counts
        d = (u[0] * count).astype(np.intp)
        r = (u[1] * (count - 1.0)).astype(np.intp)
        r += r >= d
        d += start
        r += start
        donor = members[d]
        recipient = members[r]
        eps = np.minimum(pf[donor] - floor_q[d], ceil_q[r] - pf[recipient])
        eps *= u[2]
        eps *= step_scale
        np.maximum(eps, 0.0, out=eps)
        pf[donor] -= eps
        pf[recipient] += eps
    return p, q


def sample_pair_in_class(
    params: ClassParams, n: int, seed: int, config: SearchConfig | None = None
) -> tuple[Distribution, Distribution]:
    """One pair with measured (delta, m, M) matching params to ~1e-9."""
    cfg = config or SearchConfig()
    rng = np.random.default_rng(seed)
    p, q = _sample_batch(
        params, ternary_extremal(params), n, 1, rng, cfg.perturbation_steps, cfg.step_scale
    )
    return validate_distribution(p[0]), validate_distribution(q[0])


def search_sup(
    gen: Generator,
    params: ClassParams,
    config: SearchConfig,
    seed_extremal: bool = True,
) -> SearchOutcome:
    """Randomized search for the supremum of D_f over the class.

    Soundness: no sampled pair may exceed the closed-form bound plus the
    configured tolerance.  Tightness: with the extremal pair seeded, the gap
    at the best pair is numerically zero.
    """
    bound = theorem1_bound(gen, params)
    ext = ternary_extremal(params)
    rng = np.random.default_rng(config.seed)

    best_value = -INF
    best_pair: tuple[Distribution, Distribution] | None = None
    violations = 0
    remaining = config.trials
    while remaining > 0:
        batch = min(remaining, 20_000)
        p, q = _sample_batch(
            params, ext, config.support_size, batch, rng,
            config.perturbation_steps, config.step_scale,
        )
        values = batch_f_divergence(gen, p, q)
        violations += int(np.count_nonzero(values > bound + config.tolerance))
        i = int(values.argmax())
        if values[i] > best_value:
            best_value = float(values[i])
            best_pair = (validate_distribution(p[i]), validate_distribution(q[i]))
        remaining -= batch

    if seed_extremal:
        v = f_divergence(gen, ext.P, ext.Q)
        if v > bound + config.tolerance:
            violations += 1
        if v > best_value:
            best_value = v
            best_pair = (ext.P, ext.Q)

    return SearchOutcome(
        best_value=best_value,
        best_pair=best_pair,
        bound=bound,
        gap=bound_gap(bound, best_value),
        violations=violations,
    )


def search_unconstrained_sup(
    gen: Generator, delta: float, config: SearchConfig
) -> SearchOutcome:
    """Sweep the ratio supremum upward (m = 0) at fixed total variation.

    Evaluates the extremal pair along a geometric grid of M; the values are
    nondecreasing and approach the range-of-values bound.  When that bound is
    infinite the sweep continues in extended precision until the divergence
    proxy threshold is exceeded.
    """
    delta = float(delta)
    if not (0.0 <= delta < 1.0):
        raise InvalidParams("sweep requires 0 <= delta < 1 (delta = 1 needs M = inf)")
    target = vajda_bound(gen, delta)
    if delta == 0.0:
        point = validate_distribution([1.0])
        return SearchOutcome(0.0, (point, point), 0.0, 0.0, 0, ((1.0, 0.0),))

    m_min = max(2.0, 1.01 / (1.0 - delta))
    grid = np.geomspace(m_min, 1e12, 41)
    history: list[tuple[float, float]] = []
    best_value = -INF
    best_pair: tuple[Distribution, Distribution] | None = None
    violations = 0
    for M in grid:
        prm = ClassParams(delta=delta, m=0.0, M=float(M))
        ext = ternary_extremal(prm)
        value = f_divergence(gen, ext.P, ext.Q)
        history.append((float(M), value))
        if target != INF and value > target + config.tolerance:
            violations += 1
        if value > best_value:
            best_value = value
            best_pair = (ext.P, ext.Q)

    if target == INF and best_value < DIVERGENCE_THRESHOLD:
        if gen.f_at_zero == INF:
            best_value = INF
        elif gen.mp_fn is not None:
            # extremal value at huge M with m = 0 reduces to
            # delta * (f(0) + f(M)/(M-1)); evaluate outside float range
            d = mp.mpf(delta)
            for exp in _MP_SWEEP_EXPONENTS:
                M = mp.mpf(10) ** exp
                value = float(d * (mp.mpf(gen.f_at_zero) + gen.mp_fn(M) / (M - 1)))
                history.append((float(mp.log10(M)), value))
                if value > best_value:
                    best_value = value
                if best_value > DIVERGENCE_THRESHOLD:
                    break

    return SearchOutcome(
        best_value=best_value,
        best_pair=best_pair,
        bound=target,
        gap=bound_gap(target, best_value),
        violations=violations,
        history=tuple(history),
    )


def _search_for_member(params: ClassParams, config: SearchConfig, match_tol: float) -> bool:
    """Penalized search: can any 3-atom pair match (delta, m, M) to match_tol?

    A pair whose ratio extremes are exactly (m, M) has, up to permutation and
    merging of equal-ratio atoms, ratios (m, M, r) with r pinned by the
    Q-mean-1 constraint; the search samples that family and compares the
    achievable total variation against the target.
    """
    delta, m, M = params.delta, params.m, params.M
    if m == 1.0 and M == 1.0:
        return delta <= match_tol  # P = Q is the only member shape
    if m == 1.0 or M == 1.0:
        # all ratios on one side of 1 with Q-mean 1 collapse to ratio 1;
        # the off-1 extreme is unattainable
        return False
    if M == INF:
        return False  # finite discrete pairs have finite ratios
    rng = np.random.default_rng(config.seed)
    count = max(config.trials, 2000)
    e = rng.gamma(1.0, size=(count, 3))
    qw = e / e.sum(axis=1, keepdims=True)
    q1, q2, q3 = qw[:, 0], qw[:, 1], qw[:, 2]
    r3 = (1.0 - m * q1 - M * q2) / q3
    ok = (r3 >= m - 1e-12) & (r3 <= M + 1e-12)
    gaps = [abs(tv_cap(m, M) - delta)]  # the t = 1 boundary pair is always reachable
    if ok.any():
        d = 0.5 * (q1 * (1.0 - m) + q2 * (M - 1.0) + q3 * np.abs(r3 - 1.0))
        gaps.append(float(np.abs(d[ok] - delta).min()))
    return min(gaps) <= match_tol


def falsify_feasibility(
    params: ClassParams, config: SearchConfig, match_tol: float = 1e-6
) -> bool:
    """True when search agrees with the feasibility predicate.

    Feasible params must yield a verified in-class sample; infeasible params
    must defeat the penalized member search.
    """
    if feasible(params):
        P, Q = sample_pair_in_class(params, config.support_size, config.seed, config)
        return verify_membership(P, Q, params, tol=1e-9).passed
    return not _search_for_member(params, config, match_tol)
