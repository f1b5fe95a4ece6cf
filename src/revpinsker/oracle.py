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

The sampler writes its intermediates with ``out=`` into a per-thread
scratch arena (``_scratch``, a ``threading.local``): one flat array per
name, grown to the largest size asked and reused across chunks and calls,
so a call no longer frees its working memory for the next one to fault
back in.  Only the returned p and q are fresh arrays, owned by the caller;
threads never share a buffer.  The arena keeps what its largest chunk
needed, every transfer step's uniforms included: 1.01 MB per thread after
a 2 000-row chunk at n = 6, and 20.8 MB after a 20 000-row chunk at n = 12
(the sum of its buffers, measured at delta = 0.25, m = 0.5, M = 2).

The per-call set-up reads the extremal pair's (at most three) atoms in
plain Python and makes one array of each table: ``parent_of`` and the two
bands' membership by atom code.  The (trials, n) and (trials, k0) arrays
are then written a column at a time, numpy running down the rows: the
anchors' codes, the free atoms' drawn codes and each parent's share
mass / sums, with the parent's mass as a Python float.  A 2-D assignment
or broadcast divide would run its inner loop along the rows, 2 to 12
items long, and pay a fixed cost per row.  ``batch_f_divergence`` sums
a sampled batch of fewer than 8 atoms a column at a time as well.

``search_sup`` seeds its best with the extremal pair, which attains the
bound, and samples in chunks of 20 000 rows; its history holds one
(rows, best so far, violations so far) per chunk.  Its settings are the
constants below; a caller picks only the support size, the trial count
and the seed (``SearchConfig``).

The oracle adds no class checks of its own: ``theorem1_bound`` and
``ternary_extremal`` ask the one class guard, ``ClassParams.check_finite``.
Only ``falsify_feasibility`` calls ``feasible``, to test it against an
independent member search.

As in every module of the package, numpy is imported inside the functions
that build arrays, so importing this module loads neither numpy nor mpmath.
The arena imports it only when a buffer grows.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import TYPE_CHECKING

from .bounds import INF, ClassParams, bound_gap, feasible, theorem1_bound, tv_cap, vajda_bound
from .distributions import Distribution, validate_distribution
from .divergence import batch_f_divergence, f_divergence
from .errors import InvalidParams, Record
from .extremal import ExtremalPair, ternary_extremal, verify_membership
from .generators import Generator

if TYPE_CHECKING:
    import numpy as np

#: proxy threshold for "the supremum is infinite" in unconstrained sweeps
DIVERGENCE_THRESHOLD = 1e6

#: mass-transfer steps per sampled pair
PERTURBATION_STEPS = 4

#: share of the largest in-class move that one transfer step may take
STEP_SCALE = 0.9

#: a value beats a bound when it exceeds bound + TOLERANCE * max(1, bound)
TOLERANCE = 1e-10

#: largest |delta - target| at which the member search counts a match
MATCH_TOLERANCE = 1e-6

#: rows sampled and evaluated at once by ``search_sup``
_CHUNK_ROWS = 20_000

#: decimal exponents for the mpmath tail of the unconstrained
#: sweep, reaching far beyond float range
_MP_SWEEP_EXPONENTS = (16, 32, 64, 128, 256, 1_000, 10_000, 100_000, 1_000_000, 10_000_000)


def _integer(name: str, value) -> int:
    """value as an int; a bool or a value that is not an integer raises
    InvalidParams."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParams(f"{name} must be an integer, not {value!r}")


class SearchConfig(Record):
    """What a search samples: pairs on ``support_size`` atoms, ``trials`` of
    them, drawn from ``seed``; identical configs give identical runs.

    Each field is an integer and not a bool: ``support_size`` in [3, 12],
    ``trials`` >= 1 and ``seed`` >= 0.  Anything else raises InvalidParams.
    """

    __slots__ = _fields = ("support_size", "trials", "seed")

    def __init__(self, support_size: int = 6, trials: int = 1000, seed: int = 0):
        support_size = _integer("support_size", support_size)
        trials = _integer("trials", trials)
        seed = _integer("seed", seed)
        if not (3 <= support_size <= 12):
            raise InvalidParams("support_size must be in [3, 12]")
        if trials < 1:
            raise InvalidParams("trials must be positive")
        if seed < 0:
            raise InvalidParams("seed must be >= 0")
        object.__setattr__(self, "support_size", support_size)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)


class SearchOutcome(Record):
    """Result of a search: the best pair found versus the claimed bound.

    ``history`` holds, for ``search_sup``, one (rows, best value so far,
    violations so far) per sampled chunk, the extremal seed counted in both;
    for ``search_unconstrained_sup``, one (M, value) per swept grid point,
    then (log10 M, value) along its mpmath tail.  It holds no timings, so
    identical calls give equal outcomes.
    """

    _fields = ("best_value", "best_pair", "bound", "gap", "violations", "history")

    def __init__(
        self,
        best_value: float,
        best_pair: tuple[Distribution, Distribution],
        bound: float,
        gap: float,
        violations: int,
        history: tuple = (),
    ):
        object.__setattr__(self, "best_value", best_value)
        object.__setattr__(self, "best_pair", best_pair)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "history", history)


def _beats(value, bound: float):
    """Whether value (a float or an array) beats bound by more than
    rounding: by TOLERANCE below bound 1, by TOLERANCE relative above it."""
    return value > bound + TOLERANCE * max(1.0, bound)


class _Scratch(threading.local):
    """Per-thread scratch arena of ``_sample_batch``: one flat array per
    name, grown to the largest size ever asked and reused across chunks and
    calls, so that the sampler's intermediates stop returning their pages
    to the system between calls.  Nothing handed out here leaves the
    sampler."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, shape, dtype=float) -> np.ndarray:
        """An uninitialized C-contiguous array of ``shape`` on ``name``'s buffer."""
        size = math.prod(shape)
        buf = self.arrays.get(name)
        if buf is None or buf.size < size:
            import numpy as np

            buf = self.arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def arange(self, size: int) -> np.ndarray:
        """0, 1, ..., size - 1, kept from call to call."""
        buf = self.arrays.get("arange")
        if buf is None or buf.size < size:
            import numpy as np

            buf = self.arrays["arange"] = np.arange(size)
        return buf[:size]


_scratch = _Scratch()


def _sample_batch(
    params: ClassParams,
    base: ExtremalPair,
    n: int,
    trials: int,
    rng: np.random.Generator,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked weight arrays (trials, n) of pairs lying exactly in the class.

    n is a support size that ``SearchConfig`` accepts.  ``base`` is
    ``ternary_extremal(params)``, built once by the caller and shared by
    every chunk.

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
    eps = max(u * STEP_SCALE * min(give, take), 0) of P mass between them
    through a flat view of p.  A move keeps both ratios in the band, leaves
    the anchors at m and M and leaves sum |p - q| unchanged; a step costs
    O(trials) whatever n is.  At delta = 0 the base is P = Q = (1): the
    split gives p == q bit for bit, and every transfer has eps = 0.

    Intermediates are written with ``out=`` into the calling thread's
    ``_scratch``; only ``rng.integers``, ``np.bincount`` and
    ``np.flatnonzero``, which take no ``out=``, allocate theirs, and the
    returned p and q are fresh arrays, owned by the caller.  Takes pass
    ``mode="clip"``: with ``out=`` the default mode writes through a
    temporary copy, and every index here is in range.
    """
    import numpy as np

    s = _scratch
    # the parents are base's atoms with Q mass; an atom's index in base is
    # its side of 1: 0 below, 1 above, 2 at ratio 1.  k0 <= 3, so the tables
    # below are built in plain Python and each becomes one array.
    base_p, base_q = base.P.values, base.Q.values
    active = [j for j, w in enumerate(base_q) if w > 0.0]
    k0 = len(active)

    # each atom gets a code: 2j or 2j + 1 for a free atom of parent j, and
    # 2 k0 + j for parent j's anchor.  A free atom's band is its parent's
    # side of 1, or code & 1 when the parent has ratio 1; drawing that side
    # once keeps transfers from flipping an atom across 1, which would change
    # |p - q|.  Anchors are on no band and never move.
    free = range(2 * k0)
    band_of = [c & 1 if active[c >> 1] == 2 else active[c >> 1] for c in free]
    parent_of = np.array([c >> 1 for c in free] + list(range(k0)), dtype=np.intp)
    anchors = [False] * k0
    band_tables = [np.array([b == k for b in band_of] + anchors) for k in (0, 1)]
    # code and share are written a column at a time (see the module docstring)
    code = s.get("code", (trials, n), np.intp)
    for j in range(k0):
        code[:, j] = 2 * k0 + j
    draws = rng.integers(0, 2 * k0, size=(trials, n - k0))
    for j, col in enumerate(draws.T, k0):
        code[:, j] = col

    e = rng.standard_exponential(out=s.get("e", (trials, n)))
    cell = parent_of.take(code, out=s.get("cell", (trials, n), np.intp), mode="clip")
    row_offset = np.multiply(s.arange(trials), k0, out=s.get("row_offset", (trials,), np.intp))
    cell += row_offset[:, None]
    sums = np.bincount(cell.ravel(), weights=e.ravel(), minlength=k0 * trials)
    sums = sums.reshape(trials, k0)
    share = s.get("share", (trials, k0))

    def spread(base_x):
        # each atom's share e / sums[cell] of its parent's mass in base_x
        for j, parent in enumerate(active):
            np.divide(base_x[parent], sums[:, j], out=share[:, j])
        x = share.take(cell, mode="clip")
        x *= e
        return x

    p, q = spread(base_p), spread(base_q)

    # the low band's runs, then the high band's, one run per row and band
    in_band = s.get("in_band", (trials, n), bool)
    runs = [np.flatnonzero(table.take(code, out=in_band, mode="clip")) for table in band_tables]
    n_low = runs[0].size
    members = np.concatenate(runs, out=s.get("members", (n_low + runs[1].size,), np.intp))
    # row of each member, the high band's shifted by trials: one bincount
    # counts both bands' runs
    row = np.floor_divide(members, n, out=s.get("row", members.shape, np.intp))
    row[n_low:] += trials
    counts = np.bincount(row, minlength=2 * trials)
    start = np.cumsum(counts, out=s.get("run_start", (2 * trials,), np.intp))
    start -= counts
    ready = np.flatnonzero(np.greater_equal(counts, 2, out=s.get("ready", (2 * trials,), bool)))
    size = ready.size
    count = s.get("count", (size,))
    np.copyto(count, counts.take(ready, out=s.get("count_int", (size,), np.intp), mode="clip"))
    count_less_one = np.subtract(count, 1.0, out=s.get("count_less_one", (size,)))
    start = start.take(ready, out=s.get("start", (size,), np.intp), mode="clip")
    # a member's ratio stays in [floor_q / q, ceil_q / q]:
    # give = p - floor_q at the donor, take = ceil_q - p at the recipient
    floor_q = q.take(members, out=s.get("floor_q", members.shape), mode="clip")
    ceil_q = s.get("ceil_q", members.shape)
    np.copyto(ceil_q, floor_q)
    floor_q[:n_low] *= params.m
    ceil_q[n_low:] *= params.M

    pf = p.reshape(-1)
    # every step's uniforms in one draw: the same stream as one (3, size)
    # draw per step
    uniforms = rng.random(out=s.get("u", (steps, 3, size)))
    d, r, donor, recipient = (s.get(name, (size,), np.intp)
                              for name in ("d", "r", "donor", "recipient"))
    p_donor, p_recipient, give, take, eps = (
        s.get(name, (size,)) for name in ("p_donor", "p_recipient", "give", "take", "eps"))
    r_skips = s.get("r_skips", (size,), bool)
    for u in uniforms:
        # u < 1, so floor(u * count) < count for these small counts; eps
        # holds the scaled draws until the move is computed
        np.copyto(d, np.multiply(u[0], count, out=eps), casting="unsafe")
        np.copyto(r, np.multiply(u[1], count_less_one, out=eps), casting="unsafe")
        r += np.greater_equal(r, d, out=r_skips)
        d += start
        r += start
        pf.take(members.take(d, out=donor, mode="clip"), out=p_donor, mode="clip")
        pf.take(members.take(r, out=recipient, mode="clip"), out=p_recipient, mode="clip")
        np.subtract(p_donor, floor_q.take(d, out=give, mode="clip"), out=give)
        np.subtract(ceil_q.take(r, out=take, mode="clip"), p_recipient, out=take)
        np.minimum(give, take, out=eps)
        eps *= u[2]
        eps *= STEP_SCALE
        np.maximum(eps, 0.0, out=eps)
        pf[donor] = np.subtract(p_donor, eps, out=p_donor)
        pf[recipient] = np.add(p_recipient, eps, out=p_recipient)
    return p, q


def sample_pair_in_class(
    params: ClassParams, n: int, seed: int
) -> tuple[Distribution, Distribution]:
    """One pair on n atoms with measured (delta, m, M) matching params to
    ~1e-9.  n and seed follow ``SearchConfig``'s rules: an integer n in
    [3, 12] and an integer seed >= 0, else InvalidParams."""
    import numpy as np

    config = SearchConfig(n, 1, seed)
    rng = np.random.default_rng(config.seed)
    p, q = _sample_batch(params, ternary_extremal(params), config.support_size, 1, rng,
                         PERTURBATION_STEPS)
    return validate_distribution(p[0]), validate_distribution(q[0])


def search_sup(gen: Generator, params: ClassParams, config: SearchConfig) -> SearchOutcome:
    """Randomized search for the supremum of D_f over the class.

    The extremal pair seeds the best value and the violation count; a
    sampled pair replaces it only when strictly larger.  Soundness: no pair
    beats the closed-form bound (``_beats``).  Tightness: the gap at the
    best pair is numerically zero.
    """
    import numpy as np

    bound = theorem1_bound(gen, params)
    ext = ternary_extremal(params)
    rng = np.random.default_rng(config.seed)

    best_value = f_divergence(gen, ext.P, ext.Q)
    best_pair = (ext.P, ext.Q)
    violations = int(_beats(best_value, bound))
    history = []
    for start in range(0, config.trials, _CHUNK_ROWS):
        batch = min(_CHUNK_ROWS, config.trials - start)
        p, q = _sample_batch(params, ext, config.support_size, batch, rng, PERTURBATION_STEPS)
        values = batch_f_divergence(gen, p, q)
        violations += int(np.count_nonzero(_beats(values, bound)))
        i = int(values.argmax())
        if values[i] > best_value:
            best_value = float(values[i])
            best_pair = (validate_distribution(p[i]), validate_distribution(q[i]))
        history.append((batch, best_value, violations))

    return SearchOutcome(
        best_value=best_value,
        best_pair=best_pair,
        bound=bound,
        gap=bound_gap(bound, best_value),
        violations=violations,
        history=tuple(history),
    )


def search_unconstrained_sup(gen: Generator, delta: float) -> SearchOutcome:
    """Sweep the ratio supremum upward (m = 0) at fixed total variation.

    Evaluates the extremal pair along a geometric grid of M; the values are
    nondecreasing and approach the range-of-values bound.  When that bound is
    infinite the sweep continues in mpmath, beyond float range, until the
    divergence proxy threshold is exceeded.
    """
    import numpy as np

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
        if _beats(value, target):
            violations += 1
        if value > best_value:
            best_value = value
            best_pair = (ext.P, ext.Q)

    # an infinite f(0+) reads +inf above: every swept pair has a p = 0 atom
    if target == INF and best_value < DIVERGENCE_THRESHOLD and gen.mp_fn is not None:
        import mpmath as mp

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


def _search_for_member(params: ClassParams, config: SearchConfig) -> bool:
    """Penalized search: can any 3-atom pair match (delta, m, M) to
    MATCH_TOLERANCE?

    A pair whose ratio extremes are exactly (m, M) has, up to permutation and
    merging of equal-ratio atoms, ratios (m, M, r) with r pinned by the
    Q-mean-1 constraint; the search samples that family and compares the
    achievable total variation against the target.
    """
    delta, m, M = params.delta, params.m, params.M
    if (m == 1.0) != (M == 1.0):
        # all ratios on one side of 1 with Q-mean 1 collapse to ratio 1, so
        # the off-1 extreme is unattainable; at m = M = 1 the search below
        # has only P = Q, a match iff delta <= MATCH_TOLERANCE
        return False
    if M == INF:
        return False  # finite discrete pairs have finite ratios
    import numpy as np

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
    return min(gaps) <= MATCH_TOLERANCE


def falsify_feasibility(params: ClassParams, config: SearchConfig) -> bool:
    """True when search agrees with the feasibility predicate.

    Feasible params must yield a verified in-class sample; infeasible params
    must defeat the penalized member search.  A feasible class with no
    finite sample is a disagreement, not an error: M = +inf, which no finite
    pair has, and a tiny-scale class whose extremal pair ``ternary_extremal``
    cannot build in class (InvalidParams) both give False.
    """
    if not feasible(params):
        return not _search_for_member(params, config)
    if params.M == INF:
        return False
    try:
        P, Q = sample_pair_in_class(params, config.support_size, config.seed)
    except InvalidParams:
        return False
    return verify_membership(P, Q, params, tol=1e-9).passed
