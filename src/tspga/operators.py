"""Variation operators: segment reversal, probabilistic swaps, their hybrid,
order crossover, and roulette selection.

All operators are pure: they never modify their input tours, and given the
same inputs and the same stream state they produce the same output. Mutation
points, cut points and probability draws can be supplied explicitly, which is
the seam the hand-trace tests script.

Each operator has one implementation, a kernel over rows of tours, and the
draws are planned in one place: variation plans and applies a whole
generation at once, and the single-tour functions plan and apply one row
through the stream they are given.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil, isqrt

import numpy as np

from .population import GaConfig, Population, _check_dimension, fitness_of
from .rng import _U32, RngStream

# Bytes of tour rows per block of crossed children: enough rows to amortize
# numpy's per-call cost on short tours, few enough that a block's
# temporaries stay in cache on long ones.
_OX_BLOCK_BYTES = 1 << 17


def draw_mutation_points(n: int, rng: RngStream) -> tuple[int, int]:
    """Uniform (a, b) with 0 <= a <= b < n.

    One integer draw unranked over all n(n+1)/2 ordered pairs, so every
    segment is equally likely; drawing the endpoints independently would
    bias toward particular segment shapes. a == b is a legal, order-1
    segment (an identity reversal).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(map(int, _unrank_pairs(n, rng.randint(0, n * (n + 1) // 2 - 1), strict=False)))


def draw_cut_points(n: int, rng: RngStream) -> tuple[int, int]:
    """Uniform (c1, c2) with 0 <= c1 < c2 < n, for crossover."""
    if n < 2:
        raise ValueError("cut points need n >= 2")
    return tuple(map(int, _unrank_pairs(n, rng.randint(0, n * (n - 1) // 2 - 1), strict=True)))


def _unrank_pairs(n: int, r, strict):
    """Pairs of ranks r: cut pairs where strict, else mutation pairs; ints for an int r.

    Ranks count row-major over pairs; reversed, the row sizes are 1, 2, ...,
    so the row is a triangular root: math.isqrt for an int, else a float
    square root, which is exact while n(n+1)/2 stays below 2**47.
    """
    rows = n - strict
    rev = rows * (rows + 1) // 2 - 1 - r
    if isinstance(rev, int):
        k = (isqrt(8 * rev + 1) - 1) // 2
        return rows - 1 - k, n - 1 - rev + k * (k + 1) // 2
    k = np.floor(np.sqrt(8 * rev + 1) * 0.5 - 0.5)
    return rows - 1 - k, n - 1 - rev + k * (k + 1) * 0.5


def _swap_draws(op: str, n: int, pm: float, width: int) -> int:
    """Probability draws of a child whose points lie width apart; most at width n - 1."""
    if op == "PSM":
        return n  # one per position
    return (width + 2) // 2 if op == "HPRM" and pm > 0.0 else 0  # one per HPRM pass


def _resolve_pair(n: int, pair, rng, strict: bool) -> tuple[int, int]:
    """pair checked, or drawn when None: cuts if strict (c1 < c2), else points (a <= b)."""
    kind = "cut" if strict else "mutation"
    if pair is None:
        if rng is None:
            raise ValueError(f"either {kind} points or an rng must be supplied")
        return (draw_cut_points if strict else draw_mutation_points)(n, rng)
    a, b = int(pair[0]), int(pair[1])
    if not (0 <= a <= b - strict and b <= n - 1):
        raise ValueError(f"invalid {kind} points ({a}, {b}) for a tour of {n} cities")
    return a, b


def _check_probability(pm) -> float:
    pm = float(pm)
    if not 0.0 <= pm <= 1.0:
        raise ValueError(f"mutation probability must lie in [0, 1], got {pm}")
    return pm


def _reverse_rows(tours: np.ndarray, a, b) -> None:
    """In place: reverse tours[r, a[r]..b[r]] in every row r of a C-contiguous array."""
    n = tours.shape[1]
    a, b = np.asarray(a), np.asarray(b)
    lengths = b - a + 1
    # Element e of row r's segment has offset e - first[r] from its start.
    first = np.cumsum(lengths) - lengths
    row_base = np.arange(tours.shape[0]) * n
    e = np.arange(first[-1] + lengths[-1])
    flat = tours.reshape(-1)
    src = np.repeat(row_base + b + first, lengths) - e
    flat[np.repeat(row_base + a - first, lengths) + e] = flat[src]


def _swap_rows(tours: np.ndarray, rows, i, j) -> None:
    """In place: swap tours[rows[k], i[k]] with tours[rows[k], j[k]] for each k.

    tours is C-contiguous and rows nondecreasing; each row's swaps apply in
    list order. The m-th swaps of all rows touch distinct rows, so they apply
    together.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        return
    n = tours.shape[1]
    rank = np.arange(rows.size) - rows.searchsorted(rows)
    order = rank.argsort(kind="stable")
    fi = (rows * n + i)[order]
    fj = (rows * n + j)[order]
    flat = tours.reshape(-1)
    lo = 0
    for hi in np.bincount(rank).cumsum().tolist():
        si, sj = fi[lo:hi], fj[lo:hi]
        flat[si], flat[sj] = flat[sj], flat[si]
        lo = hi


def _hprm_swaps(a, b, steps, partners) -> tuple[np.ndarray, np.ndarray]:
    """HPRM's probabilistic swaps, moved after the segment's full reversal.

    Pass s swaps the ends (a+s, b-s), then on a hit swaps a+s with its
    partner j. Later passes reverse only positions strictly between a+s and
    b-s, so the hit equals swapping a+s with j mirrored in [a, b] when j lies
    there, applied after the whole reversal. Each swap's a and b, step and
    partner are ints or parallel int arrays.
    """
    head, partners = a + np.asarray(steps, dtype=np.intp), np.asarray(partners, dtype=np.intp)
    return head, np.where((head < partners) & (partners < b - head + a), a + b - partners, partners)


def _plan(n: int, op: str, pm: float, crossed, rng, pts=None):
    """Every child's draws after the parents and gates, in variation's order.

    Mutation points are pts when given. Nothing is applied: returns (cuts,
    points, rows, swap_i, swap_j), the cuts of the crossed children, every
    child's points (RSM, HPRM) and the swaps of each child's row in order.
    """
    cuts, points, rows, swap_i, swap_j = [], [], [], [], []
    for child, cross in enumerate(crossed):
        if cross:
            cuts.append(draw_cut_points(n, rng))
        a, b = 0, n - 1
        if op != "PSM":
            a, b = draw_mutation_points(n, rng) if pts is None else pts
            points.append((a, b))
        k = _swap_draws(op, n, pm, b - a)
        if k == 0:
            continue
        # The k probability draws as one array, then a partner per hit.
        steps = (rng.random_array(k) < pm).nonzero()[0].tolist()
        partners = [rng.randint(0, n - 1) for _ in steps]
        i, j = (steps, partners) if op == "PSM" else _hprm_swaps(a, b, steps, partners)
        rows += [child] * len(i)
        swap_i.extend(i)
        swap_j.extend(j)
    return cuts, points, rows, swap_i, swap_j


def _plan_block(n: int, op: str, pm: float, crossed: np.ndarray, rng):
    """_plan's draws, made by array operations on the stream's raw-word block; pairs as (m, 2).

    Without swaps the cuts and points are one run of half-words. With swaps a
    walk reads each crossed child's cut from its half-word, handing a
    rejected one to blk.bounded, draws HPRM's points with rng.randint,
    counts the hits among a child's probability draws in the block's hit
    list and places a half-word per hit; the partners are drawn at the end.
    When Lemire's method rejects a half-word of the run or a partner, the
    block rewinds to the plan's start and _plan plans the generation one
    draw at a time, as it does for a stream without a block (a scripted
    one) and for tours the half-words cannot serve: at n <= 2 a cut's span
    of 0 takes none, and from n = 92,682 a point's span passes 2**32 - 1 and
    takes full words.
    """
    blk = getattr(rng, "_block", None)
    cspan, pspan = n * (n - 1) // 2 - 1, n * (n + 1) // 2 - 1
    if blk is None or not 0 < cspan < pspan < 2**32 - 1:
        return _plan(n, op, pm, crossed, rng)
    start = blk.mark()
    k = _swap_draws(op, n, pm, n - 1)
    if k == 0:
        point_slot = np.cumsum(crossed + 1) - 1
        strict = np.ones(point_slot[-1] + 1, dtype=bool)  # cut draws, the rest points
        strict[point_slot] = False
        spans = np.where(strict, cspan, pspan).astype(np.uint64)
        ranks, bad = blk.bounded_at(blk.halves(spans.size), spans)
        if bad == spans.size:
            pairs = np.array(_unrank_pairs(n, ranks.astype(np.int64), strict), dtype=np.intp).T
            return pairs[strict], pairs[point_slot], [], [], []
    else:
        hits = blk.below(pm)
        randint = rng.randint
        # The block's state, held here and written back around every call that
        # draws from it; raw and its size change only when the block grows.
        raw, pos, has_half, half_at = blk.raw, blk.pos, blk.has_half, blk.half_at
        size, hprm = raw.size, op == "HPRM"
        cut_excl = cspan + 1
        cut_threshold = (_U32 - cspan) % cut_excl  # Lemire's, as in blk.bounded(cspan)
        cut_ranks, point_ranks, walk, buffered_at = [], [], [], []
        i = h = swaps = 0
        for child, cross in enumerate(crossed.tolist()):
            if cross:  # blk.bounded(cspan), inline: the buffered half, else a new word's low half
                if has_half:
                    has_half, half = False, raw.item(half_at >> 1) >> 32 if half_at >= 0 else blk.half
                else:
                    if pos == size:
                        blk.grow(pos + 1)
                        raw, size = blk.raw, blk.raw.size
                    pos, has_half, half_at, half = pos + 1, True, 2 * pos + 1, raw.item(pos) & _U32
                m = half * cut_excl
                if m & _U32 >= cut_threshold:
                    cut_ranks.append(m >> 32)
                else:  # rejected: the block redraws from where this draw began
                    blk.pos, blk.has_half, blk.half_at = pos - has_half, not has_half, half_at
                    blk.q -= 1  # the half-word counted below, which the redraw counts again
                    cut_ranks.append(blk.bounded(cspan))
                    raw, pos, has_half, half_at = blk.raw, blk.pos, blk.has_half, blk.half_at
                    size = raw.size
            if hprm:
                blk.pos, blk.has_half, blk.half_at = pos, has_half, half_at
                point_ranks.append(randint(0, pspan))
                raw, pos, has_half, half_at = blk.raw, blk.pos, blk.has_half, blk.half_at
                size = raw.size
                # The point's width b - a, unranked as _unrank_pairs does; k as _swap_draws.
                rev = pspan - point_ranks[-1]
                t = (isqrt(8 * rev + 1) - 1) // 2
                k = (t * (t + 3) // 2 - rev + 2) // 2
            # The child's k probability words from d, then the words split for
            # its partners' half-words: blk.reserve(k) and blk.halves(h), inline.
            d = pos
            e = d + k
            if e > size:
                blk.grow(e)
                raw, size = blk.raw, blk.raw.size
            i = bisect_left(hits, d, i + h)
            h = bisect_left(hits, e, i) - i
            if h:
                buffered = has_half
                if buffered:  # the first partner takes the buffered half
                    buffered_at += (swaps, half_at)
                split = (h - buffered + 1) // 2
                if split:
                    if e + split > size:
                        blk.grow(e + split)
                        raw, size = blk.raw, blk.raw.size
                    half_at = 2 * (e + split) - 1
                has_half = (h + buffered) % 2 == 1
                # Hit and half-word indices as offsets from the child's first swap.
                walk += (h, child, d, i - swaps, 2 * e - buffered - swaps)
                swaps += h
                e += split
            pos = e
        blk.pos, blk.has_half, blk.half_at = pos, has_half, half_at
        blk.q += swaps + len(cut_ranks)
        walk = np.array(walk, dtype=np.int64).reshape(-1, 5)
        rows, d, hit, at = np.repeat(walk[:, 1:], walk[:, 0], axis=0).T
        swap = np.arange(swaps)
        at += swap
        at[buffered_at[::2]] = buffered_at[1::2]
        partners, bad = blk.bounded_at(at, n - 1)
        if bad == swaps:
            ranks = np.array(cut_ranks + point_ranks, dtype=np.int64)
            strict = np.arange(ranks.size) < len(cut_ranks) if point_ranks else True
            pairs = np.array(_unrank_pairs(n, ranks, strict), dtype=np.intp).T
            cuts, points = pairs[:len(cut_ranks)], pairs[len(cut_ranks):]
            swap_i, swap_j = blk.hit_words[hit + swap] - d, partners.astype(np.int64)
            if op == "HPRM":
                swap_i, swap_j = _hprm_swaps(*points[rows].T, swap_i, swap_j)
            return cuts, points, rows, swap_i, swap_j
    blk.rewind(start)
    return _plan(n, op, pm, crossed.tolist(), rng)


def _apply(tours: np.ndarray, points, rows, swap_i, swap_j) -> None:
    """In place: a plan's segment reversals, then its swaps."""
    if len(points):
        _reverse_rows(tours, *np.asarray(points).T)
    _swap_rows(tours, rows, swap_i, swap_j)


def _mutate_one(t, op: str, pm: float, pts, rng) -> np.ndarray:
    """One tour mutated as an uncrossed child of a generation."""
    out = np.asarray(t)[None].copy()
    _apply(out, *_plan(out.shape[1], op, pm, [False], rng, pts)[1:])
    return out[0]


def mutate_rsm(t, pts=None, rng: RngStream | None = None) -> np.ndarray:
    """Reverse the segment between two mutation points.

    pts is (a, b) with a <= b; when omitted it is drawn uniformly, which
    requires rng. Positions outside [a, b] are fixed points, a == b leaves
    the tour unchanged, and applying the same points twice restores the
    input. Consumes no probability draws.
    """
    return _mutate_one(t, "RSM", 0.0, _resolve_pair(np.shape(t)[0], pts, rng, strict=False), rng)


def mutate_psm(t, pm, rng: RngStream) -> np.ndarray:
    """Swap each position with a random partner, each with probability pm.

    Walks positions 0..n-1 in order; a hit swaps the current entry with a
    uniformly drawn position (possibly itself). Exactly n probability draws
    are consumed regardless of pm, batched as one array, with partner draws
    following in position order.
    """
    pm = _check_probability(pm)
    if rng is None:
        raise ValueError("an rng must be supplied for the probability draws")
    return _mutate_one(t, "PSM", pm, None, rng)


def mutate_hprm(t, pm, pts=None, rng: RngStream | None = None) -> np.ndarray:
    """Segment reversal with an interleaved probabilistic swap at each step.

    Walks the segment ends inward from (a, b) while a <= b: swap the two
    ends, then with probability pm swap the current head position a with a
    uniformly drawn position. The middle element of an odd segment gets a
    self-swap pass of its own. With pm = 0 the result equals mutate_rsm on
    the same points, and no probability draws are consumed, so runs
    configured with pm = 0 stay stream-aligned with RSM runs; with pm > 0
    every pass consumes one probability draw (batched as one array) even
    when a == b.
    """
    pm = _check_probability(pm)
    if pm > 0.0 and rng is None:
        raise ValueError("an rng must be supplied for the swap draws when pm > 0")
    return _mutate_one(t, "HPRM", pm, _resolve_pair(np.shape(t)[0], pts, rng, strict=False), rng)


def _windows(tours: np.ndarray) -> np.ndarray:
    """Every length-n window of the rows written twice, without copying.

    Row r rotated left by s (0..n) is window r * 2n + s.
    """
    m, n = tours.shape
    doubled = np.concatenate((tours, tours), axis=1)
    step = doubled.itemsize
    return np.ndarray((2 * m * n - n + 1, n), doubled.dtype, doubled, 0, (step, step))


def _ox_rows(windows: np.ndarray, first, second, c1, c2) -> np.ndarray:
    """Order crossover of row pairs: child k of rows first[k] and second[k] of windows' tours.

    Worked in the frame rotated left by c2 + 1, where a child is its fill,
    the second parent's cities in scan order minus the kept slice, followed
    by the first parent's slice, which ends the row.
    """
    n = windows.shape[1]
    m = len(first)
    shift = c2 + 1
    child = windows[first * (2 * n) + shift]
    scan = windows[second * (2 * n) + shift]
    cities = np.arange(0, m * n, n)[:, None]  # row r's cities, offset by r * n
    fill = (np.arange(n) < (n - 1 - c2 + c1)[:, None]).reshape(-1)
    not_kept = np.empty(m * n, dtype=bool)
    not_kept[(child + cities).reshape(-1)] = fill
    child.reshape(-1)[fill] = scan.reshape(-1).compress(not_kept[(scan + cities).reshape(-1)])
    return _windows(child)[np.arange(n, 2 * m * n, 2 * n) - shift]


def crossover_ox(p1, p2, cuts=None, rng: RngStream | None = None) -> np.ndarray:
    """Order crossover: keep a slice of p1, fill the rest in p2's order.

    The child keeps p1[c1..c2] in place; the remaining positions, walked
    cyclically starting just after c2, take the cities of p2 scanned
    cyclically starting just after c2, skipping cities the slice already
    provides. cuts must satisfy c1 < c2; when omitted they are drawn
    uniformly over all such pairs.
    """
    p1 = np.asarray(p1)
    p2 = np.asarray(p2)
    if p1.shape != p2.shape:
        raise ValueError(f"parents differ in size: {p1.shape[0]} vs {p2.shape[0]}")
    c1, c2 = _resolve_pair(p1.shape[0], cuts, rng, strict=True)
    pair = _windows(np.stack((p1, p2)))
    return _ox_rows(pair, np.array([0]), np.array([1]), np.array([c1]), np.array([c2]))[0]


def wheel_index(cum, u):
    """Map uniform draws in [0, 1) to indices by cumulative weight.

    cum is a nondecreasing positive prefix-sum array; u a scalar or array.
    Index k is returned with probability proportional to its weight slice.
    Shared by the scalar and batched selection paths so both spin the exact
    same wheel.
    """
    cum = np.asarray(cum)
    return np.minimum(cum.searchsorted(np.asarray(u) * cum[-1], side="right"), cum.size - 1)


def _wheel(lengths: np.ndarray) -> np.ndarray:
    """Cumulative roulette weights of tour lengths, for wheel_index.

    Weights are fitness_of(lengths). When some tours have length 0 (every
    city at one point), they share the wheel equally, the limit of 1/L, and
    the others get no weight.
    """
    if lengths.min() > 0:  # fitness_of's check, made once
        return (1.0 / lengths).cumsum()
    zero = lengths == 0
    return np.cumsum(zero if zero.any() else fitness_of(lengths), dtype=float)


def select_roulette(pool: Population, rng: RngStream) -> int:
    """Fitness-proportionate choice of one index into the pool.

    One uniform draw against the cumulative fitness prefix sums; the pool
    must have its lengths cached.
    """
    if pool.lengths is None:
        raise ValueError("roulette selection needs cached lengths; call evaluate first")
    return int(wheel_index(_wheel(pool.lengths), rng.random()))


def variation(pop: Population, cfg: GaConfig, dm: np.ndarray, rng: RngStream) -> Population:
    """One generation of offspring from an evaluated population.

    Each of the population_size children: two roulette-drawn parents, order
    crossover with probability crossover_rate (otherwise a copy of the
    first parent), then the configured mutation applied unconditionally
    (mutation_rate only gates the swaps inside PSM and HPRM). The returned
    population is not yet evaluated.

    Draw order per generation: 2N parent draws as one batch, N crossover
    gates as one batch, then per child in child order: its cut (crossed
    children only), its mutation points (RSM, HPRM), its swap probability
    draws as one batch (PSM; HPRM with mutation_rate > 0) and its swap
    partners. Batches advance the stream exactly as the equivalent scalar
    sequence would, so replays are insensitive to the batching.

    The draws are made first, served from one raw-word block of the stream
    (RngStream.block), which yields the values numpy's own calls would;
    exactness rests on numpy's word consumption, which tests/test_rng.py
    pins. The plan is read from the block by array operations (_plan_block).
    The operators are then applied to all children at once.
    """
    if not pop.evaluated:
        raise ValueError("variation needs an evaluated population")
    _check_dimension(pop, dm)
    size, n = pop.size, pop.dimension
    op, pm = cfg.mutation_operator, cfg.mutation_rate
    # Per child: parents, gate, a word for cut and points, the swap draws of a
    # segment a fifth wider than the mean (n/3) and a word per expected hit.
    # The block grows when a generation's segments are wider still.
    swap_draws = _swap_draws(op, n, pm, 2 * n // 5)
    with rng.block(size * (4 + swap_draws) + ceil(size * swap_draws * pm)):
        parents = wheel_index(_wheel(pop.lengths), rng.random_array(2 * size))
        crossed = rng.random_array(size) < cfg.crossover_rate
        cuts, *mutation = _plan_block(n, op, pm, crossed, rng)

    children = pop.tours[parents[0::2]]
    crossed_rows = np.flatnonzero(crossed)
    c1, c2 = np.asarray(cuts, dtype=np.intp).reshape(-1, 2).T
    windows = _windows(pop.tours)
    step = max(1, _OX_BLOCK_BYTES // (n * pop.tours.itemsize))
    for lo in range(0, crossed_rows.size, step):
        block, hi = crossed_rows[lo:lo + step], lo + step
        children[block] = _ox_rows(
            windows, parents[2 * block], parents[2 * block + 1], c1[lo:hi], c2[lo:hi]
        )
    del windows  # the doubled population, freed before the reversals' index arrays
    _apply(children, *mutation)
    return Population(children)
