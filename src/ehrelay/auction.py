"""Share auction for the harvested relay budget.

The relay announces a unit price ``pi`` and a reserve bid ``xi`` (0.01 P_r
in the served auction); each decoded pair i submits a bid b_i and receives
the budget share

    P_i = b_i / (sum_j b_j + xi) * P_r.

Pair i's payoff is its second-hop rate minus the cost of the power it
buys, U_i = (1/2) log2(1 + P_i |g_i|^2) - pi * P_i.  The payoff is
maximized at the interior target P_i = T_i = 1/(2 ln2 pi) - 1/|g_i|^2,
which yields the best-response bid

    b_i = T_i / (P_r - T_i) * (sum_{j != i} b_j + xi)

whenever 0 < T_i < P_r (bid 0 when priced out, a large cap when the pair
would buy the whole budget).  Synchronous best-response dynamics contract
to the unique fixed point whenever

    mu(pi) = sqrt(N) * sqrt(sum_i rho_i^2) + max_i rho_i < 1,

with rho_i = T_i / (P_r - T_i); ``select_price`` finds the cheapest price
with that certificate and backs it off by a safety margin.

The auction's outcome is that fixed point, the Nash equilibrium at the
announced price, which has a closed form (``predict_allocation``, at the
fixed reserve): each interior pair gets its target, and full-budget pairs
split what the interior demand leaves (``_capped_share``, which the price
scan shares).  The price scan scores each candidate price with its
served count (-1 where no equilibrium exists), checks the winner's
radius alone, on rho from ``_branches`` (shared too), and
``allocate_auction`` returns that score.  The dynamics
(``run_auction``, at any reserve) are how the pairs reach it, and the
reference that the tests hold the closed form against.

Row r of a (rows, pairs) gain array is one auction, and a zero gain marks
a pair not in it (its quit price is 0, so it never bids).  The two prices,
the certificate and the dynamics take one auction, or such a block with a
budget (and price) per row; ``predict_allocation`` broadcasts unchecked
arrays, and ``iteration_spectral_radius`` takes one auction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "B_MAX", "LN2", "AuctionState", "interior_target", "quit_price", "full_budget_price",
    "contraction_modulus", "iteration_spectral_radius", "predict_allocation", "run_auction",
    "select_price", "winner_maximizing_price", "allocate_auction",
]

LN2 = math.log(2.0)
B_MAX = 1e12  # stand-in for an unbounded bid when T_i >= P_r
# rungs of the max-winners ladder scored per chunk of rows: bounds the
# scan's memory (its largest arrays hold one entry per rung)
_CHUNK_RUNGS = 1 << 14
# multiple of the demand's rounding error bound that the max-winners scan
# allows for (2 would do: see _ladder_scores)
_DEMAND_SLACK = 4.0
_TOLERANCE = 1e-10  # relative sup-norm stop of the best-response dynamics
_MAX_ITERATIONS = 500  # and their iteration cap
# spectral radius below which a max-winners candidate price counts as
# comfortably convergent
_RADIUS_LIMIT = 0.93
_RESERVE_FRACTION = 0.01  # the relay's reserve bid xi, as a fraction of its budget P_r
_PRICE_MARGIN = 0.05  # the certified price's back-off above the certificate threshold


class AuctionState(NamedTuple):
    """Result of the bid dynamics, one entry per row (one auction: its row)."""

    bids: np.ndarray
    allocation: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual: np.ndarray


def interior_target(price, g2) -> np.ndarray:
    """Power a pair would buy if the share rule placed no cap: T_i."""
    with np.errstate(divide="ignore"):
        return 1.0 / (2.0 * LN2 * price) - 1.0 / np.asarray(g2, dtype=float)


def quit_price(g2) -> np.ndarray:
    """Price above which a pair bids nothing: |g|^2 / (2 ln2)."""
    return np.asarray(g2, dtype=float) / (2.0 * LN2)


def full_budget_price(g2, total_power) -> np.ndarray:
    """Price below which a pair wants the entire budget."""
    g2 = np.asarray(g2, dtype=float)
    return g2 / (2.0 * LN2 * (1.0 + total_power * g2))


def _block(g2, total_power, *, rows: bool = True) -> tuple[np.ndarray, np.ndarray, bool]:
    """Validated auctions as a (rows, pairs) block, and whether one was given."""
    g2 = np.asarray(g2, dtype=float)
    if g2.ndim not in ((1, 2) if rows else (1,)) or g2.shape[-1] < 1:
        raise ValueError("g2 must be a non-empty 1-D array" + rows * " or a (rows, pairs) block")
    block = g2.reshape(-1, g2.shape[-1])
    if not ((block >= 0.0).all() and (block.max(axis=1) > 0.0).all()):
        raise ValueError("gains must be non-negative, with a positive gain in every auction")
    total_power = np.broadcast_to(np.asarray(total_power, dtype=float), block.shape[:1])
    if not (total_power > 0.0).all():
        raise ValueError("total_power must be positive")
    return block, total_power, g2.ndim == 1


def contraction_modulus(price, total_power, g2):
    """Certificate mu(pi); the dynamics contract when mu < 1."""
    g2, total_power, single = _block(g2, total_power)
    mu = _modulus(price, total_power, g2)
    return float(mu[0]) if single else mu


def _modulus(price, total_power, g2) -> np.ndarray:
    """``contraction_modulus`` of each row of a block that ``_block`` has validated."""
    rho = predict_allocation(np.reshape(price, (-1, 1)), total_power[:, None], g2)[2]
    return np.sqrt(np.count_nonzero(g2, axis=1)) * np.sqrt((rho * rho).sum(axis=1)) + rho.max(axis=1)


def _radius_below(rho: np.ndarray, limit) -> np.ndarray:
    """Whether the update's spectral radius is below ``limit``, per row.

    Over the interior pairs the Jacobian J = rho 1^T - diag(rho) is similar
    to a symmetric matrix and has trace 0.  Off the poles -rho_i its
    eigenvalues solve the secular equation f(lam) = sum_i rho_i / (lam +
    rho_i) = 1 (Golub 1973), with one positive root; the trace makes that
    root the largest modulus, and f falls on (0, inf), so the radius is
    below L iff f(L) < 1.  Zero rho (no interior pair) adds no term.
    """
    return (rho / (np.asarray(limit)[..., None] + rho)).sum(axis=-1) < 1.0


def iteration_spectral_radius(price: float, total_power: float, g2) -> float:
    """Exact modulus of the synchronous update.

    For a fixed price the branch of every pair is bid-independent, so the
    update is affine in the bids and converges iff the spectral radius of
    its Jacobian (over the interior pairs) is below one.  It is the
    positive root of the secular equation of ``_radius_below``, found by
    bisection from sum(rho), which exceeds it.  The contraction
    certificate upper-bounds it by roughly a factor sqrt(N).
    """
    rho = predict_allocation(price, total_power, _block(g2, total_power, rows=False)[0][0])[2]
    if np.count_nonzero(rho) <= 1:
        return 0.0
    lo, hi = 0.0, float(rho.sum())
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if _radius_below(rho, mid) else (mid, hi)
    return hi


def _capped_share(capped, demand, total_power):
    """Grant of each of ``capped`` pairs bidding ``B_MAX`` beside an interior
    ``demand``, at the relay's reserve bid; non-increasing in ``demand``."""
    sigma = demand / total_power
    reserve = _RESERVE_FRACTION * total_power
    total_bids = (capped * B_MAX + sigma * reserve) / (1.0 - sigma)
    return B_MAX / (total_bids + reserve) * total_power


def _branches(price, total_power, g2):
    """Capped mask (T_i >= P_r), interior targets (else 0) and rho, as in ``predict_allocation``."""
    t = interior_target(price, g2)
    capped = t >= total_power
    interior = np.where((t > 0.0) & ~capped, t, 0.0)
    return capped, interior, interior / (total_power - interior)


def predict_allocation(price, total_power, g2):
    """Closed-form equilibrium at each price, whether it exists, and rho.

    Interior pairs end up with exactly their target T_i; full-budget pairs
    split what the interior demand leaves (``_capped_share``).  It exists
    when the interior demand alone is below the budget (else the dynamics do
    not settle).  rho_i = T_i / (P_r - T_i) on the interior branch, else 0,
    weighs the others' bids in pair i's best response.  The arguments
    broadcast, unchecked, with pairs on the last axis and ``total_power`` a
    float or an array with a length-1 last axis.
    """
    capped, interior, rho = _branches(price, total_power, g2)
    demand = interior.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = _capped_share(np.count_nonzero(capped, axis=-1)[..., None], demand, total_power)
    exists = (demand < total_power)[..., 0]
    return np.where(capped, share, interior), exists, rho


def run_auction(g2, total_power, price, reserve) -> AuctionState:
    """Best-response dynamics of every row from the all-ones bid vector.

    The reference that the served equilibrium is held against, not the
    served path.  ``price`` and ``reserve`` are positive, one per row or
    one for all.  A row stops updating once its sup-norm bid change is
    within ``_TOLERANCE * max(1, ||b||_inf)`` (or after ``_MAX_ITERATIONS``
    rounds), and each round adds a row up with numpy's sum of that row
    alone, so its bids, iteration count and residual are those of its own
    run.  The allocation applies the share rule to the final bids.
    """
    g2, total_power, single = _block(g2, total_power)
    price, reserve = (np.broadcast_to(x, total_power.shape).astype(float) for x in (price, reserve))
    if not (np.isfinite(price) & (price > 0.0) & np.isfinite(reserve) & (reserve > 0.0)).all():
        raise ValueError("price and reserve must be positive and finite")
    # best response b_i = rho_i (sum_{j != i} b_j + xi) + cap_i: interior pairs scale
    # the others' bids, full-budget pairs bid B_MAX, priced-out (and absent) ones 0
    g2 = np.ascontiguousarray(g2)
    w = predict_allocation(price[:, None], total_power[:, None], g2)[2]
    cap = np.where(interior_target(price[:, None], g2) >= total_power[:, None], B_MAX, 0.0)
    b = (g2 > 0.0).astype(float)
    bids = np.empty_like(b)
    iterations = np.empty(len(g2), dtype=int)
    residual = np.empty(len(g2))
    # rows[k] is the block row of working row k; a row that stops leaves the set
    rows, xi = np.arange(len(g2)), reserve[:, None]
    for it in range(1, _MAX_ITERATIONS + 1):
        new = w * (b.sum(axis=1, keepdims=True) - b + xi) + cap
        # bids are non-negative, so |new| is new
        res = np.abs(new - b).max(axis=1) / np.maximum(1.0, new.max(axis=1))
        b = new
        stop = (res <= _TOLERANCE) | (it == _MAX_ITERATIONS)
        if stop.any():
            done = rows[stop]
            bids[done], iterations[done], residual[done] = b[stop], it, res[stop]
            rows, b, w, cap, xi = (x[~stop] for x in (rows, b, w, cap, xi))
            if not rows.size:
                break
    allocation = bids / (bids.sum(axis=1, keepdims=True) + reserve[:, None]) * total_power[:, None]
    state = AuctionState(bids, allocation, iterations, residual <= _TOLERANCE, residual)
    return AuctionState(*(x[0] for x in state)) if single else state


def select_price(g2, total_power):
    """Cheapest price with a contraction certificate, plus a safety margin.

    Bisects over (min_i full_budget_price, max_i quit_price) for the
    smallest price with mu < 1 (mu -> 0 at the quit price of the best
    pair, so a certified price exists) and returns the threshold scaled
    by ``1 + _PRICE_MARGIN``, kept strictly below the upper endpoint so
    the best pair stays in the market.  If the scaled price lands on an
    uncertified pocket (the modulus is only piecewise monotone once pairs
    start capping), it is nudged toward the upper endpoint until
    certified.  Each row of a block bisects until its own stop.
    """
    g2, total_power, single = _block(g2, total_power)
    lo = np.where(g2 > 0.0, full_budget_price(g2, total_power[:, None]), np.inf).min(axis=1)
    upper = quit_price(g2).max(axis=1)
    hi = upper.copy()
    # just below the quit price only the best pair is active, with a target near
    # 1e-12 / g2_max, so a vanishing weight unless g2_max P_r is about 1e-12 or less;
    # such a row keeps the quit price, where every pair is priced out
    certified = _modulus(upper * (1.0 - 1e-12), total_power, g2) < 1.0
    live = np.flatnonzero(certified)
    for _ in range(200):
        mid = 0.5 * (lo[live] + hi[live])
        ok = _modulus(mid, total_power[live], g2[live]) < 1.0
        hi[live] = np.where(ok, mid, hi[live])
        lo[live] = np.where(ok, lo[live], mid)
        if not (live := live[~(hi[live] - lo[live] <= 1e-14 * hi[live])]).size:
            break
    scaled = hi * (1.0 + _PRICE_MARGIN)
    price = np.where(scaled >= upper, 0.5 * (hi + upper), scaled)
    live = np.flatnonzero(certified)
    # mu -> 0 as the price approaches the best pair's quit price
    while (live := live[_modulus(price[live], total_power[live], g2[live]) >= 1.0]).size:
        price[live] = 0.5 * (price[live] + upper[live])
    price = np.where(certified, price, upper)
    return float(price[0]) if single else price


def _boundary(holds, base, width: int) -> np.ndarray:
    """First offset k in [0, width] at which ``holds`` turns true, per entry.

    ``holds(i)`` tests the flat positions ``i = base + k`` of each entry's
    row, k below the row stride 2^L, the least power of two above
    ``width``; along a row it must be false, then true, and it should hold
    on the padding from ``width`` on (the result is clipped to ``width``).
    Binary lifting: L = ceil(log2(width + 1)) fixed steps of one gather.
    """
    last = base - 1  # the last position known to fail
    steps = np.min_scalar_type(width)  # the narrowest type of every step
    for step in (1 << b for b in reversed(range(width.bit_length()))):
        last += step
        last -= np.multiply(holds(last), steps.type(step), dtype=steps)
    return np.minimum(last - base + 1, width)


def _served(price, total_power, g2, snr_threshold):
    """Count of the pairs whose equilibrium grant at each price meets their
    requirement ``snr_threshold / g2`` (-1 where no equilibrium exists), and rho."""
    with np.errstate(divide="ignore", invalid="ignore"):
        alloc, exists, rho = predict_allocation(price, total_power, g2)
        return np.where(exists, np.count_nonzero(alloc >= snr_threshold / g2, axis=-1), -1), rho


def _ladder_scores(g2, total_power, snr_threshold):
    """A chunk's ladders and the served count of every usable rung (else -1).

    The rungs come from the row-sorted gains s, so each of
    ``predict_allocation``'s per-pair decisions at a rung's level A = 1/(2
    ln2 pi) (a pair's target is A - 1/s) is an exact float test monotone
    along the sorted pairs: live ``A > 1/s``, capped ``A - 1/s >= P_r``,
    uncapped served ``max(A - 1/s, 0) >= a/s`` (the grant is the target, or
    0) and capped served ``_capped_share >= a/s``; ``_boundary`` finds where
    each turns.  The demand, the interior targets' sum, comes from prefix
    sums of 1/s within delta of whatever order ``predict_allocation`` adds
    the targets in.  ``_capped_share`` is monotone in the demand, so
    usability and the capped served count at demand -/+ delta bracket the
    exact ones; where the two ends differ, the rung is scored by
    ``_served``, the equilibrium itself.
    """
    rows, m = g2.shape
    p = total_power[:, None]
    s = np.sort(g2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        candidates = np.concatenate([
            full_budget_price(s, p) * (1.0 - 1e-3),
            # T_i(pi) = requirement_i at pi = g2_i / (2 ln2 (1 + snr_threshold)); just
            # below it the grant clears the requirement despite rounding
            s / (2.0 * LN2 * (1.0 + snr_threshold)) * (1.0 - 1e-9),
            quit_price(s[:, -1:]) * (1.0 - 1e-6),
        ], axis=1)
        # 1/s, a/s and the prefix sums of 1/s over positive gains, each row padded
        # to the stride of _boundary with -inf, where every test holds
        stride = 1 << m.bit_length()
        inv, need, prefix = np.full((3, rows, stride), -np.inf)
        np.divide(1.0, s, out=inv[:, :m])
        np.divide(snr_threshold, s, out=need[:, :m])
        prefix[:, 0] = 0.0
        np.cumsum(np.where(s > 0.0, inv[:, :m], 0.0), axis=1, out=prefix[:, 1:m + 1])
        inv, need, prefix = inv.ravel(), need.ravel(), prefix.ravel()
        # only a positive price can win (an undecoded pair adds two zero rungs)
        rung = np.flatnonzero(candidates > 0.0)
        row = rung // candidates.shape[1]
        level = 1.0 / (2.0 * LN2 * candidates.ravel()[rung])
        pr, base = total_power[row], row * stride
        live = _boundary(lambda i: level > inv[i], base, m)
        cap = _boundary(lambda i: level - inv[i] >= pr, base, m)
        below_live, below_cap = prefix[base + live], prefix[base + cap]
        reach = (cap - live) * level
        demand = reach - (below_cap - below_live)
        # predict_allocation's sum of the targets, in any order, and this difference
        # of prefix sums each err by under (M + 2) 2^-53 (reach + below_cap + below_live)
        delta = _DEMAND_SLACK * (m + 2) * 2.0**-53 * (reach + below_cap + below_live)
        sure = demand + delta < pr
        unsure = ~sure & ~(demand - delta >= pr)
        # score the sure rungs
        u = np.flatnonzero(sure)
        level, pr, base, cap, demand, delta = (x[u] for x in (level, pr, base, cap, demand, delta))
        uncapped = _boundary(lambda i: np.maximum(level - inv[i], 0.0) >= need[i], base, m)
        count = cap - np.minimum(uncapped, cap)
        low, high = (_capped_share(m - cap, d, pr) for d in (demand + delta, demand - delta))
        served = np.maximum(_boundary(lambda i: low >= need[i], base, m), cap)
        count += m - served
        # the pair just below the boundary would count at the high end
        unsure[u] = (served > cap) & (need[base + np.maximum(served, 1) - 1] <= high)
    scores = np.full(candidates.shape, -1)
    scores.ravel()[rung[u]] = count
    if (v := np.flatnonzero(unsure)).size:
        price = candidates.ravel()[rung[v], None]
        scores.ravel()[rung[v]] = _served(price, total_power[row[v], None], g2[row[v]], snr_threshold)[0]
    return candidates, scores


def _chunk_price(g2, total_power, snr_threshold):
    """Max-winners prices and served counts of a chunk of rows (NaN, -1 where no rung is usable).

    Rungs are tried best first, by served count and then price.  A rung
    with no equilibrium scores -1 (the radius test can pass where the demand
    rounds to the budget), so the radius test on the row's own pair order
    checks its best rung, whose score is its count; else it tries the next.
    """
    candidates, scores = _ladder_scores(g2, total_power, snr_threshold)
    price, count = np.full(len(g2), np.nan), np.full(len(g2), -1)
    rows = np.flatnonzero(scores.max(axis=1) >= 0)
    while rows.size:
        best = scores[rows]
        most = best.max(axis=1)
        top = np.where(best == most[:, None], candidates[rows], -np.inf).max(axis=1)
        rho = _branches(top[:, None], total_power[rows, None], g2[rows])[2]
        ok = _radius_below(rho, _RADIUS_LIMIT)
        price[rows[ok]], count[rows[ok]] = top[ok], most[ok]
        # a rejected price is rejected at every rung that repeats it
        rows, top = rows[~ok], top[~ok]
        scores[rows] = np.where(candidates[rows] == top[:, None], -1, scores[rows])
        rows = rows[scores[rows].max(axis=1) >= 0]
    return price, count


def winner_maximizing_price(g2, total_power, snr_threshold: float):
    """Price that maximizes the number of served pairs at equilibrium, and that number.

    The served count is piecewise constant in the price, changing only
    where a pair's equilibrium grant crosses its requirement or a pair
    enters/leaves the full-budget branch, so it suffices to scan a ladder
    of candidate prices:

    - just below each pair's full-budget price (pair i enters capped),
    - each price where an interior pair's target equals its requirement,
    - just below the highest quit price (everyone priced out but the best
      pair; with every active pair capped the split matches equal shares).

    Candidates whose dynamics are not comfortably convergent (exact
    spectral radius >= ``_RADIUS_LIMIT``, or interior demand exceeding the
    budget) are discarded.  Ties go to the higher price: it sells less
    power for the same service.  Falls back to the certified price when
    no candidate survives.  A block is priced in chunks of near-equal
    rows, each of at most ``_CHUNK_RUNGS`` rungs; each rung's count comes
    from boundary searches on the sorted gains (see ``_ladder_scores``),
    equal bit for bit to scoring it with ``predict_allocation``; only the
    winning rung's radius is computed.
    Returns ``(price, count)``, ``_served``'s count at that price, per row
    of a block, or a float and an int for one auction.
    """
    g2, total_power, single = _block(g2, total_power)
    chunks = -(-len(g2) // max(1, _CHUNK_RUNGS // (2 * g2.shape[1] + 1)))
    price, count = np.empty(len(g2)), np.empty(len(g2), dtype=int)
    for i in range(chunks):
        rows = slice(i * len(g2) // chunks, (i + 1) * len(g2) // chunks)
        price[rows], count[rows] = _chunk_price(g2[rows], total_power[rows], snr_threshold)
    if (fallback := np.flatnonzero(np.isnan(price))).size:
        gains, pr = g2[fallback], total_power[fallback, None]
        price[fallback] = select_price(gains, pr[:, 0])
        count[fallback] = _served(price[fallback, None], pr, gains, snr_threshold)[0]
        if missing := np.count_nonzero(count[fallback] < 0):
            raise RuntimeError(f"the certified price has no equilibrium in {missing} of {len(gains)} auctions")
    return (float(price[0]), int(count[0])) if single else (price, count)


def allocate_auction(
    g2: np.ndarray, decoded: np.ndarray, budget: np.ndarray, snr_threshold: float
) -> np.ndarray:
    """Auction's served count for a block of draws, all trials' auctions at once.

    ``g2`` and ``decoded`` have shape (trials, pairs), ``budget`` shape
    (trials,).  In each trial the decoded pairs bid for the budget P_r,
    the relay reserving ``xi = 0.01 P_r``, at the price serving the most
    pairs against the requirement ``snr_threshold / g2``
    (``winner_maximizing_price``, in chunks of rows; a row with no usable
    rung takes the certified price of ``select_price``).  Either price is
    one where the auction's Nash equilibrium (``predict_allocation``)
    exists and the best-response dynamics contract to it.  Returns the
    count of pairs whose equilibrium grant meets their requirement, the
    score the price scan gave that price, per trial, 0 where none decoded.
    """
    count = np.zeros(len(decoded), dtype=int)
    rows = np.flatnonzero(decoded.any(axis=1))
    gains = np.where(decoded[rows], g2[rows], 0.0)
    count[rows] = winner_maximizing_price(gains, budget[rows], snr_threshold)[1]
    return count
