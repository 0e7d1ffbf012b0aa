"""Auction game: best responses, convergence, pricing, equilibrium quality."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ehrelay.auction import (
    B_MAX,
    LN2,
    allocate_auction,
    contraction_modulus,
    full_budget_price,
    interior_target,
    iteration_spectral_radius,
    predict_allocation,
    quit_price,
    run_auction,
    select_price,
    winner_maximizing_price,
)
from ehrelay import auction
from ehrelay.model import SystemConfig, harvest, power_from_snr_db, sample_block
from oracles import (
    _scalar_weights,
    best_response,
    eig_spectral_radius,
    golden_section_max,
    ladder_winner_price,
    payoff,
    scalar_auction_row,
    scalar_modulus,
    scalar_predict,
    scalar_run_auction,
    scalar_select_price,
)


def rand_instance(rng, n=None, scale=1.0):
    n = n if n is not None else int(rng.integers(1, 11))
    g2 = rng.exponential(scale, n) + 1e-9
    pr = float(rng.exponential(5.0)) + 0.1
    return g2, pr


def test_payoff_zero_bid_is_zero():
    g2 = np.array([1.0, 2.0])
    bids = np.array([0.0, 3.0])
    assert payoff(0, bids, 0.5, 4.0, g2, 0.04) == 0.0


def test_payoff_increasing_when_power_is_free():
    g2 = np.array([1.0])
    vals = [payoff(0, np.array([b]), 0.0, 4.0, g2, 0.04) for b in (0.1, 1.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_best_response_quit_branch():
    g2 = np.array([1.0, 0.5])
    price = quit_price(g2)[0] * 1.01  # above both quit prices
    assert best_response(0, np.ones(2), price, 4.0, g2, 0.04) == 0.0
    assert best_response(1, np.ones(2), price, 4.0, g2, 0.04) == 0.0


def test_best_response_cap_branch():
    g2 = np.array([5.0])
    price = float(full_budget_price(g2, 2.0)[0]) * 0.9
    assert best_response(0, np.ones(1), price, 2.0, g2, 0.02) == B_MAX


def test_best_response_interior_formula():
    g2 = np.array([2.0, 1.0])
    price, pr, xi = 0.2, 5.0, 0.05
    t = 1.0 / (2.0 * LN2 * price) - 1.0 / g2[0]
    bids = np.array([1.3, 0.7])
    want = t / (pr - t) * (bids[1] + xi)
    assert best_response(0, bids, price, pr, g2, xi) == pytest.approx(want, rel=1e-12)


def test_best_response_rejects_nonpositive_price():
    with pytest.raises(ValueError):
        best_response(0, np.ones(1), 0.0, 1.0, np.array([1.0]), 0.01)


def test_best_response_matches_golden_section_argmax():
    # numerical argmax of the payoff over own bid, others fixed
    rng = np.random.default_rng(3)
    for _ in range(25):
        g2, pr = rand_instance(rng, n=3)
        price = select_price(g2, pr)
        bids = rng.exponential(1.0, 3)
        xi = 0.01 * pr
        i = int(rng.integers(3))

        def util(x):
            b = bids.copy()
            b[i] = x
            return payoff(i, b, price, pr, g2, xi)

        xstar = golden_section_max(util, 0.0, B_MAX)
        br = best_response(i, bids, price, pr, g2, xi)
        assert util(br) >= util(xstar) - 1e-6


def test_local_information_form_identity():
    # interior response equals rho_i (P_r - P_ri) b_i / P_ri at any state
    g2 = np.array([2.0, 1.0, 0.5])
    pr, xi, price = 5.0, 0.05, 0.2
    bids = np.array([1.4, 0.2, 3.0])
    t = interior_target(price, g2)
    shares = bids / (bids.sum() + xi) * pr
    for i in range(3):
        if not 0.0 < t[i] < pr:
            continue
        rho = t[i] / (pr - t[i])
        want = rho * (pr - shares[i]) * bids[i] / shares[i]
        got = best_response(i, bids, price, pr, g2, xi)
        assert got == pytest.approx(want, rel=1e-12)


def test_single_user_fixed_point():
    g2 = np.array([1.5])
    pr = 3.0
    price = select_price(g2, pr)
    t = float(interior_target(price, g2)[0])
    state = run_auction(g2, pr, price, 0.03)
    assert state.converged
    assert float(state.allocation[0]) == pytest.approx(t, abs=1e-9)
    # closed-form fixed point b* = T/(P_r - T) xi
    assert float(state.bids[0]) == pytest.approx(t / (pr - t) * 0.03, rel=1e-8)


def test_all_priced_out():
    g2 = np.array([1.0, 0.5])
    price = float(quit_price(g2).max()) * 1.1
    state = run_auction(g2, 4.0, price, 0.04)
    assert state.converged
    assert not state.bids.any()
    assert not state.allocation.any()


def test_run_auction_converges_with_modulus_rate():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g2, pr = rand_instance(rng)
        price = select_price(g2, pr)
        mu = contraction_modulus(price, pr, g2)
        assert mu < 1.0
        state = run_auction(g2, pr, price, 0.01 * pr)
        assert state.converged
        assert state.iterations <= 500
        assert state.residual <= 1e-10


def test_run_auction_capped_pair_matches_scalar_iteration():
    # pair 1 wants the whole budget, pairs 0 and 2 are interior, pair 3 is
    # priced out: the vector update must reproduce the literal per-pair
    # iteration of the scalar best response bit for bit
    g2 = np.array([0.8, 2.07, 0.5, 0.3])
    pr = 1.4
    price = float(full_budget_price(g2, pr).max()) * 0.9
    targets = interior_target(price, g2)
    assert targets[1] >= pr and 0.0 < targets[0] < pr and 0.0 < targets[2] < pr
    assert targets[3] <= 0.0
    reserve = 0.01 * pr
    state = run_auction(g2, pr, price, reserve)
    bids = np.ones_like(g2)
    for iterations in range(1, auction._MAX_ITERATIONS + 1):
        new = np.array([best_response(i, bids, price, pr, g2, reserve) for i in range(4)])
        residual = float(np.abs(new - bids).max()) / max(1.0, float(np.abs(new).max()))
        bids = new
        if residual <= auction._TOLERANCE:
            break
    assert state.converged and state.iterations == iterations > 1
    assert state.residual == residual
    assert state.bids.tobytes() == bids.tobytes()
    assert state.allocation.tobytes() == (bids / (bids.sum() + reserve) * pr).tobytes()


def test_reserve_share_stays_at_relay():
    g2 = np.array([2.0, 1.0])
    pr = 3.0
    price = select_price(g2, pr)
    state = run_auction(g2, pr, price, 0.03)
    assert state.converged
    assert float(state.allocation.sum()) < pr


@given(seed=hst.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_contraction_certificate_property(seed):
    # ||BR(x) - BR(y)||_2 <= mu ||x - y||_2 whenever mu < 1
    rng = np.random.default_rng(seed)
    g2, pr = rand_instance(rng)
    n = g2.size
    price = select_price(g2, pr)
    mu = contraction_modulus(price, pr, g2)
    if not mu < 1.0:
        return
    xi = 0.01 * pr
    x = rng.exponential(1.0, n)
    y = rng.exponential(1.0, n)
    bx = np.array([best_response(i, x, price, pr, g2, xi) for i in range(n)])
    by = np.array([best_response(i, y, price, pr, g2, xi) for i in range(n)])
    lhs = float(np.linalg.norm(bx - by))
    rhs = mu * float(np.linalg.norm(x - y))
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


@given(seed=hst.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_spectral_radius_below_certificate(seed):
    rng = np.random.default_rng(seed)
    g2, pr = rand_instance(rng)
    price = float(rng.uniform(quit_price(g2).min() * 0.2, quit_price(g2).max()))
    if price <= 0.0:
        return
    mu = contraction_modulus(price, pr, g2)
    if math.isinf(mu):
        return
    assert iteration_spectral_radius(price, pr, g2) <= mu + 1e-9


@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    repeats=hst.integers(min_value=0, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_spectral_radius_matches_eigenvalues(seed, repeats):
    # the secular-equation radius and the f(L) < 1 filter against
    # np.linalg.eigvals of J = rho 1^T - diag(rho); repeated gains give
    # repeated rho, whose -rho eigenvalue solves no secular equation
    rng = np.random.default_rng(seed)
    g2, pr = rand_instance(rng, n=int(rng.integers(2, 11)))
    g2[: repeats + 1] = g2[0]
    price = float(rng.uniform(quit_price(g2).min() * 0.2, quit_price(g2).max()))
    want = eig_spectral_radius(price, pr, g2)
    got = iteration_spectral_radius(price, pr, g2)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
    rho = predict_allocation(price, pr, g2)[2]
    for limit in (0.93, 0.5 * want, 0.999 * want, 1.001 * want, 2.0 * want, *rho):
        if limit > 0.0 and abs(limit - want) > 1e-9 * want:
            assert bool(auction._radius_below(rho, limit)) == (want < limit), limit


def rand_block(rng, rows=30):
    """(rows, pairs) gains, all positive, a budget per row and prices from
    below the lowest full-budget price to the highest quit price, so rows
    hold priced-out, interior and full-budget pairs."""
    g2 = rng.exponential(1.0, (rows, int(rng.integers(1, 26)))) * 10.0 ** rng.uniform(-3, 3, (rows, 1)) + 1e-12
    pr = rng.exponential(5.0, rows) + 0.01
    low = full_budget_price(g2, pr[:, None]).min(axis=1) * 0.5
    price = np.exp(rng.uniform(np.log(low), np.log(quit_price(g2).max(axis=1))))
    return g2, pr, price


@pytest.mark.parametrize("seed", range(5))
def test_predict_allocation_rho_matches_scalar_weights(seed):
    # rho is T_i / (P_r - T_i) on the interior branch and 0 on the other two,
    # bit for bit, whether a block or one auction at a time is given
    rng = np.random.default_rng(seed)
    g2, pr, price = rand_block(rng)
    rho = predict_allocation(price[:, None], pr[:, None], g2)[2]
    t = interior_target(price[:, None], g2)
    branches = np.select([t <= 0.0, t >= pr[:, None]], [0, 2], 1)
    assert set(np.unique(branches)) == {0, 1, 2}
    for row in range(len(g2)):
        want = _scalar_weights(price[row], pr[row], g2[row])
        assert rho[row].tobytes() == want.tobytes(), row
        assert predict_allocation(price[row], pr[row], g2[row])[2].tobytes() == want.tobytes(), row
    assert (rho[branches != 1] == 0.0).all() and (rho[branches == 1] > 0.0).all()


@pytest.mark.parametrize("seed", range(5))
def test_contraction_modulus_and_select_price_match_scalar_oracles(seed):
    # every row of a block with all-positive gains, against the scalar
    # certificate and the scalar bisection, bit for bit
    rng = np.random.default_rng(100 + seed)
    g2, pr, price = rand_block(rng)
    mu = contraction_modulus(price, pr, g2)
    certified = select_price(g2, pr)
    for row in range(len(g2)):
        assert mu[row].tobytes() == np.float64(scalar_modulus(price[row], pr[row], g2[row])).tobytes(), row
        want = scalar_select_price(g2[row], pr[row])
        assert certified[row].tobytes() == np.float64(want).tobytes(), row


def test_select_price_certified_and_inside_bracket():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g2, pr = rand_instance(rng)
        price = select_price(g2, pr)
        assert contraction_modulus(price, pr, g2) < 1.0
        assert price < float(quit_price(g2).max())


def test_select_price_single_user_strictly_interior():
    for g, pr in [(1.0, 3.0), (0.2, 0.5), (5.0, 0.01), (0.01, 0.1)]:
        g2 = np.array([g])
        price = select_price(g2, pr)
        assert float(full_budget_price(g2, pr)[0]) < price < float(quit_price(g2)[0])


def test_select_price_keeps_the_quit_price_when_none_below_it_is_certified(monkeypatch):
    # the certificate is probed 1e-12 below the best quit price, where the best
    # pair's target is about 1e-12 / g2_max; at g2_max P_r near 1e-12 that is not
    # small against P_r, the probe fails, and the row keeps the quit price, at
    # which every pair is priced out.  The second row is a normal auction.
    g2 = np.array([[1e-12, 5e-13], [1.0, 0.5]])
    pr = np.array([1.5, 1.5])
    upper = quit_price(g2).max(axis=1)
    assert contraction_modulus(upper[0] * (1.0 - 1e-12), pr[0], g2[0]) == pytest.approx(4.83, abs=0.01)
    price = select_price(g2, pr)
    for row in range(2):
        assert price[row].tobytes() == np.float64(scalar_select_price(g2[row], pr[row])).tobytes()
    assert price[0].tobytes() == upper[0].tobytes()
    assert price[0] == 7.213475204444817e-13
    assert contraction_modulus(price[0], pr[0], g2[0]) == 0.0
    assert price[1] < upper[1] and contraction_modulus(price[1], pr[1], g2[1]) < 1.0
    for certified in (False, True):
        if certified:
            _serve_at_certified_price(monkeypatch)
        served = allocate_auction(g2, np.ones_like(g2, dtype=bool), pr, 0.1)
        assert served[0] == 0, certified
        assert served[1] > 0, certified


def test_select_price_validation():
    with pytest.raises(ValueError):
        select_price(np.array([]), 1.0)
    with pytest.raises(ValueError):
        select_price(np.array([-1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        select_price(np.zeros((2, 3)), np.ones(2))  # an auction with no bidder
    with pytest.raises(ValueError):
        select_price(np.array([1.0]), 0.0)


def test_run_auction_validation():
    for price, reserve in ((0.0, 0.01), (-1.0, 0.01), (math.inf, 0.01), (0.1, 0.0), (0.1, math.nan)):
        with pytest.raises(ValueError, match="price and reserve must be positive and finite"):
            run_auction(np.array([1.0, 2.0]), 1.0, price, reserve)
    with pytest.raises(ValueError, match="price and reserve"):  # one bad row of a block
        run_auction(np.ones((2, 2)), np.ones(2), np.array([0.1, -0.1]), 0.01)
    with pytest.raises(ValueError):  # a price per row, for the wrong number of rows
        run_auction(np.ones((2, 2)), np.ones(2), np.full(3, 0.1), 0.01)


def test_predict_allocation_matches_dynamics():
    rng = np.random.default_rng(17)
    for _ in range(60):
        g2, pr = rand_instance(rng, scale=0.0625)
        price, count = winner_maximizing_price(g2, pr, 1.0)
        pred, exists, _ = predict_allocation(price, pr, g2)
        assert exists
        assert count == np.count_nonzero(pred >= 1.0 / g2)
        state = run_auction(g2, pr, price, 0.01 * pr)
        assert state.converged
        assert state.allocation == pytest.approx(pred, abs=1e-6 * max(1.0, pr))


def test_predict_allocation_equals_scalar_oracle_bit_for_bit():
    # the closed form against the oracle's own statement of it at the reserve
    # 0.01 P_r: prices below a random pair's full-budget price, so every
    # instance has a capped pair, and some have no equilibrium
    rng = np.random.default_rng(47)
    outcomes = []
    for _ in range(400):
        n = int(rng.integers(1, 21))
        g2 = rng.exponential(1.0, n) * 10.0 ** rng.uniform(-2.0, 2.0)
        pr = 10.0 ** rng.uniform(-3.0, 3.0)
        price = full_budget_price(rng.choice(g2), pr) * rng.uniform(0.5, 1.0)
        alloc, exists, _ = predict_allocation(price, pr, g2)
        want = scalar_predict(price, pr, g2, 0.01 * pr)
        assert exists == (want is not None)
        if exists:
            assert alloc.tobytes() == want.tobytes()
        outcomes.append(exists)
    assert 0 < outcomes.count(False) < outcomes.count(True)


@given(
    capped=hst.integers(min_value=1, max_value=1024),
    total_power=hst.floats(min_value=1e-6, max_value=1e6),
    fractions=hst.lists(hst.floats(min_value=-1.0, max_value=1.0, exclude_max=True), min_size=2, max_size=2),
)
def test_capped_share_non_increasing_in_demand(capped, total_power, fractions):
    # the price scan brackets a rung's capped served count by the grants at
    # its demand -/+ the demand's error bound, which rests on this
    low, high = sorted(np.float64(f) * total_power for f in fractions)
    with np.errstate(divide="ignore"):  # a demand that rounds to P_r leaves 0
        assert auction._capped_share(capped, high, total_power) <= auction._capped_share(capped, low, total_power)


@pytest.mark.parametrize("pairs", [None, 20], ids=["1-10", "20"])
def test_realized_served_count_equals_predicted(pairs):
    # requirement-tie candidates sit just on the served side of the tie, so
    # the converged dynamics serve exactly the pairs the prediction serves;
    # on the tie itself rounding decided, and served too few
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = pairs or int(rng.integers(1, 11))
        g2 = rng.exponential(1.0, n) * 10.0 ** rng.uniform(-2.0, 2.0)
        pr = 10.0 ** rng.uniform(-4.0, 3.0)
        a = 2.0 ** (2.0 * rng.uniform(0.1, 3.0)) - 1.0
        price, count = winner_maximizing_price(g2, pr, a)
        pred, exists, _ = predict_allocation(price, pr, g2)
        assert exists
        state = run_auction(g2, pr, price, 0.01 * pr)
        assert state.converged
        assert count == int((state.allocation >= a / g2).sum()) == int((pred >= a / g2).sum())


def test_winner_maximizing_price_serves_at_least_certified():
    rng = np.random.default_rng(23)
    a = 1.0
    for _ in range(60):
        g2, pr = rand_instance(rng, scale=0.0625)
        need = a / g2

        def served_at(price):
            state = run_auction(g2, pr, price, 0.01 * pr)
            assert state.converged
            return int((state.allocation >= need).sum())

        price, count = winner_maximizing_price(g2, pr, a)
        assert count == served_at(price) >= served_at(select_price(g2, pr))


def test_winner_maximizing_price_validation():
    with pytest.raises(ValueError):
        winner_maximizing_price(np.array([1.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        winner_maximizing_price(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]), 1.0)


def _auction_setup(h2, g2, rate=0.5, power=10.0):
    """One-draw block: (g2, decoded, budget, a) for the auction kernel."""
    config = SystemConfig(pairs=len(h2), rate=rate, source_power=power)
    decoded, _, budget = harvest(np.asarray([h2], float), config)
    return np.asarray([g2], float), decoded, budget, config.snr_threshold


def test_allocate_auction_budget_and_masks():
    g2, decoded, budget, a = _auction_setup([0.5, 0.05, 2.0], [0.8, 1.0, 1.5])
    served = allocate_auction(g2, decoded, budget, a)
    assert not decoded[0, 1]
    assert served[0] <= np.count_nonzero(decoded[0])  # the undecoded pair is not served
    assert served.tolist() == _oracle_block(g2, decoded, budget, a)[0].sum(axis=1).tolist()
    gains, pr = g2[0, decoded[0]], budget[0]
    price, _ = winner_maximizing_price(gains, pr, a)
    granted = run_auction(gains, pr, price, 0.01 * pr).allocation.sum()
    assert 0.0 < granted < pr  # reserve share withheld


def test_allocate_auction_empty_set():
    g2, decoded, budget, a = _auction_setup([0.01, 0.02], [1.0, 1.0])
    assert allocate_auction(g2, decoded, budget, a).tolist() == [0]


def _serve_at_certified_price(monkeypatch):
    """Make ``allocate_auction`` price every row with ``select_price``: no
    row's max-winners ladder has a usable rung, so every row falls back."""

    def no_rung(g2, pr, a):
        return np.full(len(g2), np.nan), np.full(len(g2), -1)

    monkeypatch.setattr(auction, "_chunk_price", no_rung)


def test_allocate_auction_serves_no_fewer_than_at_the_certified_price(monkeypatch):
    g2, decoded, budget, threshold = _auction_setup([0.5, 0.7, 2.0], [0.1, 0.25, 0.9])
    a = allocate_auction(g2, decoded, budget, threshold)
    _serve_at_certified_price(monkeypatch)
    b = allocate_auction(g2, decoded, budget, threshold)
    assert int(a.sum()) >= int(b.sum())


def test_allocate_auction_refuses_a_price_with_no_equilibrium(monkeypatch):
    # three equal gains whose targets are each 0.5 P_r: every pair is interior,
    # but their demand is 1.5 P_r, so the share rule has no equilibrium there
    g2, decoded, budget = np.ones((1, 3)), np.ones((1, 3), dtype=bool), np.array([2.0])
    price = 1.0 / (2.0 * LN2 * (0.5 * budget[0] + 1.0))
    assert interior_target(price, g2[0]) == pytest.approx([1.0, 1.0, 1.0])
    assert not predict_allocation(price, budget[0], g2[0])[1]
    # the row finds no usable rung, and its fallback is that price
    _serve_at_certified_price(monkeypatch)
    monkeypatch.setattr(auction, "select_price", lambda gains, pr: np.full(len(gains), price))
    with pytest.raises(RuntimeError, match="has no equilibrium in 1 of 1 auctions"):
        allocate_auction(g2, decoded, budget, 1.0)


def _oracle_block(g2, decoded, budget, a, *, certified=False):
    """Served mask and allocation of the scalar oracle, one auction per row,
    at the max-winners price or, if ``certified``, at the certified one."""
    served = np.zeros_like(decoded)
    allocation = np.zeros(g2.shape)
    for t in np.flatnonzero(decoded.any(axis=1)):
        idx = np.flatnonzero(decoded[t])
        gains, pr = g2[t, idx], float(budget[t])
        if certified:
            state = scalar_run_auction(gains, pr, scalar_select_price(gains, pr), 0.01 * pr)
        else:
            state = scalar_auction_row(gains, pr, a)
        assert state.converged
        allocation[t, idx] = state.allocation
        served[t, idx] = state.allocation >= a / g2[t, idx]
    return served, allocation


def _edge_block(rng, pairs, rows=90):
    """Random auctions, and rows 0-4: no decoded pair, one decoded pair, a
    budget no requirement fits in, and (from three pairs) a pair capped at
    the max-winners price (row 3) and at the certified price (row 4)."""
    g2 = rng.exponential(1.0, (rows, pairs)) * 10.0 ** rng.uniform(-1.0, 1.0, (rows, 1))
    decoded = rng.random((rows, pairs)) < 0.75
    budget = 10.0 ** rng.uniform(-2.0, 1.5, rows)
    decoded[:5] = False
    decoded[1, -1] = True
    decoded[2] = True
    budget[2] = 1e-6 * float((1.0 / g2[2]).min())
    if pairs >= 3:
        decoded[3:5, :3] = True
        g2[3, :3], budget[3] = (0.221, 0.067, 1.215), 8.397
        g2[4, :3], budget[4] = (0.5, 0.3, 0.2), 1e-3
    return g2, decoded, budget


@pytest.mark.parametrize("rule", ["max-winners", "certified"])
@pytest.mark.parametrize("pairs", [1, 3, 7])
def test_allocate_auction_matches_scalar_oracle(pairs, rule, monkeypatch):
    # below 8 pairs numpy adds up a row sequentially, so the padded block
    # reproduces the one-auction-at-a-time oracle bit for bit, at the
    # max-winners price and at its fallback, the certified one
    rng = np.random.default_rng(100 + pairs)
    g2, decoded, budget = _edge_block(rng, pairs)
    certified = rule == "certified"
    if certified:
        _serve_at_certified_price(monkeypatch)
    served = allocate_auction(g2, decoded, budget, 1.0)
    want, _ = _oracle_block(g2, decoded, budget, 1.0, certified=certified)
    assert served.tolist() == want.sum(axis=1).tolist()
    assert served[0] == 0
    assert served[2] == 0
    if pairs >= 3:
        row = 4 if certified else 3
        gains, pr = g2[row, :3], budget[row]
        price = select_price(gains, pr) if certified else winner_maximizing_price(gains, pr, 1.0)[0]
        assert (interior_target(price, gains) >= pr).any()


def test_allocate_auction_matches_scalar_oracle_at_twenty_pairs(monkeypatch):
    # at 20 pairs the block and the oracle add up in different orders:
    # served masks agree away from requirement ties, so a count lies within
    # the oracle's count off the ties plus the row's ties
    rng = np.random.default_rng(120)
    g2, decoded, budget = _edge_block(rng, 20, rows=60)
    for certified in (False, True):
        if certified:
            _serve_at_certified_price(monkeypatch)
        served = allocate_auction(g2, decoded, budget, 1.0)
        want, allocation = _oracle_block(g2, decoded, budget, 1.0, certified=certified)
        tie = np.abs(allocation - 1.0 / g2) <= 1e-6 / g2
        least = (want & ~tie).sum(axis=1)
        assert ((least <= served) & (served <= least + tie.sum(axis=1))).all()


@pytest.mark.parametrize("rule", ["max-winners", "certified"])
def test_allocate_auction_serves_what_the_bid_dynamics_reach(rule, monkeypatch):
    # allocate_auction counts the closed-form equilibrium at its price; the
    # best-response dynamics at the same price must serve as many pairs.  A
    # pair whose equilibrium grant is within 1e-8 relative of its requirement
    # could flip by rounding alone (the ladder shades a requirement-tie price
    # by 1e-9), so only a row with such a pair may differ, and on this grid none does.
    # The certified price is served too, as the fallback of a row with no usable rung
    if rule == "certified":
        _serve_at_certified_price(monkeypatch)
    differ = near_ties = 0
    for pairs in (2, 3, 5, 8, 20, 40):
        for rate in (0.5, 2.0):
            configs = [
                SystemConfig(pairs=pairs, rate=rate, source_power=power_from_snr_db(snr))
                for snr in range(0, 50, 5)
            ]
            a, parts = configs[0].snr_threshold, []
            for config in configs:
                h2, g2 = sample_block(0, 0, 200, config)
                decoded, _, budget = harvest(h2, config)
                served = allocate_auction(g2, decoded, budget, a)
                rows = decoded.any(axis=1)
                parts.append((np.where(decoded, g2, 0.0)[rows], budget[rows], served[rows]))
            # every row of a block is priced on its own, so one call prices them all
            gains, pr, served = (np.concatenate(x) for x in zip(*parts, strict=True))
            price, count = auction.winner_maximizing_price(gains, pr, a)
            assert count.tolist() == served.tolist()
            _, allocation, _, converged, _ = auction.run_auction(gains, pr, price, 0.01 * pr)
            assert converged.all()
            equilibrium, exists, _ = auction.predict_allocation(price[:, None], pr[:, None], gains)
            assert exists.all()
            with np.errstate(divide="ignore"):
                need = a / gains
            moved = served != np.count_nonzero(allocation >= need, axis=1)
            near = (np.abs(equilibrium - need) <= 1e-8 * need).any(axis=1)
            differ += int(np.count_nonzero(moved & ~near))
            near_ties += int(np.count_nonzero(moved & near))
    assert differ == 0
    assert near_ties == 0


def test_allocate_auction_predicts_no_whole_block(monkeypatch):
    # the served count is the price scan's, checked chunk by chunk through the
    # public predict_allocation (looked up at call time, so a tracer's wrapper
    # sees it): no call takes the whole block, and the counts are the oracle's
    rng = np.random.default_rng(130)
    g2, decoded, budget = _edge_block(rng, 20, rows=1000)
    chunk = auction._CHUNK_RUNGS // (2 * 20 + 1)
    assert chunk == 399 < np.count_nonzero(decoded.any(axis=1))
    predict, rows = auction.predict_allocation, []

    def counting(price, total_power, g):
        rows.append(len(g))
        return predict(price, total_power, g)

    monkeypatch.setattr(auction, "predict_allocation", counting)
    served = allocate_auction(g2, decoded, budget, 1.0)
    assert rows and max(rows) <= chunk
    # (the oracle adds up in another order, and on this block no requirement tie flips)
    assert served.tolist() == _oracle_block(g2, decoded, budget, 1.0)[0].sum(axis=1).tolist()


def _dynamics_block(rng, rows, pairs):
    """Gains, budgets and a price per row, for bid dynamics that stop at many rounds.

    Rows at max-winners and certified prices stop at different rounds, so
    the working set is compacted under rows still running; from two pairs
    the last row's price is non-contracting (radius 1.5) and runs to the
    iteration cap, and from three pairs row 0 has a capped pair.
    """
    g2 = rng.exponential(1.0, (rows, pairs)) * 10.0 ** rng.uniform(-1.0, 1.0, (rows, 1)) + 1e-9
    budget = 10.0 ** rng.uniform(-2.0, 1.5, rows)
    price = np.where(
        rng.random(rows) < 0.5,
        winner_maximizing_price(g2, budget, 1.0)[0], select_price(g2, budget),
    )
    if pairs >= 3:
        g2[0, :3], budget[0] = (0.221, 0.067, 1.215), 8.397
        g2[0, 3:] = 1e-3
        price[0] = winner_maximizing_price(g2[0], budget[0], 1.0)[0]
        assert (interior_target(price[0], g2[0]) >= budget[0]).any()
    if pairs >= 2:
        # equal gains 1 at budget 1: every pair's weight is 1.5 / (pairs - 1)
        target = 1.5 / (pairs - 1) / (1.0 + 1.5 / (pairs - 1))
        g2[-1], budget[-1], price[-1] = 1.0, 1.0, 1.0 / (2.0 * LN2 * (target + 1.0))
    return g2, budget, price


def _assert_dynamics_match_scalar_oracle(g2, budget, price):
    reserve = 0.01 * budget
    bids, allocation, iterations, converged, residual = auction.run_auction(g2, budget, price, reserve)
    for i in range(len(g2)):
        want = scalar_run_auction(g2[i], float(budget[i]), price[i], reserve[i])
        assert bids[i].tobytes() == want.bids.tobytes()
        assert allocation[i].tobytes() == want.allocation.tobytes()
        assert (iterations[i], converged[i]) == (want.iterations, want.converged)
        assert residual[i] == want.residual
    assert converged[:-1].all()
    if g2.shape[1] >= 2:
        assert iterations[-1] == auction._MAX_ITERATIONS and not converged[-1]


@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    pairs=hst.integers(min_value=1, max_value=40),
    rows=hst.integers(min_value=2, max_value=16),
)
@settings(max_examples=40, deadline=None)
def test_bid_dynamics_match_scalar_oracle_bit_for_bit(seed, pairs, rows):
    rng = np.random.default_rng(seed)
    _assert_dynamics_match_scalar_oracle(*_dynamics_block(rng, rows, pairs))


@pytest.mark.parametrize("pairs", [8, 20, 129])
def test_bid_dynamics_match_scalar_oracle_bit_for_bit_on_large_blocks(pairs):
    # a block of many rows whose working set shrinks over hundreds of rounds,
    # and at 129 pairs a row sum that numpy splits in halves
    rng = np.random.default_rng(300 + pairs)
    _assert_dynamics_match_scalar_oracle(*_dynamics_block(rng, 256, pairs))


def _count_at(price, g2, budget, snr_threshold):
    """Served count of the equilibrium at each row's price, by predict_allocation."""
    alloc, exists, _ = auction.predict_allocation(price[:, None], budget[:, None], g2)
    assert exists.all()
    with np.errstate(divide="ignore"):
        return np.count_nonzero(alloc >= snr_threshold / g2, axis=1)


@pytest.mark.parametrize("pairs", [1, 3, 8, 20])
def test_winner_price_matches_full_ladder_scan(pairs, monkeypatch):
    # undecoded pairs (zero gains) add zero rungs that the library never scores;
    # its prices equal the full ladder scan's bit for bit
    rng = np.random.default_rng(200 + pairs)
    g2, decoded, budget = _edge_block(rng, pairs, rows=120)
    keep = decoded.any(axis=1)
    gains, budget = np.where(decoded, g2, 0.0)[keep], budget[keep]
    assert pairs == 1 or (gains == 0.0).any(axis=1).mean() > 0.5
    for snr_threshold in (1e-3, 1.0, 30.0):
        price, count = winner_maximizing_price(gains, budget, snr_threshold)
        want = ladder_winner_price(gains, budget, snr_threshold)
        assert price.tobytes() == want.tobytes()
        assert count.tolist() == _count_at(want, gains, budget, snr_threshold).tolist()
    # every rung of every third row is rejected (the rows are told apart by
    # their largest gain): the scan confirms each row's winning rung with
    # predict_allocation, so those rows run out of rungs and take the certified
    # price, which is not rejected
    fallback = np.arange(len(gains)) % 3 == 0
    predict, rejected = auction.predict_allocation, gains[fallback].max(axis=1)
    certified = select_price(gains[fallback], budget[fallback])

    def rejecting(price, total_power, g):
        alloc, exists, rho = predict(price, total_power, g)
        rung = ~np.isin(price[..., 0], certified)
        return alloc, exists & ~(np.isin(g.max(axis=-1), rejected) & rung), rho

    monkeypatch.setattr(auction, "predict_allocation", rejecting)
    price, count = winner_maximizing_price(gains, budget, 1.0)
    want = ladder_winner_price(gains, budget, 1.0)
    monkeypatch.setattr(auction, "predict_allocation", predict)
    assert price.tobytes() == want.tobytes()
    assert price[fallback].tobytes() == certified.tobytes()
    assert count.tolist() == _count_at(want, gains, budget, 1.0).tolist()


def _ladder_block(seed, rows, pairs, copies, rounded, undecoded):
    """Gains and budgets over four decades; optionally columns copied from
    other columns, gains rounded to 2 decimals (exact ties) and undecoded
    (zero) pairs, with a positive gain left in every row."""
    rng = np.random.default_rng(seed)
    g2 = rng.exponential(1.0, (rows, pairs)) * 10.0 ** rng.uniform(-1.0, 1.0, (rows, 1))
    if copies:
        g2 = g2[:, rng.integers(0, pairs, pairs)]
    if rounded:
        g2 = np.round(g2, 2)
    if undecoded:
        g2[rng.random((rows, pairs)) < 0.4] = 0.0
    g2[g2.max(axis=1) == 0.0, 0] = 1.0
    return g2, 10.0 ** rng.uniform(-2.0, 2.0, rows)


@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    pairs=hst.integers(min_value=1, max_value=128),
    rows=hst.integers(min_value=1, max_value=12),
    copies=hst.booleans(),
    rounded=hst.booleans(),
    undecoded=hst.booleans(),
    snr_threshold=hst.sampled_from([1e-3, 1.0, 30.0]),
)
@settings(max_examples=200, deadline=None)
def test_winner_price_equals_full_ladder_bit_for_bit(
    seed, pairs, rows, copies, rounded, undecoded, snr_threshold
):
    # the boundary searches on sorted gains decide exactly what scoring every
    # rung with predict_allocation decides, ties and repeated gains included
    g2, budget = _ladder_block(seed, rows, pairs, copies, rounded, undecoded)
    price, count = winner_maximizing_price(g2, budget, snr_threshold)
    want = ladder_winner_price(g2, budget, snr_threshold)
    assert price.tobytes() == want.tobytes()
    assert count.tolist() == _count_at(want, g2, budget, snr_threshold).tolist()


@pytest.mark.parametrize("slack", [1e10, math.inf])
@pytest.mark.parametrize("pairs", [1, 3, 20, 64])
def test_winner_price_with_a_widened_demand_bound(pairs, slack, monkeypatch):
    # a wider demand error bound leaves rungs whose capped served count (at
    # 1e10) or usability (at inf, every live rung) it cannot decide;
    # predict_allocation scores those rungs itself, and the prices do not change
    monkeypatch.setattr(auction, "_DEMAND_SLACK", slack)
    predict, scored = auction.predict_allocation, []

    def counting(price, total_power, g):
        scored.append(len(g))
        return predict(price, total_power, g)

    monkeypatch.setattr(auction, "predict_allocation", counting)
    for i, snr_threshold in enumerate((1e-3, 1.0, 30.0)):
        g2, budget = _ladder_block(300 + i, 40, pairs, True, True, True)
        scored.clear()
        price, count = winner_maximizing_price(g2, budget, snr_threshold)
        if slack == math.inf:  # two rungs per positive gain and the top rung
            assert scored[0] == 2 * np.count_nonzero(g2) + len(g2)
        want = ladder_winner_price(g2, budget, snr_threshold)
        assert price.tobytes() == want.tobytes()
        assert count.tolist() == _count_at(want, g2, budget, snr_threshold).tolist()


def test_winner_price_serves_pairs_whose_requirement_underflows():
    # a/g2 rounds to 0 for these gains, so even a priced-out pair (grant 0)
    # meets its requirement and counts as served
    g2, budget = np.array([[1e300, 2e300, 3e300], [1e300, 1e300, 4e300]]), np.array([1.0, 1e-5])
    assert (1e-30 / g2 == 0.0).all()
    price, count = winner_maximizing_price(g2, budget, 1e-30)
    want = ladder_winner_price(g2, budget, 1e-30)
    assert price.tobytes() == want.tobytes()
    assert count.tolist() == _count_at(want, g2, budget, 1e-30).tolist() == [3, 3]


def test_allocate_auction_certified_fallback(monkeypatch):
    # a max-winners row whose every candidate is rejected takes the
    # certified price; odd rows of the block are made to fall back
    rng = np.random.default_rng(7)
    g2 = rng.exponential(1.0, (40, 3))
    decoded = np.ones((40, 3), dtype=bool)
    budget = 10.0 ** rng.uniform(-1.0, 1.0, 40)
    # the ladder scan finds no usable rung on an odd row (told apart by its
    # first gain, which no two rows share)
    chunk_price, odd = auction._chunk_price, g2[1::2, 0]

    def rejecting(gains, *args):
        price, count = chunk_price(gains, *args)
        reject = np.isin(gains[:, 0], odd)
        price[reject], count[reject] = np.nan, -1
        return price, count

    monkeypatch.setattr(auction, "_chunk_price", rejecting)
    served = allocate_auction(g2, decoded, budget, 1.0)
    for certified, rows in ((False, slice(0, None, 2)), (True, slice(1, None, 2))):
        want, _ = _oracle_block(g2[rows], decoded[rows], budget[rows], 1.0, certified=certified)
        assert served[rows].tolist() == want.sum(axis=1).tolist()


def test_allocate_auction_memory_is_chunked():
    # the max-winners scan prices the block in chunks of rows, and its largest
    # arrays hold one entry per rung of a chunk; the served count is the scan's,
    # so the only (rows, pairs) float arrays, 2.6 MB each, are the decoded
    # pairs' gains and the rows of g2 they are taken from
    config = SystemConfig(
        pairs=20, rate=0.5, source_power=power_from_snr_db(25.0),
        h_variance=0.0625, g_variance=0.0625,
    )
    h2, g2 = sample_block(1, 0, 16384, config)
    decoded, _, budget = harvest(h2, config)
    tracemalloc.start()
    try:
        allocate_auction(g2, decoded, budget, config.snr_threshold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
