"""The water-filling worst-case upper bounds against their mpmath Bessel form.

The reference values below are frozen from ``oracles.wf_worst_upper_mp``
(30 digits): 1 - p^M (G_M(M^2 r) + M r int_c^{M-1} G_{M-1}(a(y) r) dy) /
(M-1)! with the y-integral by one mp.quad, split at its knee.
``PYTHONPATH=src python tests/oracles.py worst-upper`` prints them.  One row
is recomputed live so the table cannot drift from the oracle.  Rate 2,
eta 1.
"""

import pytest

from ehrelay.analytic import wf_worst_bounds
from ehrelay.model import SystemConfig, derive_params, power_from_snr_db
from oracles import wf_worst_upper_mp

REL = 1e-12

# (pairs, snr_db) -> the upper bound at c = 0 (both forms), c = 1, c = M - 1
REFERENCE = {
    (2, 0.0): (1.0, 1.0, 1.0),
    (2, 10.0): (0.9943382785727443, 0.9964324096076913, 0.9964324096076913),
    (2, 20.0): (0.45287591757811985, 0.5249101462381841, 0.5249101462381841),
    (2, 30.0): (0.05959258680396617, 0.0821047638031923, 0.0821047638031923),
    (2, 40.0): (0.006033348176260431, 0.008879273704784378, 0.008879273704784378),
    (2, 50.0): (0.0006009537329259829, 0.0008983775763372982, 0.0008983775763372982),
    (2, 60.0): (6.0018137456187905e-05, 8.99796300423031e-05, 8.99796300423031e-05),
    (2, 70.0): (6.0002912503550146e-06, 8.999754852450488e-06, 8.999754852450488e-06),
    (3, 0.0): (1.0, 1.0, 1.0),
    (3, 10.0): (0.9994082674603761, 0.999480878634678, 0.9997146779012333),
    (3, 20.0): (0.5417726582546432, 0.5795477291671555, 0.6388473142673446),
    (3, 30.0): (0.06889596109834024, 0.0856919000994768, 0.1047285851347849),
    (3, 40.0): (0.006799255943080012, 0.008955496021233186, 0.01116524706429529),
    (3, 50.0): (0.0006758176175059372, 0.0008995536856608466, 0.0011241411573938197),
    (3, 60.0): (6.751131383673759e-05, 8.9995535830227e-05, 0.00011249139600461613),
    (3, 70.0): (6.750144272251659e-06, 8.999955357539013e-06, 1.1249913940226735e-05),
    (5, 0.0): (1.0, 1.0, 1.0),
    (5, 10.0): (0.9999946193252824, 0.9999946972808084, 0.9999982164543177),
    (5, 20.0): (0.6953773209791368, 0.707683241591017, 0.7954836474704637),
    (5, 30.0): (0.09588296084403117, 0.10830539677738604, 0.15410991178685418),
    (5, 40.0): (0.009440414443253197, 0.011210450111816053, 0.016719099934792262),
    (5, 50.0): (0.0009385166095166367, 0.0011246075911075654, 0.0016859308262887048),
    (5, 60.0): (9.37636435738869e-05, 0.00011249607908758743, 0.00016873429801456227),
    (5, 70.0): (9.375171004443442e-06, 1.1249960794061372e-05, 1.687484296988964e-05),
    (10, 0.0): (1.0, 1.0, 1.0),
    (10, 10.0): (0.9999999999713495, 0.999999999971353, 0.9999999999946383),
    (10, 20.0): (0.9021249015979002, 0.9031494294037313, 0.9517302627846151),
    (10, 30.0): (0.1683861373888897, 0.1763941187463703, 0.27019875611461475),
    (10, 40.0): (0.016779801303650758, 0.018284820148863592, 0.03115376160775996),
    (10, 50.0): (0.0016684426680540901, 0.0018328740680478225, 0.0031614850587142044),
    (10, 60.0): (0.0001666903350796813, 0.00018332876711447924, 0.00031661479756346037),
    (10, 70.0): (1.666696173218666e-05, 1.83332876976363e-05, 3.166614792256394e-05),
    (20, 0.0): (1.0, 1.0, 1.0),
    (20, 10.0): (1.0, 1.0, 1.0),
    (20, 20.0): (0.9917844464882626, 0.9917945670191006, 0.9973468118584167),
    (20, 30.0): (0.3064715785787696, 0.31062347485691894, 0.45832310926462827),
    (20, 40.0): (0.03177421228003586, 0.03308608965775263, 0.05969530713644155),
    (20, 50.0): (0.0031612469172341002, 0.0033152657149811775, 0.006138698521122958),
    (20, 60.0): (0.000315834309427078, 0.00033157391101471884, 0.0006155971459485442),
    (20, 70.0): (3.15795055374725e-05, 3.315784457524758e-05, 6.157702372490183e-05),
}


def config(pairs, snr_db):
    return SystemConfig(pairs=pairs, rate=2.0, source_power=power_from_snr_db(snr_db))


def free_parameters(pairs):
    return (0.0, 1.0, pairs - 1.0)


@pytest.mark.parametrize("pairs, snr_db", sorted(REFERENCE))
def test_upper_integral_matches_mpmath(pairs, snr_db):
    got = wf_worst_bounds(config(pairs, snr_db)).upper_integral
    assert got == pytest.approx(REFERENCE[pairs, snr_db][0], rel=REL, abs=0.0)


@pytest.mark.parametrize("pairs, snr_db", sorted(REFERENCE))
def test_upper_closed_matches_mpmath(pairs, snr_db):
    for c, want in zip(free_parameters(pairs), REFERENCE[pairs, snr_db]):
        got = wf_worst_bounds(config(pairs, snr_db), c=c).upper_closed
        assert got == pytest.approx(want, rel=REL, abs=0.0), c


@pytest.mark.parametrize("pairs, snr_db", sorted(REFERENCE))
def test_upper_forms_agree_at_c_zero(pairs, snr_db):
    # equal by construction; the adaptive nested quadrature they replace
    # had them 1.2e-5 relative apart at (2, 70 dB)
    b = wf_worst_bounds(config(pairs, snr_db))
    assert b.upper_closed == pytest.approx(b.upper_integral, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("pairs, snr_db", sorted(REFERENCE))
def test_quad_error_covers_the_error(pairs, snr_db):
    b = wf_worst_bounds(config(pairs, snr_db))
    want = REFERENCE[pairs, snr_db][0]
    for got in (b.upper_integral, b.upper_closed):
        assert abs(got - want) <= b.quad_error + 4e-16 * want


@pytest.mark.parametrize("pairs", [2, 5, 20, 171])
@pytest.mark.parametrize("snr_db", [110.0, 150.0, 200.0])
def test_bounds_ordered_far_above_70_db(pairs, snr_db):
    # no complement 1 - p^M (...) is formed, so the sandwich keeps its
    # order where the bounds fall to 1e-17
    b = wf_worst_bounds(config(pairs, snr_db))
    assert 0.0 < b.lower <= b.upper_integral
    assert b.upper_closed == pytest.approx(b.upper_integral, rel=1e-13, abs=0.0)
    assert b.quad_error < 1e-9 * b.lower


def test_reference_table_matches_live_oracle():
    pairs, snr_db = 3, 70.0
    eps = derive_params(config(pairs, snr_db)).decode_threshold
    live = [wf_worst_upper_mp(pairs, eps, 1.0, c) for c in free_parameters(pairs)]
    assert live == pytest.approx(REFERENCE[pairs, snr_db], rel=1e-15, abs=0.0)
