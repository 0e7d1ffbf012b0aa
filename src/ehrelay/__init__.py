"""Outage analysis and relay power-allocation strategies for multi-pair
wireless-powered relay networks.

A relay harvests energy from the first-hop transmissions of M source nodes
(power-splitting receiver) and spends the harvested budget forwarding to
the M destinations.  The package provides channel sampling and the
batched harvest (``model``), one batched kernel per allocation strategy
behind ``strategies.allocate`` (individual, equal, water-filling, max-min;
the auction's block kernel lives in ``auction``), closed-form and
asymptotic outage expressions, a reproducible Monte Carlo engine, and a
sweep CLI.
"""

from .model import SystemConfig, harvest, power_from_snr_db, sample_block
from .strategies import STRATEGY_NAMES, Block, allocate
from .auction import allocate_auction
from .analytic import (
    OutageSummary,
    WorstCaseBounds,
    asymptotic_outage,
    outage_equal,
    outage_individual,
    outage_wf_best,
    wf_worst_bounds,
)
from .engine import OutageReport, run_experiment, run_group

__version__ = "0.1.0"
