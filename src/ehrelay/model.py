"""System model: configuration, Rayleigh fading, power-splitting harvest.

M source-destination pairs communicate through one decode-and-forward
relay.  In the first phase every source transmits at power ``source_power``;
the relay splits each received signal, decoding when the channel is strong
enough and harvesting the surplus.  In the second phase the harvested
budget is allocated across the decoded pairs' second hops.

Noise variances are normalized to one, so ``source_power`` is the transmit
SNR.  Squared channel magnitudes are i.i.d. exponential, with one mean
(link variance) per hop shared by all pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemConfig",
    "power_from_snr_db",
    "sample_block",
    "harvest",
]


def power_from_snr_db(snr_db: float) -> float:
    """Transmit SNR in dB to linear source power (unit noise variance)."""
    return 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters for one operating point.

    pairs:         number of source-destination pairs M
    rate:          target rate R in bit/s/Hz (two-phase transmission)
    source_power:  source transmit power = transmit SNR (unit noise)
    eta:           energy harvesting efficiency, in (0, 1]
    h_variance:    first-hop |h|^2 mean, one finite positive float for all pairs
    g_variance:    second-hop |g|^2 mean, likewise

    Links are i.i.d. Rayleigh with one variance per hop, as in the
    analysed model; a per-pair sequence of variances is refused.  The
    variances scale out (|h|^2 = h_variance |h'|^2 with |h'|^2 ~ Exp(1),
    likewise g), so every closed form holds at any variances through
    ``unit_gain_thresholds``.
    """

    pairs: int
    rate: float
    source_power: float
    eta: float = 1.0
    h_variance: float = 1.0
    g_variance: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, int) or self.pairs < 1:
            raise ValueError(f"pairs must be a positive integer, got {self.pairs!r}")
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"rate must be positive, got {self.rate!r}")
        if not (math.isfinite(self.source_power) and self.source_power > 0.0):
            raise ValueError(f"source_power must be positive, got {self.source_power!r}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta!r}")
        for name in ("h_variance", "g_variance"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a finite positive float, got {value!r}")

    @property
    def snr_threshold(self) -> float:
        """a = 2^(2R) - 1, the post-processing SNR a link must clear for
        decoding at rate R over half the slot."""
        return 2.0 ** (2.0 * self.rate) - 1.0

    @property
    def decode_threshold(self) -> float:
        """epsilon = a / source_power, the |h|^2 level above which the relay
        decodes (and below which the power splitter sends everything to the
        energy harvester)."""
        return self.snr_threshold / self.source_power

    @property
    def unit_gain_thresholds(self) -> tuple[float, float]:
        """(epsilon / h_variance, eta * g_variance): the decode threshold and
        efficiency of the same system with unit link variances, which is what
        every closed form reads.  A pair, not a config: eta * g_variance may
        exceed 1."""
        return self.decode_threshold / self.h_variance, self.eta * self.g_variance


def sample_block(
    seed: int, block_index: int, size: int, config: SystemConfig,
    *, out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized channel draws for trials [block_index * B, ...): (h2, g2).

    Row t of the returned arrays is the draw for the t-th trial of the
    block.  All h2 values are drawn before all g2 values, so the block is
    a pure function of (seed, block_index, size, config).  Which trial
    gets which draw therefore depends on the block size, which is why
    the engine holds it fixed (``ehrelay.engine.BLOCK_SIZE``).  ``out``,
    two C-order float (size, pairs) arrays, receives the draws in place of
    fresh arrays; a unit exponential times its mean is the bits of numpy's
    exponential at that scale.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block_index))))
    shape = (size, config.pairs)
    h2, g2 = out if out is not None else (np.empty(shape), np.empty(shape))
    for x, scale in ((h2, config.h_variance), (g2, config.g_variance)):
        rng.standard_exponential(size=shape, out=x)
        x *= scale
    return h2, g2


def harvest(
    h2: np.ndarray, config: SystemConfig, *, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decoding sets and harvested budgets for a block of draws.

    ``h2`` has shape (trials, pairs).  A pair is decoded iff its first-hop
    gain strictly exceeds the decode threshold; each decoded pair
    contributes eta * (P_s |h|^2 - a) to the relay budget (the surplus
    past what decoding itself consumes).  Returns the decoded mask, the
    number of decoded pairs per trial, in the narrowest unsigned integer that
    holds it, and the budget per trial (-0.0 if none decodes).  On a Block's
    column-major ``h2`` both sums add the pair columns in pair order, which
    below 8 pairs gives the bits of numpy's row sum.  ``scratch``, a float
    array shaped and laid out as ``h2``, holds the surplus in place of a
    fresh array; the returned arrays are always fresh.
    """
    decoded = h2 > config.decode_threshold
    surplus = np.multiply(h2, config.source_power, out=scratch)
    surplus -= config.snr_threshold
    if config.eta != 1.0:  # a product with 1.0 is exact
        surplus *= config.eta
    surplus *= decoded
    return decoded, decoded.sum(axis=1, dtype=np.min_scalar_type(h2.shape[1])), surplus.sum(axis=1)
