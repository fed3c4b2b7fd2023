"""Synthetic measurement campaigns with explicit, reproducible randomness.

Devices are double random: manufacturing first fixes each device's preferred
bit per position (a Bernoulli draw of the true alias), then every repeated
measurement flips that bit independently at the configured noise rate.  All
randomness flows through counter-based Philox streams keyed by an explicit
seed; there is no ambient RNG state anywhere in the package.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .response import MeasurementTensor
from .special import _as_count, _as_probability

ALIAS_PROFILES = {
    "balanced": lambda t: np.full(t, 0.5),
    "linear": lambda t: np.linspace(0.05, 0.95, t),
}


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for a (seed, task index, ...) stream.

    Distinct paths give statistically independent streams; identical paths
    give bit-identical output across runs and platforms.
    """
    parts = [_as_count(p, "seed path entry") for p in (seed, *path)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(parts)))


@dataclass(frozen=True)
class PopulationSpec:
    """Parameters of a synthetic device population.

    ``alias`` is the true probability of a 1 per position: a scalar applied
    everywhere, a length-T sequence, or a named profile from ALIAS_PROFILES.
    The seed is mandatory; two specs with equal fields simulate identically.
    """

    devices: int
    positions: int
    repeats: int
    seed: int
    alias: float | Sequence[float] | str = 0.5
    flip_noise: float = 0.0

    def __post_init__(self):
        for name in ("devices", "positions", "repeats"):
            _as_count(getattr(self, name), name, 1)
        _as_count(self.seed, "seed")
        object.__setattr__(self, "flip_noise", _as_probability(self.flip_noise, "flip_noise"))
        self.alias_vector()  # validate eagerly

    def alias_vector(self) -> np.ndarray:
        """Resolve the alias field to a length-T probability vector."""
        if isinstance(self.alias, str):
            try:
                vec = ALIAS_PROFILES[self.alias](self.positions)
            except KeyError:
                raise DomainError(
                    f"unknown alias profile {self.alias!r}, "
                    f"expected one of {sorted(ALIAS_PROFILES)}") from None
        elif isinstance(self.alias, (int, float)):
            vec = np.full(self.positions, float(self.alias))
        else:
            vec = np.asarray(self.alias, dtype=float)
            if vec.shape != (self.positions,):
                raise DomainError(
                    f"alias vector must have length {self.positions}, got shape {vec.shape}")
        if (vec < 0.0).any() or (vec > 1.0).any():
            raise DomainError("alias probabilities must lie in [0, 1]")
        return vec


# Uniform doubles drawn at a time by `simulate_population` (8 MiB); a block
# holds at least one device.
_DRAW_BLOCK = 1 << 20


def simulate_population(spec: PopulationSpec) -> MeasurementTensor:
    """Draw a full measurement tensor for the given population.

    Every device's stable bits are drawn first, then every repeat's flips,
    device-major.  Both are drawn one block of devices at a time, which
    consumes the stream exactly as one whole draw would, and each block of
    flips is packed straight into the tensor's rows.
    """
    rng = rng_stream(spec.seed)
    p = spec.alias_vector()
    n, t, m = spec.devices, spec.positions, spec.repeats
    per_block = max(1, _DRAW_BLOCK // (t * m))
    starts = range(0, n, per_block)
    stable = np.concatenate([rng.random((min(per_block, n - a), t)) < p for a in starts])
    rows = np.empty((n * m, (t + 7) // 8), dtype=np.uint8)
    for a in starts:
        size = min(per_block, n - a)
        bits = stable[a:a + size, :, None] ^ (rng.random((size, t, m)) < spec.flip_noise)
        packed = np.packbits(bits.transpose(0, 2, 1), axis=2, bitorder="little")
        rows[a * m:(a + size) * m] = packed.reshape(-1, rows.shape[1])
    return MeasurementTensor(_packed=(rows, t, m))
