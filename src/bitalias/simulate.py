"""Synthetic measurement campaigns with explicit, reproducible randomness.

Devices are double random: manufacturing first fixes each device's preferred
bit per position (a Bernoulli draw of the true alias), then every repeated
measurement flips that bit independently at the configured noise rate.  All
randomness flows through counter-based Philox streams keyed by an explicit
seed; there is no ambient RNG state anywhere in the package.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DomainError
from .special import Record, _as_choice, _as_count, _as_probability, _as_real, _spans

ALIAS_PROFILES = {
    "balanced": lambda t: np.full(t, 0.5),
    "linear": lambda t: np.linspace(0.05, 0.95, t),
}


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for a (seed, task index, ...) stream.

    Distinct paths give statistically independent streams; identical paths
    give bit-identical output across runs and platforms.
    """
    parts = [_as_count(seed, "seed"), *(_as_count(p, "seed path entry") for p in path)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(parts)))


class PopulationSpec(Record):
    """Parameters of a synthetic device population.

    ``alias`` is the true probability of a 1 per position: a scalar applied
    everywhere, a length-T sequence (kept as a tuple of floats), or a named
    profile from ALIAS_PROFILES.
    The seed is mandatory; two specs with equal fields simulate identically.
    """

    devices: int
    positions: int
    repeats: int
    seed: int
    alias: float | Sequence[float] | str = 0.5
    flip_noise: float = 0.0

    def __post_init__(self):
        self.__dict__.update({name: _as_count(getattr(self, name), name, least) for name, least
                              in (("devices", 1), ("positions", 1), ("repeats", 1), ("seed", 0))},
                             flip_noise=_as_probability(self.flip_noise, "flip_noise"))
        if not isinstance(alias := self.alias, str):  # a profile name, which alias_vector checks
            if (shape := np.shape(alias)) not in ((), (self.positions,)):
                raise DomainError(
                    f"alias vector must have length {self.positions}, got shape {shape}")
            self.__dict__.update(alias=_as_real(alias, "alias") if shape == () else
                                 tuple(_as_real(a, "alias") for a in alias))
        self.alias_vector()  # validate eagerly

    def alias_vector(self) -> np.ndarray:
        """Resolve the alias field to a length-T probability vector."""
        if isinstance(self.alias, str):
            profile = _as_choice(self.alias, "alias profile", tuple(ALIAS_PROFILES))
            vec = ALIAS_PROFILES[profile](self.positions)
        else:  # a real number or a tuple of T
            vec = np.full(self.positions, self.alias)
        outside = ~((vec >= 0.0) & (vec <= 1.0))  # NaN fails both
        if outside.any():
            _as_probability(float(vec[outside][0]), "alias")  # raises, naming the value
        return vec


def simulate_population(spec: PopulationSpec) -> MeasurementTensor:
    """Draw a full measurement tensor for the given population.

    Every device's stable bits are drawn first, then every repeat's flips,
    device-major.  Both are drawn a `_spans` span of devices at a time, which
    consumes the stream exactly as one whole draw would, and each span of
    flips is packed straight into the tensor's rows.
    """
    from .response import MeasurementTensor  # here, so validate's draws skip it

    rng = rng_stream(spec.seed)
    p = spec.alias_vector()
    n, t, m = spec.devices, spec.positions, spec.repeats
    stable = np.concatenate([rng.random((b - a, t)) < p for a, b in _spans(n, 8 * t)])
    rows = np.empty((n * m, (t + 7) // 8), dtype=np.uint8)
    for a, b in _spans(n, 8 * t * m):
        bits = stable[a:b, :, None] ^ (rng.random((b - a, t, m)) < spec.flip_noise)
        packed = np.packbits(bits.transpose(0, 2, 1), axis=2, bitorder="little")
        rows[a * m:b * m] = packed.reshape(-1, rows.shape[1])
    return MeasurementTensor(_packed=(rows, t, m))
