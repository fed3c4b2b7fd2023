import hashlib
import io

import numpy as np
import pytest

from bitalias import special
from bitalias.errors import DomainError
from bitalias.formats import write_measurements
from bitalias.response import bit_alias, count_ones, derive_noise_free_response
from bitalias.simulate import PopulationSpec, rng_stream, simulate_population


class TestRngStream:
    def test_same_path_bit_identical(self):
        a = rng_stream(99, 3).random(16)
        b = rng_stream(99, 3).random(16)
        assert (a == b).all()

    def test_distinct_paths_differ(self):
        a = rng_stream(99, 3).random(16)
        b = rng_stream(99, 4).random(16)
        assert (a != b).any()


class TestSimulatePopulation:
    def test_noiseless_certain_alias_is_all_ones(self):
        spec = PopulationSpec(devices=4, positions=6, repeats=1, seed=5, alias=1.0)
        assert simulate_population(spec).bits.all()

    def test_same_seed_bit_identical(self):
        spec = PopulationSpec(devices=10, positions=32, repeats=3, seed=123,
                              alias=0.5, flip_noise=0.1)
        a = simulate_population(spec)
        b = simulate_population(spec)
        assert (a.bits == b.bits).all()

    def test_different_seed_differs(self):
        kw = dict(devices=10, positions=32, repeats=3, alias=0.5, flip_noise=0.1)
        a = simulate_population(PopulationSpec(seed=1, **kw))
        b = simulate_population(PopulationSpec(seed=2, **kw))
        assert (a.bits != b.bits).any()

    def test_balanced_population_concentrates(self):
        # per-position means stay within 4 standard errors for >= 99% of positions
        spec = PopulationSpec(devices=5000, positions=128, repeats=1, seed=7, alias=0.5)
        m = simulate_population(spec)
        alias = bit_alias(count_ones(derive_noise_free_response(m)))
        band = 4.0 * np.sqrt(0.25 / 5000)
        inside = np.count_nonzero(np.abs(alias - 0.5) <= band)
        assert inside >= 0.99 * 128

    def test_alias_vector_per_position(self):
        spec = PopulationSpec(devices=2000, positions=3, repeats=1, seed=11,
                              alias=[0.0, 0.5, 1.0])
        m = simulate_population(spec)
        alias = bit_alias(count_ones(derive_noise_free_response(m)))
        assert alias[0] == 0.0
        assert alias[2] == 1.0
        assert 0.4 < alias[1] < 0.6

    def test_named_profiles(self):
        spec = PopulationSpec(devices=3, positions=5, repeats=1, seed=0, alias="linear")
        vec = spec.alias_vector()
        assert vec[0] == pytest.approx(0.05)
        assert vec[-1] == pytest.approx(0.95)

    def test_noise_flips_measurements(self):
        spec = PopulationSpec(devices=20, positions=64, repeats=9, seed=13,
                              alias=1.0, flip_noise=0.2)
        m = simulate_population(spec)
        flipped = 1.0 - m.bits.mean()
        assert 0.15 < flipped < 0.25

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_numpy_fields_write_like_plain_ones(self, fmt):
        files = []
        for spec in (PopulationSpec(np.int64(4), np.int64(3), np.int64(2), np.int64(7),
                                    alias=np.float32(0.5)), PopulationSpec(4, 3, 2, 7)):
            buf = io.BytesIO()
            write_measurements(simulate_population(spec), buf, fmt=fmt)
            files.append(buf.getvalue())
        assert files[0] == files[1]

    @pytest.mark.parametrize("field", ["devices", "positions", "repeats"])
    @pytest.mark.parametrize("value", [2.5, "3", None, 0])
    def test_rejects_size_that_is_not_a_positive_integer(self, field, value):
        sizes = {"devices": 2, "positions": 5, "repeats": 1, field: value}
        with pytest.raises(DomainError, match=f"{field} must be"):
            PopulationSpec(seed=1, **sizes)


# sha256 of the packed rows of seeded populations: the Philox stream must be
# consumed in the same order whatever the generator's internal layout.
SIMULATED_ROWS = [
    (dict(devices=53, positions=37, repeats=3, seed=5, alias="linear", flip_noise=0.1),
     "d0ddd2517561bbe802d4a974a4723f5f0b567d641dbbfb9b6c27cbb0f3455704"),
    (dict(devices=9, positions=8, repeats=4, seed=1, alias=0.3, flip_noise=0.5),
     "bd025059a9d0cfd20cbab2ddb6219527e4e26d13ce57f47b0ed5b00415402951"),
]


@pytest.mark.parametrize("block_bytes", [1, 8 * 100, 8 << 20])
@pytest.mark.parametrize("kw, digest", SIMULATED_ROWS)
def test_seeded_population_bytes_pinned(kw, digest, block_bytes, monkeypatch):
    # a small block splits the devices over many spans of draws, one each at 1
    monkeypatch.setattr(special, "_BLOCK_BYTES", block_bytes)
    m = simulate_population(PopulationSpec(**kw))
    assert hashlib.sha256(m.rows.tobytes()).hexdigest() == digest
