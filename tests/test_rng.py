import numpy as np
import pytest

from halfdensity import pigeonhole, trivializer
from halfdensity.rng import RandomSource, as_generator, as_source


def test_same_seed_same_stream():
    a = RandomSource(42).generator().random(8)
    b = RandomSource(42).generator().random(8)
    assert (a == b).all()


def test_children_independent_and_deterministic():
    root = RandomSource(7)
    c0 = root.child(0).generator().random(8)
    c1 = root.child(1).generator().random(8)
    again = RandomSource(7).child(0).generator().random(8)
    assert (c0 == again).all()
    assert not (c0 == c1).all()


def test_nested_children():
    a = RandomSource(3).child(2).child(5).generator().random(4)
    b = RandomSource(3).child(2).child(5).generator().random(4)
    assert (a == b).all()


def test_as_generator_coercions():
    assert isinstance(as_generator(5), np.random.Generator)
    assert isinstance(as_generator(RandomSource(5)), np.random.Generator)
    gen = np.random.Generator(np.random.PCG64(0))
    assert as_generator(gen) is gen
    with pytest.raises(TypeError):
        as_generator("seed")


def test_as_source_coercions():
    source = RandomSource(5)
    assert as_source(source) is source
    for seed in (5, np.int64(5)):
        assert (as_source(seed).generator().random(4) == source.generator().random(4)).all()
    for bad in ("seed", 5.0, np.random.default_rng(5)):
        with pytest.raises(TypeError, match="as a random source"):
            as_source(bad)


def test_int_seed_is_its_random_source_in_both_estimators():
    cfg = pigeonhole.PigeonholeConfig.uniform(16, 2, 4)
    assert (pigeonhole.coincidence_simulate(cfg, 500, 5)
            == pigeonhole.coincidence_simulate(cfg, 500, RandomSource(5)))
    assert (trivializer.planted_reduction_rate(2, 2, 300, 5)
            == trivializer.planted_reduction_rate(2, 2, 300, RandomSource(5)))


def test_explicit_seed_required():
    with pytest.raises(ValueError):
        RandomSource()
