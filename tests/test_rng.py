import numpy as np
import pytest

from mogref.rng import RngState


def test_same_seed_bit_identical():
    a = RngState(12345)
    b = RngState(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]


def test_known_sequence_pinned():
    # frozen so a platform or refactor regression is loud
    rng = RngState(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_different_seeds_differ():
    assert [RngState(1).next_u64() for _ in range(4)] != [RngState(2).next_u64() for _ in range(4)]


def test_uniform_range():
    rng = RngState(9)
    draws = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= d < 1.0 for d in draws)


def test_randint_bounds_and_rejection():
    rng = RngState(3)
    draws = [rng.randint(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7  # all residues reachable


def test_shuffle_deterministic():
    a, b = list(range(20)), list(range(20))
    RngState(4).shuffle(a)
    RngState(4).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(20))


def test_derive_is_consumption_independent():
    parent1 = RngState(42)
    parent2 = RngState(42)
    for _ in range(17):
        parent2.next_u64()  # consuming the parent must not move child streams
    c1 = parent1.derive(5)
    c2 = parent2.derive(5)
    assert [c1.next_u64() for _ in range(10)] == [c2.next_u64() for _ in range(10)]


def test_derive_streams_are_distinct():
    root = RngState(7)
    a = root.derive(0)
    b = root.derive(1)
    assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]


def test_uniform_array_shape_and_determinism():
    a = RngState(11).uniform_array((3, 4), -1.0, 1.0)
    b = RngState(11).uniform_array((3, 4), -1.0, 1.0)
    assert a.shape == (3, 4)
    assert (a == b).all()
    assert (a >= -1.0).all() and (a < 1.0).all()


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("shape", [(), (3,), (5, 7, 2), (192, 64)])
def test_uniform_array_matches_scalar_draws(seed, shape):
    vec, ref = RngState(seed), RngState(seed)
    arr = vec.uniform_array(shape, -0.5, 2.0)
    draws = np.array([ref.uniform() for _ in range(int(np.prod(shape)))])
    assert arr.shape == shape
    assert np.array_equal(arr, (-0.5 + 2.5 * draws).reshape(shape))
    assert vec._state == ref._state
    assert vec.uniform() == ref.uniform()
