"""Determinism and stream independence of the random number generator."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aucrac.rng import MASK64, Rng, new_rng


def _reference_stream(seed, count):
    # independent transcription of the generator: splitmix64 expands the
    # seed into four state words, then the starstar scrambler runs
    mask = (1 << 64) - 1
    words = []
    s = seed & mask

    def mix(state):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return state, z ^ (z >> 31)

    for _ in range(4):
        s, w = mix(s)
        words.append(w)

    def rot(x, k):
        return ((x << k) | (x >> (64 - k))) & mask

    out = []
    a, b, c, d = words
    for _ in range(count):
        out.append((rot((b * 5) & mask, 7) * 9) & mask)
        t = (b << 17) & mask
        c ^= a
        d ^= b
        b ^= c
        a ^= d
        c ^= t
        d = rot(d, 45)
    return out


def test_matches_independent_transcription():
    for seed in (0, 1, 42, 2**63, 987654321):
        rng = Rng(seed)
        assert [rng.next_u64() for _ in range(100)] == _reference_stream(seed, 100)


def test_same_seed_same_stream():
    a = new_rng(42)
    b = new_rng(42)
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]


def test_different_seeds_diverge():
    a = [new_rng(1).next_u64() for _ in range(10)]
    b = [new_rng(2).next_u64() for _ in range(10)]
    assert a != b


def test_seed_zero_is_not_degenerate():
    rng = new_rng(0)
    draws = [rng.next_u64() for _ in range(20)]
    assert any(d != 0 for d in draws)
    assert len(set(draws)) > 15


def test_random_stays_in_unit_interval():
    rng = new_rng(7)
    for _ in range(1000):
        x = rng.random()
        assert 0.0 <= x < 1.0


def test_uniform_respects_bounds():
    rng = new_rng(11)
    for _ in range(1000):
        x = rng.uniform(2.5, 3.5)
        assert 2.5 <= x < 3.5


def test_randint_covers_both_ends():
    rng = new_rng(3)
    draws = {rng.randint(1, 6) for _ in range(500)}
    assert draws == {1, 2, 3, 4, 5, 6}


def test_randint_rejects_empty_range():
    with pytest.raises(ValueError):
        new_rng(0).randint(5, 4)


def test_expovariate_positive_and_scales_with_rate():
    rng = new_rng(13)
    fast = [rng.expovariate(10.0) for _ in range(2000)]
    slow = [rng.expovariate(0.5) for _ in range(2000)]
    assert all(x > 0 for x in fast)
    assert sum(fast) / len(fast) < sum(slow) / len(slow)


def test_expovariate_rejects_bad_rate():
    with pytest.raises(ValueError):
        new_rng(0).expovariate(0.0)


def test_choice_member_and_empty_error():
    rng = new_rng(5)
    seq = ["a", "b", "c"]
    for _ in range(50):
        assert rng.choice(seq) in seq
    with pytest.raises(ValueError):
        rng.choice([])


def test_shuffle_is_a_permutation():
    rng = new_rng(9)
    items = list(range(30))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_fork_ignores_draw_position():
    fresh = new_rng(123)
    drained = new_rng(123)
    for _ in range(100):
        drained.next_u64()
    a = fresh.fork(7)
    b = drained.fork(7)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_forks_with_different_tags_are_independent():
    base = new_rng(123)
    a = [base.fork(1).next_u64() for _ in range(1)]
    b = [base.fork(2).next_u64() for _ in range(1)]
    assert a != b
    # and neither repeats the parent stream
    assert a[0] != new_rng(123).next_u64()


def test_seed_wraps_to_64_bits():
    assert Rng(2**64 + 5).seed == 5
    assert Rng(5).seed == 5 & MASK64


def test_uniform_mean_is_plausible():
    rng = new_rng(77)
    xs = [rng.random() for _ in range(20000)]
    assert math.isclose(sum(xs) / len(xs), 0.5, abs_tol=0.02)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-(2**70), max_value=2**70)
       | st.sampled_from([0, -1, 2**64 - 1, 2**64, 2**64 + 1, -(2**64), -(2**64) - 1]),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=20))
@example(2**64, 0, 0)
@example(-(2**64), 5, 0)
def test_randoms_are_successive_random_calls(seed, skip, n):
    # from any point of the stream, n batched draws are the next n random()
    # values, and the batch leaves the state those calls leave
    batched, single = Rng(seed), Rng(seed)
    for rng in (batched, single):
        for _ in range(skip):
            rng.next_u64()
    assert batched.randoms(n) == [single.random() for _ in range(n)]
    assert batched._s == single._s
