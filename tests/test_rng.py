from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from oee.rng import MASK64, SplitMix64, fold, mix, select, stream


def test_mix_is_order_sensitive():
    assert mix(1, 2) != mix(2, 1)
    assert mix(0) != mix(0, 0)


def reference_mix(*values):
    """`mix` as first written, one loop over splitmix64's output function."""
    h = 0x8C2F9D1A6E5B3C07
    for v in values:
        z = (h + 0x9E3779B97F4A7C15) & MASK64 ^ (v & MASK64)
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        h = z ^ (z >> 31)
    return h


@given(st.lists(st.integers(-(1 << 70), 1 << 70), max_size=6), st.integers(0, MASK64))
def test_mix_is_a_fold(values, last):
    assert mix(*values) == reference_mix(*values)
    assert fold(mix(*values), last) == mix(*values, last)


@given(st.integers(0, MASK64), st.lists(st.integers(-(1 << 70), 1 << 70), max_size=12),
       st.fractions(0, 1, max_denominator=64))
def test_select_matches_filtering_by_fold(h, values, cut):
    num, den = cut.numerator << 64, cut.denominator
    assert select(h, values, num, den) == [v for v in values if fold(h, v) * den < num]


def test_mix_deterministic():
    assert mix(7, 3, 11) == mix(7, 3, 11)
    assert 0 <= mix(7, 3, 11) <= MASK64


def test_sequence_reproducible():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_streams_are_independent():
    s1 = stream(1, 0)
    s2 = stream(1, 1)
    # drawing from one never advances the other
    first = s2.next_u64()
    for _ in range(100):
        s1.next_u64()
    assert stream(1, 1).next_u64() == first


def test_randrange_bounds():
    rng = SplitMix64(9)
    for _ in range(200):
        assert 0 <= rng.randrange(7) < 7


def test_chance_degenerate():
    rng = SplitMix64(5)
    assert not rng.chance(Fraction(0))
    assert rng.chance(Fraction(1))


def test_chance_roughly_fair():
    rng = SplitMix64(123)
    hits = sum(rng.chance(Fraction(1, 4)) for _ in range(4000))
    assert 800 < hits < 1200
