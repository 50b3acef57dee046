import random

import pytest

from srlz.corpus import (
    ALPHABET_SIZES,
    STYLES,
    noisy_copy,
    random_pair,
    random_sequence,
)
from oracles import calibration_pairs, standard_cases


class TestStandardCases:
    def test_seed_determinism(self, standard_corpus):
        again = standard_cases()
        assert len(again) == len(standard_corpus) == 500
        for a, b in zip(standard_corpus, again):
            assert a.x == b.x and a.xhat == b.xhat
            assert a.xtilde == b.xtilde and a.xcheck == b.xcheck
            assert a.u == b.u and a.split == b.split

    def test_shapes_and_ranges(self, standard_corpus):
        for case in standard_corpus:
            assert 16 <= case.n <= 4096
            assert case.x.n == case.xhat.n == case.xtilde.n == case.n
            assert case.xcheck.n == case.u.n == case.n
            assert case.x.alphabet.size == case.beta
            assert case.xhat.alphabet.size == case.beta
            assert case.xtilde.alphabet.size == case.gamma
            assert case.xcheck.alphabet.size == case.gamma
            assert case.u.alphabet.size in (2, 4)
            assert 0.0 <= case.split <= 1.0

    def test_covers_all_size_combinations_and_styles(self, standard_corpus):
        combos = {(c.beta, c.gamma) for c in standard_corpus}
        assert combos == {(b, g) for b in ALPHABET_SIZES for g in ALPHABET_SIZES}
        assert {c.style for c in standard_corpus} == set(STYLES)

    def test_different_seed_changes_data(self):
        a = standard_cases(count=5)
        b = standard_cases(seed=12345, count=5)
        assert any(x.x != y.x for x, y in zip(a, b))


class TestCalibrationPairs:
    def test_frozen_seed_determinism(self):
        a = calibration_pairs(count=40)
        b = calibration_pairs(count=40)
        for (s1, p1), (s2, p2) in zip(a, b):
            assert s1 == s2 and p1 == p2
            assert s1.n == p1.n

    def test_prefix_stability(self):
        # a shorter draw must be a prefix of a longer one, or the frozen
        # slack constant would silently change meaning
        short = calibration_pairs(count=10)
        long = calibration_pairs(count=25)
        for (s1, p1), (s2, p2) in zip(short, long):
            assert s1 == s2 and p1 == p2


class TestGenerators:
    def test_styles_produce_expected_textures(self):
        rng = random.Random(1)
        runs = random_sequence(rng, 2, 256, "runs")
        uniform = random_sequence(random.Random(1), 2, 256, "uniform")
        same_as_prev = lambda s: sum(a == b for a, b in zip(s.data, s.data[1:]))
        assert same_as_prev(runs) > same_as_prev(uniform)
        tiled = random_sequence(random.Random(2), 4, 256, "tiled")
        assert tiled.n == 256 and tiled.alphabet.size == 4

    def test_unknown_style(self):
        with pytest.raises(ValueError, match="unknown style"):
            random_sequence(random.Random(0), 2, 8, "fractal")

    def test_biased_prefers_early_symbols(self):
        seq = random_sequence(random.Random(3), 26, 4096, "biased")
        zeros = sum(1 for v in seq.data if v == 0)
        tail = sum(1 for v in seq.data if v == 25)
        assert zeros > tail

    def test_noisy_copy_stays_correlated(self):
        rng = random.Random(4)
        src = random_sequence(rng, 2, 1024, "uniform")
        copy = noisy_copy(random.Random(5), src, 2, flip=0.1)
        agree = sum(a == b for a, b in zip(src.data, copy.data))
        assert agree > 800  # ~95% expected: flips hit half the letters back

    def test_noisy_copy_rescales_alphabet(self):
        rng = random.Random(6)
        src = random_sequence(rng, 26, 128, "uniform")
        copy = noisy_copy(random.Random(7), src, 4, flip=0.0)
        assert copy.alphabet.size == 4
        assert all(v == s * 4 // 26 for v, s in zip(copy.data, src.data))

    def test_random_pair_pinned_arguments(self):
        p1, s1 = random_pair(random.Random(8), 2, 4, 64, style="uniform",
                             correlated=True)
        p2, s2 = random_pair(random.Random(8), 2, 4, 64, style="uniform",
                             correlated=True)
        assert p1 == p2 and s1 == s2
        assert p1.alphabet.size == 2 and s1.alphabet.size == 4
        assert p1.n == s1.n == 64
