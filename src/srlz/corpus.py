"""Seeded random corpora for the codec and bound suites.

Generators draw from a private `random.Random(seed)`, so every corpus is a
pure function of its seed.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from .lz_core import Alphabet, Sequence

ALPHABET_SIZES = (2, 4, 26)
STYLES = ("uniform", "tiled", "biased", "runs")


def random_sequence(rng: random.Random, size: int, n: int,
                    style: str = "uniform") -> Sequence:
    """Length-n sequence over Alphabet.of_size(size) in one of four textures:
    iid uniform, noisy periodic tiling, skewed iid, or bursty runs."""
    alpha = Alphabet.of_size(size)
    if style == "uniform":
        data = [rng.randrange(size) for _ in range(n)]
    elif style == "tiled":
        t = rng.randint(2, min(8, max(2, n)))
        tile = [rng.randrange(size) for _ in range(t)]
        data = [tile[i % t] for i in range(n)]
        for i in range(n):
            if rng.random() < 0.05:
                data[i] = rng.randrange(size)
    elif style == "biased":
        weights = [1.0 / (i + 1) for i in range(size)]
        data = rng.choices(range(size), weights=weights, k=n)
    elif style == "runs":
        data = []
        while len(data) < n:
            sym = rng.randrange(size)
            run = 1
            while rng.random() < 0.6 and run < 32:
                run += 1
            data.extend([sym] * min(run, n - len(data)))
    else:
        raise ValueError(f"unknown style: {style}")
    return Sequence(alpha, data)


def noisy_copy(rng: random.Random, src: Sequence, size: int,
               flip: float = 0.15) -> Sequence:
    """Map src into a size-letter alphabet and resample a fraction of letters;
    keeps the copy statistically tied to src so conditional parsing has
    structure to exploit."""
    alpha = Alphabet.of_size(size)
    scale = src.alphabet.size
    data = [v * size // scale for v in src.data]
    for i in range(len(data)):
        if rng.random() < flip:
            data[i] = rng.randrange(size)
    return Sequence(alpha, data)


def random_pair(rng: random.Random, beta: int, gamma: int, n: int,
                style: Optional[str] = None,
                correlated: Optional[bool] = None) -> Tuple[Sequence, Sequence]:
    """One (primary, secondary) pair; texture and correlation drawn from rng
    when not pinned."""
    if style is None:
        style = STYLES[rng.randrange(len(STYLES))]
    if correlated is None:
        correlated = rng.random() < 0.5
    primary = random_sequence(rng, beta, n, style)
    if correlated:
        secondary = noisy_copy(rng, primary, gamma, flip=0.1)
    else:
        secondary = random_sequence(rng, gamma, n, style)
    return primary, secondary
