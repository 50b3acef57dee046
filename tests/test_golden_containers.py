"""Container bytes of all five modes, pinned by SHA-256.

The digests were captured before bit packing and the stream hashes were
rewritten for speed, and are asserted with `==`: a speed-up may not change a
single output byte.  The inputs come from a private generator here, so
nothing outside this file can move them.  The 26-letter cases give the md
pipelines product side alphabets of 676 (`md-egc`) and 1352 (`md-zb`); the
300-letter case gives 90,000 and 180,000, above the 2^16 values that the
side-information checksum folds.
"""

import hashlib
import random

import pytest

from srlz import mdc, sr_codec
from srlz.cond_lz import cond_encode
from srlz.lz_core import Alphabet, Sequence, lz_encode

CASES = {
    # name: (alphabet size, n, style)
    "bin-uniform-400": (2, 400, "uniform"),
    "bin-runs-1500": (2, 1500, "runs"),
    "26-uniform-600": (26, 600, "uniform"),
    "26-tiled-2000": (26, 2000, "tiled"),
    "300-uniform-800": (300, 800, "uniform"),
    "26-n1": (26, 1, "uniform"),
    "bin-n0": (2, 0, "uniform"),
}


def _inputs(name):
    """(x, hat, tilde, u): the source, two reproductions with independent 25%
    of symbols set to 0, and the two-level auxiliary."""
    size, n, style = CASES[name]
    rng = random.Random(f"golden/{name}")
    if style == "uniform":
        data = [rng.randrange(size) for _ in range(n)]
    elif style == "tiled":
        tile = [rng.randrange(size) for _ in range(97)]
        data = [tile[i % 97] for i in range(n)]
    else:  # runs
        data = []
        while len(data) < n:
            run = 1
            while rng.random() < 6 / 7:
                run += 1
            data.extend([rng.randrange(size)] * min(run, n - len(data)))
    alphabet = Alphabet.of_size(size)
    x = Sequence(alphabet, data)

    def erased():
        return Sequence(alphabet, [0 if rng.random() < 0.25 else v for v in data])

    hat, tilde = erased(), erased()
    return x, hat, tilde, mdc.default_auxiliary(x)


def containers(name):
    """{mode: container bytes}; an md container is its two descriptions joined."""
    x, hat, tilde, u = _inputs(name)
    d1, d2, _ = mdc.egc_encode(hat, tilde, x, 0.5)
    z1, z2, _ = mdc.zb_encode(hat, tilde, x, u, 0.5)
    return {
        "lz": lz_encode(x).to_bytes(),
        "cond": cond_encode(tilde, hat).to_bytes(),
        "sr": sr_codec.sr_encode(x, hat, tilde).to_bytes(),
        "md-egc": d1 + d2,
        "md-zb": z1 + z2,
    }


GOLDEN = {
    '26-n1': {
        'lz': 'b98d77457c904d0ed6094f76ef12b1ee203ea74cc3bb22084b93f6f325451c37',
        'cond': '81383df2f3ed587e3e0af72764ba8e6c70b37be2b8297e8c1af4fb4a1632b25e',
        'sr': 'c82c01f9ce60c0bdbcd74965fda7b543a4689c99931c9d4826ff9071bf863569',
        'md-egc': '0a11de738839481cd918d2b867bc46ddcf23ef788b0c0f98974105238961e292',
        'md-zb': '94477e95a2d7d1951b0759c5487da0649c4ff4cd5b19deb34f700130d4bf7d3f',
    },
    '26-tiled-2000': {
        'lz': 'f4a64a5464becb1646883315b1458e6ccd3dfe5427b4c7883e4341302724ddc6',
        'cond': '6cd8831a0671c1c08882930abb8beda23964b789be745eb777dd29131da683dc',
        'sr': '16bff5bc46688d4c7cf49bdbe3e4f594b0d04eed8fabd3e078d5771074fc634e',
        'md-egc': '1577de0e5542e00298b1b5b34b8691159edc55847b606d79e10fc3f530d7a33c',
        'md-zb': '1df0654918b54d0eff4713dee892ac619848c59bb2a23176a4cec1a31c3810eb',
    },
    '26-uniform-600': {
        'lz': 'f20caf5b38c644da564d6ec6892ec348b64971e908717ab1d07024ea5d8a5981',
        'cond': '824fdb327af0832fb84eea8599df00513997c9082723f063faed303e0c0bb097',
        'sr': 'bcd08cd478a283230fd90f43686243dbdb177252a37e7590384678a0306400d4',
        'md-egc': '1ea768a3c0b24d1a61f30c13afd876a22d04228550051da74fadd1158b731242',
        'md-zb': '2faf34c7ff3df1bcd924ef893fd8f3e6ef36b5609f9d596930faee5095ae4283',
    },
    '300-uniform-800': {
        'lz': '618b54678d9da5d657af5c70bdcb9bc7d13e7c18c5e1d759c58244b4e94a3720',
        'cond': '334ce4bf3009c7e3cd6f42dc3769c84c2e01d4007b33957c35a4b41da6b8f931',
        'sr': 'e727dcc69163dd0b535a1c3408141501a091fe084bb8224775bf7da37300b500',
        'md-egc': '4b36152020e7bbe3405fd7109000d1731b102162b7180299505cedd774d27ea2',
        'md-zb': 'c76dd98a618030ba75bf49b28b9bb7319c6da4ffab975a069cfe27f517913a37',
    },
    'bin-n0': {
        'lz': '7493aade1500976a32fec501498e304c26f74837cb07741ba474135bdea1958b',
        'cond': 'eeb36467e54b04e77cf364762c53ad4ed00c67c92d06ab57cb483cbd64d7ae7f',
        'sr': 'fba3f95e66c9c1ec8be12f8975035b8ea2b577a4acd47bfae502322fbe9535bf',
        'md-egc': '088865a0e55f0dd408670e57f0641d61320aaea4fce499705e73594edc2bc968',
        'md-zb': '48fc69a8dbba2189bc96af52fca687350c5102bf1cb1368b20c2e0ea8b806e3f',
    },
    'bin-runs-1500': {
        'lz': 'bbb209ffbe6b5ea298d4d6d0b6c08e4cf989da086cfc09988f49f0b95abf35db',
        'cond': 'd033e9b75c60860e69a5bd1c95f50b3b89f20e120f5a40594262e3d7289ce7d9',
        'sr': 'fdab72549f265124676a77216f4116d283c8544665741d79ca25144aaa6feec2',
        'md-egc': '3bb164a184377f376f8d68217c595a0da12a67f7c9303aad11ce69fdc5e92665',
        'md-zb': '3016b863d949d4bf2f84078d3a2b800d12346eb9e3df55f9934875de09ada932',
    },
    'bin-uniform-400': {
        'lz': '6634aaa3c8424d6175025ae9cf152f02a5ffaeb47b9c77f5aa580aa421ec8797',
        'cond': '4e4cc828184b19aea27cc313218ec6c41ff18e5c731b3bb30d25d0f0c78fd8b2',
        'sr': '1f29a55f1016ded5a90b1712386b9646bb1d4b1d562d707cbee1e0a0b8665a1a',
        'md-egc': 'f5ee7f9caf510642d30fdd9ce6b31fd4bce63f32d3a05e879a56b8288badad8d',
        'md-zb': '9dbdd43f85e7c77c135cfbdd361004e43866b3573fbbc91f9833669bba068603',
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_container_digests(name):
    got = {mode: hashlib.sha256(raw).hexdigest()
           for mode, raw in containers(name).items()}
    assert got == GOLDEN[name]

