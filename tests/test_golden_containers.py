"""Container bytes of all five modes, pinned by SHA-256.

The digests are asserted with `==`: a speed-up may not change a single
output byte.  They pin container version 2, re-captured when the CRC-32
trailer replaced the dictionary hash, after checking on every input here
that each v2 leaf is its v1 bytes with the version byte set to 2, the 8-byte
dictionary hash removed and the CRC appended, and that each wrapper is its
v1 directory over those leaves, sealed the same way.  The inputs come from a private generator here, so
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
        'lz': '7c17a4968638a3bd1f7718b242dd1e341198a7dbd30099eba9c666c5fd42a685',
        'cond': 'c65582c124b45ff274d4f78dd459bc75e29dd276cda3a68268b17fdd956e6757',
        'sr': '5d7f12b22d64b36e108c91e88ec82e5377376784e6512671367ff46f85a5c29a',
        'md-egc': '3692d3c17eaf672a0375c7c644b71c62f143b0a25d08e79dc77b602c9e975ad7',
        'md-zb': '26ae4bf855c0fe040431c7e50ec049de3b4453045f456b1addd16fcdfeaba5f1',
    },
    '26-tiled-2000': {
        'lz': '22e2a418f098dd815b0e655db7403a7e9f9e8654c70b862994b0f0cd64f0cca3',
        'cond': '6b5b2e0a707375114e3d07e5824e496910b0b60958583a78df8478a348b6acca',
        'sr': '52b4c10f4d082d733b3686e06985441fde8070f27e4eb043f93393e0f2809915',
        'md-egc': '75cedeb044f631ac027eae19425b53b9b2b71a38e1830a83ca7c113a9d87fcaf',
        'md-zb': 'af1e5fb30a4043c4082d9d1cb1648406e8f283c3ade1ae9e05ce7eaf161ba580',
    },
    '26-uniform-600': {
        'lz': '729571c3087aa6611531504cfb8b9a0db7ff3b052918425cbbc20ebe9ad7a29c',
        'cond': '0ea6745bc183ca7f84e98e164d2a7b37fe55429a2c64e3b0a0873647433de544',
        'sr': 'bc87173ebb9c84188c3d2fdbe97ff0ad29414a1f4d2ac3df68b0c9614a2e8d87',
        'md-egc': '37db60421a031c29febb4583d29bcf225f0296558066c9e55226a9839b0e7325',
        'md-zb': '3f7851190da083f42fa64b704f8c07e49143d3154de63bf28d50eee9a0305ba8',
    },
    '300-uniform-800': {
        'lz': 'bf084ba59ddb400e55873bf723e72d519f93b1d35dcad0aba54b234ee0999c95',
        'cond': '186639e0e76042be57352aa302049ea19bba096cb53b5f3760313fdd95625347',
        'sr': 'f9d889e1bd27e269988d9b099136a88ed4bbd40d4a659280b1126fbab32a1a36',
        'md-egc': '59505535035f0f207203ea1ba4771837c858f98d17569653f57db146462c139c',
        'md-zb': '88d31a3ce0eb1516c9c27be941b6545fa2a2ab11e91860543f87476560062f1a',
    },
    'bin-n0': {
        'lz': '329a2c9c337327836cbbdc5b07da30befc96e2017be6f131bd078ee294cade94',
        'cond': '18ee5ed7e86e9865d6715ceaad4e3a8cbf1fa1422b747d470e3d41308c7af8a9',
        'sr': '5f4668ed9af6dd528438ba044500594bca6c8447a5507f4b252c9e0792ea847d',
        'md-egc': 'dc3297e3d9b1457a27cb99e3353e3dc38db013bc4b76891ff88204ca570460ff',
        'md-zb': 'ddb4ea841bd412a0d24bed85f6f6d6d563187068c54f015233f3e23faaab76a3',
    },
    'bin-runs-1500': {
        'lz': '0228027c1395f9653298a67506974dee342c065e113ff51d797f59ee992a170d',
        'cond': 'a0db8090ffcf83c4ee4a1880648dded925bb0498e9a42a6dfcea6be53a562390',
        'sr': 'e198244b6b597e5a56ed756fc4caffec48c3654a570cf601fd1c20dacbdbdb55',
        'md-egc': '988d64905bf2f53ce92903cfe8fbce85f048e1247214c8e32e6f52eaba002bb7',
        'md-zb': 'ef59eec3a85559d084edd6332a2d87c6a1a65ca05787c62d451e6210ba8ff522',
    },
    'bin-uniform-400': {
        'lz': 'e9768ae789e2c96c624d7f3366af140338d2026a6bba1be666a64429818de9a9',
        'cond': '5feb9abf8f6a454550ce963eb0be4583a747f5aa8af4fb7a0623f55bfb9fe107',
        'sr': 'f5c9ebcc59c0e514af54331b22ca49f7e17be66cf9a737a339ee45d3ef85ad7d',
        'md-egc': '7b85fe9a50233dadbc9811876d9875e489ae3de0b2510b97d886133c49717258',
        'md-zb': '9e6f9ced31a0616523302c841b08e285933a07420fb207015dc693969b3f9151',
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_container_digests(name):
    got = {mode: hashlib.sha256(raw).hexdigest()
           for mode, raw in containers(name).items()}
    assert got == GOLDEN[name]

