"""CLI reports of the two-description, region and refinement commands, pinned
by the SHA-256 of their stdout.

The digests were captured before the two-description regions were folded into
`HalfPlaneRegion`, and are asserted with `==`: a refactor may not change a
single report byte.  Every call runs in its own temporary directory with
relative file names, since reports echo input and output paths.  The inputs
come from a private generator here, so nothing outside this file can move
them.
"""

import hashlib
import random

import pytest

from srlz import cli

# md inputs: 4-letter source, reproductions with independent erasures to 0
MD_N = 240
# sr inputs: short binary source, so that the reproduction search stays quick
SR_N = 48


def _tokens(path, alphabet_size, data):
    symbols = [str(i) for i in range(alphabet_size)]
    path.write_text("alphabet: " + " ".join(symbols) + "\n"
                    + "\n".join(symbols[v] for v in data) + "\n", encoding="utf-8")


def _write_inputs(root):
    rng = random.Random("golden-cli")
    x = [rng.randrange(4) for _ in range(MD_N)]
    for name in ("hat", "tilde"):
        _tokens(root / f"{name}.txt", 4, [0 if rng.random() < 0.3 else v for v in x])
    _tokens(root / "check.txt", 4, [0 if rng.random() < 0.05 else v for v in x])
    _tokens(root / "x.txt", 4, x)
    _tokens(root / "u.txt", 2, [v // 2 if rng.random() < 0.9 else 1 - v // 2 for v in x])
    s = [rng.randrange(2) for _ in range(SR_N)]
    _tokens(root / "s.txt", 2, s)
    for name, p in (("s_hat", 0.25), ("s_tilde", 0.1)):
        _tokens(root / f"{name}.txt", 2, [0 if rng.random() < p else v for v in s])


MD3 = ("hat.txt", "tilde.txt", "check.txt")
LEVELS = ("--d1", "0.3", "--d2", "0.2", "--d0", "0.05")

# name: (prerequisite call or None, argv)
CALLS = {
    "encode-egc-files": (None, ("encode", *MD3, "--mode", "md-egc", "--split", "0.3",
                                "-o", "egc")),
    "encode-egc-levels": (None, ("encode", "x.txt", "--mode", "md-egc", *LEVELS,
                                 "-o", "egc")),
    "encode-zb-files": (None, ("encode", *MD3, "--mode", "md-zb", "-o", "zb")),
    "encode-zb-files-u": (None, ("encode", *MD3, "--mode", "md-zb", "--u-file", "u.txt",
                                 "--alpha", "0.7", "-o", "zb")),
    "encode-zb-levels": (None, ("encode", "x.txt", "--mode", "md-zb", *LEVELS,
                                "-o", "zb")),
    "encode-zb-levels-u": (None, ("encode", "x.txt", "--mode", "md-zb", *LEVELS,
                                  "--u-file", "u.txt", "-o", "zb")),
    "decode-egc-0": ("encode-egc-files", ("decode", "egc.d1", "egc.d2", "--mode", "md-egc",
                                          "-o", "out")),
    "decode-egc-1": ("encode-egc-files", ("decode", "egc.d1", "--mode", "md-egc",
                                          "--decoder", "1", "-o", "out")),
    "decode-egc-2": ("encode-egc-files", ("decode", "egc.d2", "--mode", "md-egc",
                                          "--decoder", "2", "-o", "out")),
    "decode-zb-0": ("encode-zb-files-u", ("decode", "zb.d1", "zb.d2", "--mode", "md-zb",
                                          "-o", "out")),
    "decode-zb-1": ("encode-zb-files-u", ("decode", "zb.d1", "--mode", "md-zb",
                                          "--decoder", "1", "--aux-output", "aux.txt",
                                          "-o", "out")),
    "decode-zb-2": ("encode-zb-files-u", ("decode", "zb.d2", "--mode", "md-zb",
                                          "--decoder", "2", "-o", "out")),
    "region-md": (None, ("region", "md", *MD3)),
    "region-md-u": (None, ("region", "md", *MD3, "--u-file", "u.txt")),
    "region-md-eps-zero": (None, ("region", "md", *MD3, "--eps-mode", "zero")),
    "region-pair": (None, ("region", "pair", "s_hat.txt", "s_tilde.txt")),
    "region-blockwise": (None, ("region", "blockwise", "s_hat.txt", "s_tilde.txt",
                                "--block-len", "12", "--side", "inner-plus")),
    "region-sr": (None, ("region", "sr", "s.txt", "--d1", "0.125", "--d2", "0.0625",
                         "--seed", "3")),
    "encode-sr-given": (None, ("encode", "s.txt", "s_hat.txt", "s_tilde.txt",
                               "--mode", "sr", "-o", "sr")),
    "encode-sr-searched": (None, ("encode", "s.txt", "--mode", "sr", "--d1", "0.125",
                                  "--d2", "0.0625", "--objective", "min-sum", "-o", "sr")),
}

GOLDEN = {
    'decode-egc-0': '2f536afbc5b9ab324389d9ff38f359f505acef16ac56e553cb8a5158d6275651',
    'decode-egc-1': '39dabef4fe4b9cb56bad4abf30464982f48999025650e8d0fe664c1c3438d535',
    'decode-egc-2': '6af7a1a646188722f40d13550e2a9fa7904b84b39fb434cbc5812203e816d857',
    'decode-zb-0': '73a872adc321f6c773fbc8adbc199db631fc2ce943105a0ec8c9f1a899d4d1bc',
    'decode-zb-1': 'a662e59ce640dd1db05b4238ce839bebb19e7e483b9468ce8668e8f2651a7870',
    'decode-zb-2': '2f12f4ace38cae863128c4599e4881a059845cf0a801c8800ce34d999ca7dad6',
    'encode-egc-files': '9f5ad9785ce7b2460a1930f6e27fa3b3e444a891111c218ed5ac73997f717b92',
    'encode-egc-levels': 'e4f9fde7b632034581331eda8f7c447e094c0f73415c93f487cf1ea748ac2733',
    'encode-sr-given': '245bb277802200bcd012b21261ea57d0fa894f49315ca505058838bb81e9ce7a',
    'encode-sr-searched': '5b6e68a1abe3045076ef19b2e497098fa6e29da9e447cc592cc57f25ce630c53',
    'encode-zb-files': '893a5ec45a7e3695235e92696a0bfc10cd9c7860222aafbadd602fd3b5a87dc2',
    'encode-zb-files-u': 'e622bc17777a9e7a67cfe58119c5e918772b443a205674869d127e0ff0c65733',
    'encode-zb-levels': '79b9cf89e0941f8fdc7c18be35c4c5014b565c09a205341f79c564b15aeb6176',
    'encode-zb-levels-u': '06a56eedac59a24d3f500397d9e204697265b165fd136498643a71db614f5a9e',
    'region-blockwise': 'a10245c9a5e9603ec1ee8f20c8ee92b73fee929ede1680de66ecc4e627cb9123',
    'region-md': '9f6c43e11860cb0dece21e81d2ea665a5480ceaaf336b60aca9980353dfe9f55',
    'region-md-eps-zero': 'cc913266b109aa4d9c7495144deea36ecc45671dd1587d70d14d273db8ec2fb1',
    'region-md-u': 'b0eaa92f2d8b6141ee86b9532cf962e0b2b3ad27502ecbf4934871c89769e7e9',
    'region-pair': '6c762b06d8911793687bf24cc616f435964640f14a6d64345983ae2e1b11b47b',
    'region-sr': '4014164ccad26ce432b06a8b2fe24d282b905ce154d029a0d1d0a5bee901901f',
}


def _call(capsys, name):
    before, argv = CALLS[name]
    if before is not None:
        _call(capsys, before)
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CALLS))
def test_report_digest(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SRLZ_EPS_MODE", raising=False)
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    out = _call(capsys, name)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[name]
