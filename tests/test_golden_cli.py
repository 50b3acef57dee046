"""CLI reports of every subcommand, pinned by the SHA-256 of their stdout.

The two-description, region and refinement digests were captured before the
two-description regions were folded into `HalfPlaneRegion`, and are asserted
with `==`: a refactor may not change a single report byte.  The 14 encode and
decode digests were re-captured for container version 2, whose reports differ
from version 1 only in the `bytes` and `checksum` fields that echo container
files.  The analyze, lz and cond codec, refinement-stage decode and verify-suite
digests were captured before the record constructors were generated from
`__slots__` and before `verify`'s flags were mapped through one table, and
`analyze-side-block4` before `analyze --block-len` computed each complexity
and block entropy once.  The
five `q2` digests (penalties at q = 2 and at a custom slack) were captured
before the converse penalties and floors moved into `bounds.converse_terms`
and `bounds.converse_floors`.  Every
call runs in its own temporary directory with
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
    "decode-sr-stage1": ("encode-sr-given", ("decode", "sr", "--mode", "sr", "--stage", "1",
                                             "-o", "out.txt")),
    "decode-sr-coarse": ("encode-sr-given", ("decode", "sr", "--mode", "sr",
                                             "--coarse-output", "coarse.txt", "-o", "out.txt")),
    "analyze": (None, ("analyze", "s.txt")),
    "analyze-side": (None, ("analyze", "x.txt", "--side-info", "u.txt")),
    "analyze-block": (None, ("analyze", "x.txt", "--block-len", "4")),
    "analyze-side-block": (None, ("analyze", "x.txt", "--side-info", "u.txt",
                                  "--block-len", "2")),
    "analyze-side-block4": (None, ("analyze", "x.txt", "--side-info", "u.txt",
                                   "--block-len", "4")),
    "encode-lz": (None, ("encode", "x.txt", "--mode", "lz", "-o", "x.lzc")),
    "decode-lz": ("encode-lz", ("decode", "x.lzc", "--mode", "lz", "-o", "out.txt")),
    "encode-cond": (None, ("encode", "x.txt", "--mode", "cond", "--side-info", "u.txt",
                           "-o", "x.cnd")),
    "decode-cond": ("encode-cond", ("decode", "x.cnd", "--mode", "cond",
                                    "--side-info", "u.txt", "-o", "out.txt")),
    "verify-split-lemma": (None, ("verify", "--suite", "split-lemma", "--budget", "300")),
    "verify-frontier": (None, ("verify", "--suite", "frontier", "--budget", "10")),
    "verify-entropy-ineq": (None, ("verify", "--suite", "entropy-ineq", "--n", "8")),
    "verify-cond-entropy-ineq": (None, ("verify", "--suite", "cond-entropy-ineq",
                                        "--n", "4")),
    "verify-converse": (None, ("verify", "--suite", "converse", "--budget", "2",
                               "--n", "64")),
    "verify-sandwich": (None, ("verify", "--suite", "sandwich", "--budget", "2",
                               "--n", "64")),
    "verify-kraft": (None, ("verify", "--suite", "kraft")),
    # penalties at q = 2 and at a custom slack
    "analyze-side-q2": (None, ("analyze", "x.txt", "--side-info", "u.txt", "--q", "2")),
    "region-pair-q2": (None, ("region", "pair", "s_hat.txt", "s_tilde.txt", "--q", "2")),
    "region-blockwise-q2": (None, ("region", "blockwise", "s_hat.txt", "s_tilde.txt",
                                   "--block-len", "8", "--side", "outer", "--q", "2")),
    "region-md-q2-custom": (None, ("region", "md", *MD3, "--q", "2",
                                   "--eps-mode", "custom:0.3")),
    "verify-sandwich-q2": (None, ("verify", "--suite", "sandwich", "--budget", "2",
                                  "--n", "64", "--q", "2")),
}

GOLDEN = {
    'analyze': '88d07516bc5145ddaa5242dae6b3f1018f872272952c15ad424a5de38f0af751',
    'analyze-block': 'f5fdbfbf7f720d12fa7a1a0699ae2a406b089f4f5240650db44f49f841645347',
    'analyze-side': 'd951260c96ed1617c07d9f60f36dd92ed6059490769c5e88d7491ae34f06494a',
    'analyze-side-block': '21efc7596f1881f22c6ccfa5da6a49792903debed531739e741881e78700847b',
    'analyze-side-block4': 'e2c719512d24e5817f3154b300f81083b8e0d0f32011722dd09139be13d7a2a0',
    'analyze-side-q2': 'beb0f1fe33555347f722bee96d2ce3ce0635ea63835fe1bcc95b65ef7efd0dcb',
    'decode-cond': 'dc0c085ce5a5611d8349d9cfcb525c9025589bd5722d9e355a0686ac28c2d821',
    'decode-egc-0': 'f1c2c09f06f7ad8594669fd6e5503b7a88c7f8779b044235e21c0ca9d2a485d8',
    'decode-egc-1': 'e33be0cdd50ba475ecadd0125c19052dfbc466394fa2bf487961398517d0a6b7',
    'decode-egc-2': 'a519ee61e7703ec3dfaa5b664382d29df3e77ee5888e0fafb30b88f5d11be7cb',
    'decode-lz': '2c16127c887a3d936793ef3ee6371023bd3e12137a4eaaed160305ce5494deea',
    'decode-sr-coarse': '988b6079a23f4795e53b868b92b4bf8acb74f41e9453a93d64989c8ae14672f3',
    'decode-sr-stage1': 'ed1b5e5c4f8cef90b2e1212b12c91434de6de4164718c386bb52aa8f7010b734',
    'decode-zb-0': '071ca4e2a2afa81d4dab3df04a8abb595831e279f5b7cde064f91de6b09654b2',
    'decode-zb-1': '3e757988d3b1f0b8907fb0d3c8f940c715d29f157768402de67116b3f7457f13',
    'decode-zb-2': '1d20f655cb5f41e32b49cb096ed29c421ca49171e0178fcf9b9a083dbd2d7698',
    'encode-cond': '06db119270f397064a54c1acdd48e7728298868e4bc1999514d12daa756dcb3d',
    'encode-egc-files': '52d9f836512e29566636935e0aab5977ad1bf09b5e7086374e4903d66ef79a86',
    'encode-egc-levels': '99ee7d27ca547ac98dfd1d2ecafa4d63cd3bc6a17d1472839c93263338824863',
    'encode-lz': 'd60f76dc772928cf2720c336065c76f41a1263b05489cb4e2397d401aa2fe61e',
    'encode-sr-given': '5b85c78dea905366afe2e349bf7498ce42be7ba6c43a2de6a9479f4f9bd149fd',
    'encode-sr-searched': '1cc36584b2d84303143a2b1a15ae520500fe540029c1e109726ff9ee9ef065af',
    'encode-zb-files': '630c48c5be8b3d93a5fb553f8a85f3dd70570b10b2cba4630f62677c139625cf',
    'encode-zb-files-u': '4db3086c83894f2993c51c717857b0f1ad055fd6c3dd2b43e58d37baa37b5705',
    'encode-zb-levels': '24c11159085d7bb2bf8a2db22ed4cb20ac532cfabd50f66158c4517bca3246f7',
    'encode-zb-levels-u': '996b38767f9f00992488ef3f01dea01730c1acd38c3cf0c52c428781ca1b548d',
    'region-blockwise': 'a10245c9a5e9603ec1ee8f20c8ee92b73fee929ede1680de66ecc4e627cb9123',
    'region-blockwise-q2': 'f9f12f49779a09e4fb3b7a21cec84049b6957f8795ea5ddb152475a67efcbae8',
    'region-md': '9f6c43e11860cb0dece21e81d2ea665a5480ceaaf336b60aca9980353dfe9f55',
    'region-md-eps-zero': 'cc913266b109aa4d9c7495144deea36ecc45671dd1587d70d14d273db8ec2fb1',
    'region-md-q2-custom': '9eedb34a9ae9bacea117dacddab2790826574fd7100a2699873803c507053785',
    'region-md-u': 'b0eaa92f2d8b6141ee86b9532cf962e0b2b3ad27502ecbf4934871c89769e7e9',
    'region-pair': '6c762b06d8911793687bf24cc616f435964640f14a6d64345983ae2e1b11b47b',
    'region-pair-q2': 'f2a31017312ab5fa94138bbf77307febf3ec9854283eb6e5357a6ea84c173ab2',
    'region-sr': '4014164ccad26ce432b06a8b2fe24d282b905ce154d029a0d1d0a5bee901901f',
    'verify-cond-entropy-ineq': '7fe933cd527b7e1e7f87b11496ff413cbc888ca61953262c8e907183523d7b7a',
    'verify-converse': '16b93a887b47e3b89aebe01d9f6eebb4f68f51c23ca7042a4784195c02feca31',
    'verify-entropy-ineq': '4632de3a8bac8b5bed8eea770e4c0cd23246b9bc36f55fc3717e7c14138e3295',
    'verify-frontier': '63e9816190c4744671203679f4707f51fd2772384e81833757632da358b1ac8b',
    'verify-kraft': '04bc37e6b0dc19a8242db2fed8882927980dbf4a6ca61d58a2909f493410ab5b',
    'verify-sandwich': '2207c667773e6e8afabaffb752984978fd1baaae25129f952dbc15511b1b3295',
    'verify-sandwich-q2': '59e99eb8a9a5aba345992ce19df69a69b3872dae90c6429b234d31ee3ea30acb',
    'verify-split-lemma': 'c206c2e4f230735f5b8e981155a575ed11339e12d6629e657a7985778cabf9d7',
}


def _call(capsys, name):
    before, argv = CALLS[name]
    if before is not None:
        _call(capsys, before)
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CALLS))
def test_report_digest(name, tmp_path, monkeypatch, capsys):
    # a report that read the variable would miss its digest
    monkeypatch.setenv("SRLZ_EPS_MODE", "zero")
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    out = _call(capsys, name)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[name]
