"""cli-small: a fixed script of `srlz` subcommands on files of 1k-4k symbols.

Every call runs in a fresh interpreter, the way the installed `srlz` console
script runs, and the calls run one at a time.  A call on inputs this small
is mostly interpreter start-up and imports, which the library workloads pay
once, in set-up: this workload is where import cost shows.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from common import (INTERPRETER, OUT, SRC, Ops, erased, median, noisy, rng_for,
                    run_child, texture)

NAME = "cli-small"
YARDSTICK = INTERPRETER
# What the `srlz = "srlz.cli:main"` console script runs.
LAUNCHER = "import sys; from srlz.cli import main; sys.exit(main())"
LONG_N = 4000    # analyze, lz and cond files
SHORT_N = 1000   # sr, md and region files
LETTERS = b"acgt"
SPLIT_BUDGET = 2000
IMPORT_SAMPLES = 3
CALL_TIMEOUT_S = 60.0


def _files(seed: int) -> dict:
    rng = rng_for(NAME, seed)
    src = texture(rng, 4, LONG_N, "runs")
    x = src[:SHORT_N]
    as_bytes = lambda data: bytes(LETTERS[v] for v in data)
    return {"src.bin": as_bytes(src), "side.bin": as_bytes(noisy(rng, src, 4, 0.1)),
            "x.bin": as_bytes(x), "hat.bin": as_bytes(erased(rng, x, 0.25)),
            "tilde.bin": as_bytes(erased(rng, x, 0.25)),
            "u.bin": bytes(b"01"[v // 2] for v in x)}


# (operation, argv, {decoded file: the input file it must equal})
SCRIPT = (
    ("analyze", ["analyze", "src.bin"], {}),
    ("encode.lz", ["encode", "src.bin", "--mode", "lz", "-o", "s.lzc"], {}),
    ("decode.lz", ["decode", "s.lzc", "--mode", "lz", "-o", "lz.out"], {"lz.out": "src.bin"}),
    ("encode.cond", ["encode", "src.bin", "--mode", "cond", "--side-info", "side.bin",
                     "-o", "s.czc"], {}),
    ("decode.cond", ["decode", "s.czc", "--mode", "cond", "--side-info", "side.bin",
                     "-o", "cond.out"], {"cond.out": "src.bin"}),
    ("encode.sr", ["encode", "x.bin", "hat.bin", "x.bin", "--mode", "sr", "-o", "s.src"], {}),
    ("decode.sr", ["decode", "s.src", "--mode", "sr", "-o", "fine.out",
                   "--coarse-output", "coarse.out"], {"fine.out": "x.bin", "coarse.out": "hat.bin"}),
    ("encode.md-egc", ["encode", "hat.bin", "tilde.bin", "x.bin", "--mode", "md-egc",
                       "--split", "0.5", "-o", "egc"], {}),
    ("decode.md-egc", ["decode", "egc.d1", "egc.d2", "--mode", "md-egc", "-o", "egc.out"],
     {"egc.out.hat": "hat.bin", "egc.out.tilde": "tilde.bin", "egc.out.check": "x.bin"}),
    ("encode.md-zb", ["encode", "hat.bin", "tilde.bin", "x.bin", "--mode", "md-zb",
                      "--u-file", "u.bin", "--alpha", "0.5", "-o", "zb"], {}),
    ("decode.md-zb", ["decode", "zb.d1", "zb.d2", "--mode", "md-zb", "-o", "zb.out"],
     {"zb.out.aux": "u.bin", "zb.out.hat": "hat.bin", "zb.out.tilde": "tilde.bin",
      "zb.out.check": "x.bin"}),
    ("region.pair", ["region", "pair", "hat.bin", "x.bin"], {}),
    ("region.blockwise", ["region", "blockwise", "hat.bin", "x.bin", "--block-len", "8"], {}),
    ("region.md", ["region", "md", "hat.bin", "tilde.bin", "x.bin", "--u-file", "u.bin"], {}),
    ("verify", ["verify", "--suite", "split-lemma", "--budget", str(SPLIT_BUDGET)], {}),
)
SUBCOMMANDS = ("analyze", "encode", "decode", "region", "verify")


def _call(state: dict, argv: list):
    return run_child([sys.executable, "-c", LAUNCHER, *argv], cwd=state["work"],
                     timeout=CALL_TIMEOUT_S)


def setup(seed: int) -> dict:
    if not (SRC / "srlz" / "cli.py").is_file():
        raise SystemExit(f"srlz sources not found under {SRC}")
    work = OUT / "work" / f"{NAME}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    state = {"work": work, "seed": seed, "inputs": _files(seed)}
    try:
        for name, data in state["inputs"].items():
            (work / name).write_bytes(data)
        code, _, err, _, _ = _call(state, ["analyze", "src.bin"])
        if code != 0:
            raise RuntimeError(f"warm-up call exited {code}: {err.decode(errors='replace')}")
    except BaseException:
        teardown(state)
        raise
    return state


def run_round(state: dict, ops: Ops) -> None:
    work = state["work"]
    for name, argv, expect in SCRIPT:
        for out in expect:
            (work / out).unlink(missing_ok=True)
        if name == "verify":
            argv = argv + ["--seed", str(state["seed"])]

        def check(result, name=name, expect=expect):
            code, stdout, stderr, _, rss = result
            state["child_peak_rss_mib"] = max(state.get("child_peak_rss_mib", 0.0), rss)
            if code != 0:
                return f"{name} exited {code}: {stderr.decode(errors='replace')[-300:]}"
            try:
                report = json.loads(stdout)
            except ValueError:
                return f"{name} printed no JSON report"
            if report.get("report_version") != 1:
                return f"{name} report_version is {report.get('report_version')!r}"
            for out, src in expect.items():
                path = work / out
                if not path.is_file() or path.read_bytes() != state["inputs"][src]:
                    return f"{name} wrote {out}, which differs from {src}"
            return None

        ops.call(name, lambda argv=argv: _call(state, argv), check)


def probe(state: dict, ops: Ops) -> None:
    """Interpreter start-up alone and with `import srlz.cli`, in fresh
    processes, IMPORT_SAMPLES times each."""
    for label, code in (("bare", "pass"), ("import", "import srlz.cli")):
        for _ in range(IMPORT_SAMPLES):
            def start(code=code, label=label):
                with ops.tr.span("cli.start." + label):
                    return run_child([sys.executable, "-c", code], cwd=state["work"])
            ops.call("start." + label, start, lambda r: None if r[0] == 0 else
                     f"interpreter exited {r[0]}: {r[2].decode(errors='replace')[-300:]}")


def layer_metrics(traced: list) -> dict:
    spans = lambda name: [d for ops in traced for d in ops.tr.durations(name)]
    out = {"cli.import_s": median(spans("cli.start.import")) - median(spans("cli.start.bare"))}
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}_p50_s"] = median([d for name, _, _ in SCRIPT if name.split(".")[0] == sub
                                          for d in spans("op." + name)])
    return out


def info(state: dict, rounds: list) -> dict:
    calls = [r[4] for ops in rounds for r in ops.records if r[2]]
    return {"cli_call_p50_s": median(calls), "calls": len(calls)}


def teardown(state: dict) -> None:
    shutil.rmtree(state["work"], ignore_errors=True)
