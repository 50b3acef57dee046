"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Shrinks every workload to a tiny size and runs it three ways: untraced and
traced as it is, where no operation may fail and the run must exit 0; and
with one planted fault, where the faulty operations must be counted as
failed, `correct` must be false and the run must exit non-zero.  The
planted faults, one per workload:

- codecs-long: the plain decoder returns its sequence with one symbol changed;
- search-regions: the search reports its objective shifted by 1e-6;
- verify-suites: the split-lemma suite reports `holds: false`;
- cli-small: the command-line decoders write a file with one bit flipped.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from unittest import mock

import run
import wl_cli
import wl_codecs
import wl_search
import wl_verify
from common import OUT, import_srlz

SEED = 5


def shrink() -> None:
    wl_codecs.SOURCES = ((2, "tiled"), (26, "runs"))
    wl_codecs.LADDER = (300, 600)
    wl_codecs.STAGED_N = 600
    wl_search.SIZES = (40,)
    wl_search.PARSE_CALLS = 2
    wl_verify.PARAMS = {
        "entropy-ineq": {"n": 8, "block_lens": (1, 2)},
        "cond-entropy-ineq": {"n": 4, "block_lens": (1, 2)},
        "kraft": {"block_len_max": 1},
        "converse": {"n_small": 4, "random_pairs": 2, "n_large": 64, "spot_checks": 4},
        "frontier": {"unions": 5, "seed": 7},
        "split-lemma": {"budget": 200},
        "sandwich": {"pairs": 2, "n": 32},
    }
    wl_verify.KRAFT_STRIDE = 256
    wl_verify.BLOCKWISE_PAIRS = 1
    wl_verify.BLOCKWISE_N = 24
    wl_cli.LONG_N = 200
    wl_cli.SHORT_N = 64
    run.measure_setup = lambda workload, seed: 0.0
    run.OUT = OUT / "selftest"


def fault_codecs():
    from srlz import lz_core

    decode = lz_core.lz_decode

    def off_by_one(stream):
        seq = decode(stream)
        data = list(seq.data)
        data[len(data) // 2] = (data[len(data) // 2] + 1) % seq.alphabet.size
        return lz_core.Sequence(seq.alphabet, data)

    return mock.patch.object(lz_core, "lz_decode", off_by_one)


def fault_search():
    from srlz import sr_codec

    select = sr_codec.select_reproductions

    def shifted(*args, **kwargs):
        hat, til, diag = select(*args, **kwargs)
        return hat, til, dict(diag, objective_value=diag["objective_value"] + 1e-6)

    return mock.patch.object(sr_codec, "select_reproductions", shifted)


def fault_verify():
    from srlz import verify

    suite = verify.SUITES["split-lemma"]
    return mock.patch.dict(verify.SUITES, {"split-lemma": lambda **kw: dict(suite(**kw), holds=False)})


# The console script with save_sequence made to flip one bit of each file it writes.
FAULTY_LAUNCHER = "\n".join((
    "import sys, srlz.cli as cli",
    "save = cli.save_sequence",
    "def flipped(seq, path, fmt='auto'):",
    "    save(seq, path, fmt)",
    "    data = bytearray(open(path, 'rb').read())",
    "    data[0] ^= 1",
    "    open(path, 'wb').write(bytes(data))",
    "cli.save_sequence = flipped",
    "sys.exit(cli.main())",
))


def fault_cli():
    return mock.patch.object(wl_cli, "LAUNCHER", FAULTY_LAUNCHER)


FAULTS = {"codecs-long": (fault_codecs, "lz.decode"),
          "search-regions": (fault_search, "select_reproductions"),
          "verify-suites": (fault_verify, "split-lemma"),
          "cli-small": (fault_cli, "decode.")}


def run_once(workload: str, trace: int):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().splitlines()[-1]), err.getvalue()


def main() -> int:
    import_srlz()
    shrink()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    try:
        for workload, (fault, op) in FAULTS.items():
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                code, res, err = run_once(workload, trace)
                missing = {m["name"] for m in declared} - set(res["metrics"])
                known = sum(int(line.rsplit(", ", 1)[1].split()[0])
                            for line in err.splitlines() if line.startswith("KNOWN "))
                if code or not res["correct"] or res["failed"] != known or missing:
                    problems.append(f"{workload} trace={trace}: exit {code}, {res['failed']} "
                                    f"failed, missing {sorted(missing)}\n{err}")
            with fault():
                code, res, err = run_once(workload, 0)
            flagged = [line for line in err.splitlines() if line.startswith("WRONG " + op)]
            if code == 0 or res["correct"] or not res["failed"] or not flagged:
                problems.append(f"{workload} with a planted fault in {op}: exit {code}, "
                                f"correct {res['correct']}, {res['failed']} failed\n{err}")
            print(f"{workload}: planted fault in {op} -> exit {code}, "
                  f"{res['failed']} of {res['attempted']} operations failed", file=sys.stderr)
    finally:
        shutil.rmtree(run.OUT, ignore_errors=True)
    for p in problems:
        print("SELFTEST FAILED:", p, file=sys.stderr)
    print("selftest", "failed" if problems else "passed", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
