"""Benchmark runner for srlz.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with a single caller for at least S
seconds, in whole rounds of the same operations, checks every output, and
prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from rounds that record
spans, which alternate with untraced rounds so that the tracing overhead is
measured in the same run.  A copy of the result goes to bench/out/results/,
and the spans of a traced run to bench/out/traces/.  The exit code is 1 when
an output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter, namedtuple

from common import (BENCH, INTERPRETER, NULL, OUT, ROOT, Ops, Tracer, median,
                    run_child, self_peak_rss_mib, tail)
import wl_cli
import wl_codecs
import wl_search
import wl_verify

WORKLOADS = {m.NAME: m for m in (wl_codecs, wl_search, wl_verify, wl_cli)}
SETUP_SAMPLES = 5


Round = namedtuple("Round", "traced ops probe")


def measure_setup(workload: str, seed: int) -> float:
    """Median time, in reference seconds, of SETUP_SAMPLES fresh interpreters
    that each import the package, generate the inputs and run the warm-up,
    then exit; measured against the interpreter yardstick."""
    times = []
    before = INTERPRETER.measure()
    for _ in range(SETUP_SAMPLES):
        code, _, err, wall, _ = run_child(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"], cwd=ROOT)
        if code != 0:
            raise RuntimeError(f"set-up run exited {code}: {err.decode(errors='replace')[-2000:]}")
        after = INTERPRETER.measure()
        times.append(INTERPRETER.scale(wall, before, after))
        before = after
    return median(times)


def run_rounds(wl, state, seconds: float, trace: bool) -> list:
    """Rounds until `seconds` have passed; with tracing, untraced and traced
    rounds alternate and their counts are equal.  A traced round records
    spans and then runs the workload's probe, direct calls into the layers
    below its operations."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        tr = Tracer() if traced else NULL
        ops = Ops(tr, wl.YARDSTICK)
        wl.run_round(state, ops)
        probe = None
        if traced:
            probe = Ops(tr, wl.YARDSTICK)
            wl.probe(state, probe)
        rounds.append(Round(traced, ops, probe))
        if time.perf_counter() >= deadline and (not trace or len(rounds) % 2 == 0):
            return rounds


def end_to_end(state, rounds, setup_s: float) -> dict:
    peak = state.get("child_peak_rss_mib") or self_peak_rss_mib()
    return {"setup_s": setup_s, "round_s": median([r.ops.busy() for r in rounds]),
            "peak_rss_mib": peak}


def per_layer(wl, rounds) -> dict:
    values = wl.layer_metrics([r.ops for r in rounds if r.traced])
    busy = lambda traced: median([r.ops.busy() for r in rounds if r.traced == traced])
    values["trace.overhead_pct"] = 100.0 * (busy(True) / busy(False) - 1.0)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate inputs and warm up, then exit (times set-up)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.teardown(wl.setup(args.seed))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    state = wl.setup(args.seed)
    try:
        setup_s = measure_setup(args.workload, args.seed)
        rounds = run_rounds(wl, state, args.seconds, bool(args.trace))
        if args.trace:
            declared = spec["per_layer"]
            values = per_layer(wl, rounds)
        else:
            declared = spec["end_to_end"]
            values = end_to_end(state, rounds, setup_s)
        info = wl.info(state, [r.ops for r in rounds])
    finally:
        wl.teardown(state)

    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    groups = [g for r in rounds for g in (r.ops, r.probe) if g is not None]
    records = [r for g in groups for r in g.records]
    wrong = [w for g in groups for w in g.wrong]
    known = [k for g in groups for k in g.known]
    errors = [e for g in groups for e in g.errors]
    result = {"correct": not wrong, "attempted": len(records),
              "failed": sum(1 for r in records if not r[2]), "metrics": metrics}

    _report(args, rounds, records, wrong, known, errors, info, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _report(args, rounds, records, wrong, known, errors, info, result) -> None:
    """Human summary on stderr; result and spans under bench/out/."""
    ok_times = [r[4] for r in records if r[2]]
    t = tail(ok_times)
    err = sys.stderr
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds, "
          f"{len(records)} operations, {result['failed']} failed", file=err)
    print(f"  operation wall time p50 {median(ok_times):.6f} s"
          + (f", p{t[0]} {t[1]:.6f} s" if t else "") + f" over {len(ok_times)} samples", file=err)
    info["round_wall_s"] = median([r.ops.busy(wall=True) for r in rounds])
    for name, value in info.items():
        print(f"  {name} = {value}", file=err)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}", file=err)
    for name, why in wrong[:5]:
        print(f"WRONG {name}: {why}", file=err)
    for name, times in Counter(name for name, _ in known).items():
        print(f"KNOWN {name}: {dict(known)[name]}, {times} times", file=err)
    for name, text in errors[:3]:
        print(f"FAILED {name}: {text}", file=err)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "rounds": len(rounds), "info": info,
                   "op_tail": t, **result}, fh, indent=1)
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        with open(OUT / "traces" / f"{stem}.jsonl", "w") as fh:
            for i, r in enumerate(rounds):
                if not r.traced:
                    continue
                for name, t0, t1, parent, attrs in r.ops.tr.spans:
                    fh.write(json.dumps({"round": i, "name": name, "start": t0, "end": t1,
                                         "parent": parent, **attrs}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
