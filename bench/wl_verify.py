"""verify-suites: all seven verification suites at fixed parameters.

The suites drive the same parse kernels as the codecs in the opposite
regime: millions of tiny inputs (every pair of binary sequences of length 8
in `converse`, every binary sequence of length 14 in `entropy-ineq`), plus
the enumeration of one-state information-lossless encoders and the Kraft
sums over them, and the only run-time use of numpy.  A kernel or bit-I/O
change that helps long inputs but costs tiny ones shows here.
"""

from __future__ import annotations

from common import IN_PROCESS, Ops, import_srlz, median, region_floors, rng_for

NAME = "verify-suites"
YARDSTICK = IN_PROCESS
# Fixed parameters per suite, chosen so that one round takes a few seconds.
# The randomized suites also get a suite seed drawn from the benchmark seed,
# except `frontier`: it fails on about one seed in thirty (KNOWN_FAULTS), so
# it runs at a fixed seed on which it fails every time.
PARAMS = {
    "entropy-ineq": {"n": 14, "block_lens": (1, 2, 7)},
    "cond-entropy-ineq": {"n": 7, "block_lens": (1, 7)},
    "kraft": {"block_len_max": 2},
    "converse": {"n_small": 8, "random_pairs": 10, "n_large": 256, "spot_checks": 20},
    "frontier": {"unions": 100, "seed": 7},
    "split-lemma": {"budget": 100000},
    "sandwich": {"pairs": 6, "n": 256},
}
SEEDED = ("converse", "split-lemma", "sandwich")
KNOWN_FAULTS = {"frontier": "known fault: the staircase of a frontier's own corners "
                            "differs in the last bit (regions.region_from_corner)"}
KRAFT_STRIDE = 16      # probe: kraft_check on every 16th enumerated encoder
BLOCKWISE_PAIRS = 4    # probe: blockwise regions of this many seeded pairs
BLOCKWISE_N = 240


def _divisors_from(n: int, low: int) -> list:
    return [d for d in range(low, n + 1) if n % d == 0]


def _expected(suite: str, p: dict) -> dict:
    """Case counts each report must state for the parameters it was given."""
    if suite == "entropy-ineq":
        return {"sequences": 2 ** p["n"], "checks": 2 ** p["n"] * len(p["block_lens"])}
    if suite == "cond-entropy-ineq":
        return {"pairs": 4 ** p["n"], "checks": 4 ** p["n"] * len(p["block_lens"])}
    if suite == "kraft":
        return {"block_lens": list(range(1, p["block_len_max"] + 1))}
    if suite == "converse":
        side = 2 ** p["n_small"]
        return {"exhaustive": {"pairs": side * side, "checks": {"i": side, "ii": side * side, "iii": side}},
                "random": {"pairs": p["random_pairs"], "n": p["n_large"]},
                "spot_checks": {"count": p["spot_checks"]}}
    if suite == "frontier":
        return {"unions": p["unions"]}
    if suite == "split-lemma":
        return {"checks": p["budget"]}
    if suite == "sandwich":
        return {"pairs": p["pairs"], "n": p["n"],
                "containment_checks": p["pairs"] * len(_divisors_from(p["n"], 2))}
    raise KeyError(suite)


def _mismatch(report: dict, want: dict, path: str = ""):
    for key, value in want.items():
        got = report.get(key) if isinstance(report, dict) else None
        if isinstance(value, dict):
            problem = _mismatch(got or {}, value, f"{path}{key}.")
            if problem:
                return problem
        elif got != value:
            return f"{path}{key} is {got!r}, expected {value!r}"
    return None


def _check(suite: str, params: dict):
    def check(report: dict):
        if report.get("holds") is not True or report.get("violations"):
            return f"suite {suite} does not hold"
        if suite == "kraft" and report["checks"] != report["family_size"] * params["block_len_max"]:
            return f"kraft made {report['checks']} checks over {report['family_size']} encoders"
        problem = _mismatch(report, _expected(suite, params))
        return f"suite {suite}: {problem}" if problem else None
    return check


def _checks_done(suite: str, report: dict) -> int:
    if suite == "converse":
        return sum(report["exhaustive"]["checks"].values())
    if suite == "frontier":
        return report["unions"]
    if suite == "sandwich":
        return report["containment_checks"]
    return report["checks"]


def setup(seed: int) -> dict:
    srlz = import_srlz()
    rng = rng_for(NAME, seed)
    params = {suite: dict(p, **({"seed": rng.randrange(1 << 31)} if suite in SEEDED else {}))
              for suite, p in PARAMS.items()}
    pairs = []
    for i in range(BLOCKWISE_PAIRS):
        beta, gamma = (2, 3, 4)[i % 3], (2, 3, 4)[(i + 1) % 3]
        pairs.append((srlz.Sequence(srlz.Alphabet.of_size(beta),
                                    [rng.randrange(beta) for _ in range(BLOCKWISE_N)]),
                      srlz.Sequence(srlz.Alphabet.of_size(gamma),
                                    [rng.randrange(gamma) for _ in range(BLOCKWISE_N)])))
    run_round({"params": {"split-lemma": {"budget": 100, "seed": 0},
                          "sandwich": {"pairs": 1, "n": 16, "seed": 0}}}, Ops())
    return {"params": params, "pairs": pairs}


def run_round(state: dict, ops: Ops) -> None:
    from srlz import verify

    span = ops.tr.span
    for suite, params in state["params"].items():
        def run():
            with span("verify." + suite):
                return verify.SUITES[suite](**params)

        report = ops.call(suite, run, _check(suite, params), KNOWN_FAULTS.get(suite))
        if report is not None:
            ops.note("verify.checks", _checks_done(suite, report))


def probe(state: dict, ops: Ops) -> None:
    """Direct calls: the encoder enumeration, Kraft sums over a stride of
    the family, and blockwise inner and outer regions of seeded pairs at
    every block length that divides n."""
    from srlz import fsm, regions

    span = ops.tr.span

    def enumerate_family():
        with span("fsm.enumerate_lossless_onestate_binary"):
            return fsm.enumerate_lossless_onestate_binary()

    fam = ops.call("enumerate", enumerate_family, lambda out: None
                   if out[0] and len(out[0]) == len(out[1]) * len(out[2])
                   else "family size is not the product of the stage tables")
    if fam is None:
        ops.skip("kraft_check", "no family")
    else:
        chosen = fam[0][::KRAFT_STRIDE]

        def kraft():
            with span("fsm.kraft_check"):
                return [fsm.kraft_check(enc, l) for enc in chosen for l in (1, 2)]

        ops.call("kraft_check", kraft, lambda reps: None if all(
            r["holds"] and r["lhs"] <= r["rhs"] for r in reps) else "a Kraft sum exceeds its budget")

    for primary, secondary in state["pairs"]:
        def blockwise():
            with span("regions.blockwise_region"):
                return [(regions.blockwise_region(primary, secondary, 1, k, "inner-plus"),
                         regions.blockwise_region(primary, secondary, 1, k, "outer-minus"))
                        for k in _divisors_from(primary.n, 2)]

        def contained(pairs):
            for inner, outer in pairs:
                (ai, ci, bi), (ao, co, bo) = region_floors(inner), region_floors(outer)
                if ai < ao - 1e-9 or ci < co - 1e-9 or bi < bo - 1e-9:
                    return f"inner region at k={inner.meta['block_len']} leaves the outer region"
            return None

        ops.call("blockwise_region", blockwise, contained)


def layer_metrics(traced: list) -> dict:
    per_round = [ops.tr.totals() for ops in traced]
    names = ["verify." + suite for suite in PARAMS] + [
        "fsm.enumerate_lossless_onestate_binary", "fsm.kraft_check", "regions.blockwise_region"]
    out = {name.replace("-", "_") + "_s": median([t.get(name, 0.0) for t in per_round])
           for name in names}
    out["verify.checks"] = sum(traced[0].notes.get("verify.checks", ()))
    return out


def info(state: dict, rounds: list) -> dict:
    return {"verify_s": median([ops.busy(wall=True) for ops in rounds])}


def teardown(state: dict) -> None:
    pass
