"""search-regions: reproduction-pair search and the two-stage outer region.

For each seeded 4-letter source of length SIZES, a round runs
`select_reproductions` (greedy search, Hamming levels LEVELS, the default
4096-evaluation budget) and `sr_outer_region` with its staircase frontier.
At these lengths the evaluation budget is used up, so a round is thousands
of count-only parses of short sequences and no bit I/O: the workload that
shows the search and the parse kernels without the codecs.
"""

from __future__ import annotations

from common import (IN_PROCESS, Ops, import_srlz, median, mismatches,
                    ref_joint, ref_rho_lz, region_floors, rng_for, texture)

NAME = "search-regions"
YARDSTICK = IN_PROCESS
SIZES = (256, 512)
ALPHABET = 4
LEVELS = (0.25, 0.0)
WEIGHT = 0.5   # the "weighted" objective: rho_lz(coarse) + WEIGHT * rho_cond(fine | coarse)
Q = 1
PARSE_CALLS = 20
TOL = 1e-9


def _objective(hat, til) -> float:
    return ref_rho_lz(hat) + WEIGHT * ref_joint(hat, til)[1]


def setup(seed: int) -> dict:
    srlz = import_srlz()
    from srlz import regions, sr_codec

    alpha = srlz.Alphabet.of_size(ALPHABET)
    sources = []
    for i, n in enumerate(SIZES):
        rng = rng_for(NAME, seed, i)
        x = srlz.Sequence(alpha, texture(rng, ALPHABET, n, "uniform"))
        sources.append({"x": x, "start": _objective(x.data, x.data),
                        "coarse": srlz.Sequence(alpha, [0 if rng.random() < LEVELS[0] else v
                                                        for v in x.data])})
    state = {"sources": sources, "dist": sr_codec.hamming_spec(*LEVELS),
             "budget": regions.SearchBudget(mode="greedy", weight=WEIGHT)}
    warm = srlz.Sequence(alpha, sources[0]["x"].data[:32])
    run_round({"sources": [{"x": warm, "start": _objective(warm.data, warm.data)}],
               "dist": state["dist"],
               "budget": regions.SearchBudget(mode="greedy", evaluations=64, weight=WEIGHT)}, Ops())
    return state


def _in_balls(x, hat, til):
    n = x.n
    if hat.n != n or til.n != n:
        return "reproduction length differs from the source"
    if mismatches(x.data, hat.data) > LEVELS[0] * n + TOL:
        return f"coarse reproduction has {mismatches(x.data, hat.data)} mismatches"
    if mismatches(x.data, til.data) > LEVELS[1] * n + TOL:
        return f"fine reproduction has {mismatches(x.data, til.data)} mismatches"
    return None


def _check_union(union):
    if not union.members or not union.frontier:
        return "empty union or frontier"
    for p in union.frontier:
        if not any(p.r1 >= a - TOL and p.r2 >= c - TOL and p.r1 + p.r2 >= b - TOL
                   for a, c, b in map(region_floors, union.members)):
            return f"frontier point ({p.r1}, {p.r2}) lies outside the union"
    for i, p in enumerate(union.frontier):
        for j, q in enumerate(union.frontier):
            if i != j and p.r1 <= q.r1 + TOL and p.r2 <= q.r2 + TOL:
                return f"frontier point ({p.r1}, {p.r2}) dominates ({q.r1}, {q.r2})"
    return None


def run_round(state: dict, ops: Ops) -> None:
    from srlz import regions, sr_codec

    span = ops.tr.span
    dist, budget = state["dist"], state["budget"]
    for src in state["sources"]:
        x = src["x"]
        n = x.n

        def select():
            with span("sr_codec.select_reproductions", n=n):
                return sr_codec.select_reproductions(x, dist, "weighted", budget)

        def check_select(out):
            hat, til, diag = out
            problem = _in_balls(x, hat, til)
            if problem:
                return problem
            value = _objective(hat.data, til.data)
            if abs(diag["objective_value"] - value) > TOL:
                return f"reported objective {diag['objective_value']}, recomputed {value}"
            if value > src["start"] + TOL:
                return f"objective {value} worse than the starting pair's {src['start']}"
            return None

        out = ops.call("select_reproductions", select, check_select, n=n)
        if out is not None:
            ops.note("sr_codec.pairs", out[2]["pairs"])
            ops.note("objective", out[2]["objective_value"])

        def outer():
            with span("regions.sr_outer_region", n=n):
                return regions.sr_outer_region(x, dist, Q, budget)

        ops.call("sr_outer_region", outer, _check_union, n=n)


def probe(state: dict, ops: Ops) -> None:
    """Direct calls: the two parse kernels the search scores with, at search
    lengths; the candidate search on its own; the frontier of its regions."""
    from srlz import cond_lz, lz_core, regions, sr_codec

    span = ops.tr.span
    for src in state["sources"]:
        x, coarse = src["x"], src["coarse"]
        n = x.n
        want_rho = ref_rho_lz(x.data)
        want_cond = ref_joint(coarse.data, x.data)[1]
        for _ in range(PARSE_CALLS):
            def rho():
                with span("lz_core.rho_lz", n=n):
                    return lz_core.rho_lz(x)

            def joint():
                with span("cond_lz.joint_parse", n=n):
                    return cond_lz.joint_parse(coarse, x)

            ops.call("rho_lz", rho, lambda r: None if abs(r - want_rho) <= TOL
                     else f"rho_lz {r}, reference {want_rho}", n=n)
            ops.call("joint_parse", joint, lambda jp: None if abs(jp.rho_cond - want_cond) <= TOL
                     else f"rho_cond {jp.rho_cond}, reference {want_cond}", n=n)

        def candidates():
            with span("sr_codec.candidate_pairs", n=n):
                return sr_codec.candidate_pairs(x, state["dist"], state["budget"])

        out = ops.call("candidate_pairs", candidates, lambda out: next(
            (p for p in (_in_balls(x, h, t) for h, t in out[0]) if p), None)
            if out[0] else "no candidate pairs", n=n)
        if out is None:
            ops.skip("frontier", "no candidate pairs")
            continue
        members = [regions.region_for_pair(h, t, Q) for h, t in out[0]]

        def front():
            with span("regions.frontier", n=n):
                return regions.frontier(members)

        ops.call("frontier", front, lambda f: _check_union(
            regions.RegionUnion(members=tuple(members), frontier=tuple(f))), n=n)


def layer_metrics(traced: list) -> dict:
    per_round = [ops.tr.totals() for ops in traced]
    out = {name + "_s": median([t.get(name, 0.0) for t in per_round])
           for name in ("sr_codec.candidate_pairs", "sr_codec.select_reproductions",
                        "regions.sr_outer_region", "regions.frontier")}
    for name in ("lz_core.rho_lz", "cond_lz.joint_parse"):
        out[name + "_us"] = 1e6 * median([d for ops in traced for d in ops.tr.durations(name)])
    out["sr_codec.pairs"] = sum(traced[0].notes.get("sr_codec.pairs", ()))
    out["sr_codec.search_objective"] = _mean_objective(traced[0])
    return out


def _mean_objective(ops: Ops) -> float:
    values = ops.notes.get("objective", ())
    return sum(values) / len(values) if values else 0.0


def info(state: dict, rounds: list) -> dict:
    searches = [r[4] for ops in rounds for r in ops.records if r[2]]
    return {"search_s": median(searches), "search_objective": _mean_objective(rounds[0])}


def teardown(state: dict) -> None:
    pass
