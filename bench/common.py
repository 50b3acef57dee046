"""Shared pieces of the benchmark: locating the package under test, the
seeded input generator, reference parses for the output checks, the span
recorder and the operation log.

Nothing here imports from `tests/` or `srlz.corpus`: the inputs and the
reference answers are the benchmark's own, so a change to the program cannot
change the workload or the answers it is checked against.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def import_srlz():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "srlz" / "__init__.py").is_file():
        raise SystemExit(f"srlz sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import srlz

    if Path(srlz.__file__).resolve().parent != SRC / "srlz":
        raise SystemExit(f"imported srlz from {srlz.__file__}, not from {SRC}")
    return srlz


def child_env() -> dict:
    """Environment for child interpreters: the checkout's `src/` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# seeded inputs


def rng_for(workload: str, seed: int, stream: int = 0) -> random.Random:
    """One independent generator per (workload, seed, stream)."""
    return random.Random(f"{workload}/{seed}/{stream}")


TILE_LEN = 97


def texture(rng: random.Random, k: int, n: int, kind: str) -> list:
    """Length-n symbol list over range(k): iid `uniform`, a random tile of
    TILE_LEN symbols repeated (`tiled`), or `runs` of one symbol whose lengths
    are 1 + geometric with mean 7."""
    if kind == "uniform":
        return [rng.randrange(k) for _ in range(n)]
    if kind == "tiled":
        tile = [rng.randrange(k) for _ in range(TILE_LEN)]
        return [tile[i % TILE_LEN] for i in range(n)]
    if kind == "runs":
        out: list = []
        while len(out) < n:
            sym = rng.randrange(k)
            length = 1
            while rng.random() < 6 / 7:
                length += 1
            out.extend([sym] * length)
        return out[:n]
    raise ValueError(f"unknown texture {kind}")


def noisy(rng: random.Random, data: list, k: int, p: float) -> list:
    """Each symbol resampled uniformly with probability p."""
    return [rng.randrange(k) if rng.random() < p else v for v in data]


def erased(rng: random.Random, data: list, p: float) -> list:
    """Each symbol replaced by 0 with probability p (a coarse reproduction)."""
    return [0 if rng.random() < p else v for v in data]


# ---------------------------------------------------------------------------
# reference parses, written from the definitions and not from the package


def ref_phrase_count(data) -> int:
    """Incremental parse by a set of phrase strings: each phrase is the
    shortest prefix of the rest that is not yet a phrase; a trailing partial
    phrase counts as one more."""
    seen = set()
    cur: tuple = ()
    c = 0
    for v in data:
        cur = cur + (v,)
        if cur not in seen:
            seen.add(cur)
            c += 1
            cur = ()
    return c + (1 if cur else 0)


def ref_joint(primary, secondary):
    """(joint phrase count, rho_cond) from the joint parse of the pair
    sequence: rho_cond = sum over distinct primary phrase strings of
    c_l * log2(c_l), divided by n."""
    seen = set()
    per_primary: dict = {}
    cur: tuple = ()
    start = 0
    n = len(primary)
    c = 0
    for i in range(n):
        cur = cur + ((primary[i], secondary[i]),)
        if cur not in seen:
            seen.add(cur)
            key = tuple(primary[start:i + 1])
            per_primary[key] = per_primary.get(key, 0) + 1
            c += 1
            cur = ()
            start = i + 1
    if cur:
        key = tuple(primary[start:n])
        per_primary[key] = per_primary.get(key, 0) + 1
        c += 1
    rho = sum(cl * math.log2(cl) for cl in per_primary.values()) / n if n else 0.0
    return c, rho


def ref_rho_lz(data) -> float:
    c = ref_phrase_count(data)
    return c * math.log2(c) / len(data) if c > 1 else 0.0


def mismatches(a, b) -> int:
    return sum(1 for u, v in zip(a, b) if u != v)


def region_floors(region):
    """Effective (R1 floor, R2 floor, sum floor) of a half-plane region
    {R1 >= a, R1 + R2 >= b, R2 >= c}, with the implicit R1, R2 >= 0."""
    a = max(region.a, 0.0)
    c = max(region.c, 0.0) if region.c is not None else 0.0
    return a, c, max(region.b, a + c)


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, attrs)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, attrs]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def totals(self, by_attr: str = None) -> dict:
        """Summed duration per span name (or per (name, attr value))."""
        out: dict = {}
        for name, t0, t1, _, attrs in self.spans:
            key = name if by_attr is None else (name, attrs.get(by_attr))
            out[key] = out.get(key, 0.0) + (t1 - t0)
        return out

    def durations(self, name: str) -> list:
        return [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    _null = nullcontext()

    def span(self, name: str, **attrs):
        return self._null


NULL = NullTracer()


# ---------------------------------------------------------------------------
# operations


# A shared or virtualised host drifts in speed by 10-40% over seconds to
# minutes (other tenants, frequency scaling), and no number of repetitions
# averages that away.  So every operation is timed together with a
# yardstick run just before and just after it, and its time is reported in
# reference seconds: wall time scaled by the yardstick's typical time on the
# 2-core machine of the README's reference figures over the mean of the two
# yardstick times.  Library calls are measured against the benchmark's own
# reference parses of a fixed 512-symbol sequence (garbage collector off, so
# the program's heap cannot slow it down); calls that start an interpreter
# are measured against an interpreter that runs `pass`.


class Yardstick:
    def __init__(self, measure, typical_s: float) -> None:
        self.measure = measure
        self.typical_s = typical_s

    def scale(self, wall: float, before: float, after: float) -> float:
        return wall * self.typical_s * 2 / (before + after)


_YARD_DATA = tuple(random.Random(0).randrange(4) for _ in range(512))


def _parse_yardstick() -> float:
    """Wall time of five reference parses of _YARD_DATA."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(5):
            ref_phrase_count(_YARD_DATA)
            ref_joint(_YARD_DATA, _YARD_DATA)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _interpreter_yardstick() -> float:
    """Wall time of a fresh interpreter that runs `pass`."""
    code, _, err, wall, _ = run_child([sys.executable, "-c", "pass"])
    if code != 0:
        raise RuntimeError(f"bare interpreter exited {code}: {err.decode(errors='replace')}")
    return wall


IN_PROCESS = Yardstick(_parse_yardstick, 0.003)
INTERPRETER = Yardstick(_interpreter_yardstick, 0.08)


class Ops:
    """Runs and records the timed operations of one round.

    An operation is one call into the program (or a few chained calls on the
    same data, such as parse-header-then-decode).  It is timed from the call
    to its return; its output is checked afterwards, outside the timed
    interval.  A raised exception counts the operation as failed; an output
    that fails its check counts it as failed and marks the run incorrect,
    unless the operation is marked with a known program fault.  Times are
    kept in reference seconds (see Yardstick) and in wall seconds.
    """

    def __init__(self, tr=None, yard: Yardstick = IN_PROCESS) -> None:
        self.tr = tr if tr is not None else NULL
        self.yard = yard
        self._last_yard = None   # the reading after the previous operation
        self.records: list = []  # (name, reference seconds, ok, attrs, wall seconds)
        self.wrong: list = []    # check failures: (name, reason)
        self.known: list = []    # check failures of known faults: (name, reason)
        self.errors: list = []   # raised exceptions: (name, text)
        self.notes: dict = {}    # values noted per name, such as container sizes

    def note(self, name: str, value) -> None:
        self.notes.setdefault(name, []).append(value)

    def busy(self, wall: bool = False) -> float:
        return sum(r[4 if wall else 1] for r in self.records)

    def call(self, name: str, fn, check=None, known_fault: str = None, **attrs):
        """Time fn(); check(output) returns a reason string when it is wrong.

        `known_fault` names a program fault that makes this operation's check
        fail every time; such a failure is counted but is not a wrong output."""
        before = self._last_yard if self._last_yard is not None else self.yard.measure()
        t0 = time.perf_counter()
        try:
            with self.tr.span("op." + name, **attrs):
                out = fn()
            ok = True
        except Exception:
            self.errors.append((name, traceback.format_exc()))
            ok = False
        dt = time.perf_counter() - t0
        self._last_yard = self.yard.measure()
        ref = self.yard.scale(dt, before, self._last_yard)
        if not ok:
            self.records.append((name, ref, False, attrs, dt))
            return None
        problem = check(out) if check is not None else None
        if problem:
            (self.known if known_fault else self.wrong).append(
                (name, f"{problem} ({known_fault})" if known_fault else problem))
        self.records.append((name, ref, not problem, attrs, dt))
        return out

    def skip(self, name: str, why: str) -> None:
        """An operation that could not be attempted because its input, the
        output of an earlier failed operation, is missing: counted as failed
        so that every round attempts the same number of operations."""
        self.records.append((name, 0.0, False, {}, 0.0))
        self.errors.append((name, why))


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(argv, cwd=None, timeout: float = 120.0):
    """Run one child process to completion.

    Returns (exit code, stdout bytes, stderr bytes, wall seconds, peak RSS of
    that child in MiB).  The child is reaped with wait4 so that its own
    resource usage is read; on timeout or interrupt it is killed and reaped
    before the exception propagates.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = _drain(proc, timeout)
    except BaseException:
        proc.kill()
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, wall, usage.ru_maxrss / 1024.0


def _drain(proc, timeout):
    """Read both pipes to EOF without reaping the child."""
    sel = selectors.DefaultSelector()
    bufs = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    for fh in bufs:
        sel.register(fh, selectors.EVENT_READ)
    deadline = time.monotonic() + timeout
    try:
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"child {proc.args[:3]} ran past {timeout}s")
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 65536)
                if chunk:
                    bufs[key.fileobj].extend(chunk)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    finally:
        sel.close()
    return bytes(bufs[proc.stdout]), bytes(bufs[proc.stderr])


# ---------------------------------------------------------------------------
# statistics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than forty samples."""
    n = len(values)
    if n < 40:
        return None
    pct = int(100 * (n - 10) / n)
    ordered = sorted(values)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


def loglog_slope(points) -> float:
    """Least-squares slope of log(t) against log(n); 0.0 with < 2 points."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0
