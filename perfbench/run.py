"""diamag benchmark: one command, three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload points|cli|verify --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

  points  in-process kernel: build a DimensionlessPoint and call chi_ratio on
          a fixed pool of points log-uniform over the whole accepted domain,
          in seeded order
  cli     cold ``python -m diamag.cli`` processes repeating the cycle
          eval, eval --json, eval --vf, sweep --svg, figure1 --svg
  verify  cold ``python -m diamag.cli verify`` processes

One closed-loop client runs operations back to back and at most one child
process exists at a time. ``cli`` and ``verify`` run rounds until
``--seconds`` have passed (at least one round always runs). ``points`` runs a
fixed number of rounds, POINTS_ROUNDS_PER_SECOND per second of ``--seconds``,
each over the same fixed pool of points in an order drawn from ``--seed``, so
that every run attempts the same operations and the kernel's failures are
counted the same in every run. Every operation's output is checked; an
operation that raises, exits nonzero, times out or fails a check counts as
failed. With ``--trace 0`` the last line of stdout carries the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` the run is split into an
untraced and a traced half and the last line carries the per-layer metrics,
including the tracing overhead. The package is imported from ``src/`` of the
checkout that holds this file; without it the benchmark exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import array
import cmath
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import mpmath

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "launcher.py"

# sha256 of `diamag figure1` CSV bytes at the seed code (Python 3.11.7).
FIGURE1_SHA256 = "decacb8699987acdb9f14311a8fd70c88a43b1f032b69cff0b5e53a7d88a7af0"
VERIFY_CHECKS = (
    "closed-form-vs-quadrature",
    "kinetic-integral-consistency",
    "velocity-moment-integrals",
    "landau-limit",
    "suppression-small-q",
    "suppression-plateau",
    "suppression-half-crossing",
)
REGIMES = ("pv", "direct", "taylor", "laurent")
FAIL_TYPES = (
    "ConvergenceError", "DomainError", "PoleError", "ValidationError",
    "OverflowError", "ZeroDivisionError",
)

POOL_SIZE = 8000  # points in the pool, and operations in one points round
POOL_SEED = 0  # the pool is the same in every run; --seed sets the order
POINTS_ROUNDS_PER_SECOND = 0.8  # a round takes about 1.2 s, with probes, on a two-CPU guest
STATIC_SHARE = 0.01  # points at exactly x = y = 0
X_ZERO_SHARE = 0.30  # of the rest, points at x = 0
SPOT_CHECK_POINTS = 30
SPOT_CHECK_BOUND = 1e-8  # the closed-form-vs-quadrature bound of `diamag verify`
SWEEP_POINTS = 300
SETUP_CHILDREN = 9
IMPORT_CHILDREN = 5
CHILD_TIMEOUT_S = 120.0
RESERVOIR_SIZE = 1 << 18
REFERENCE_S = 0.003  # nominal time of one reference_loop(); see Normalizer
PROBE_SHARE = 0.25  # probe time per second of measured work
PROBE_MIN_S = 0.02
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99, 99.995, 99.999)

SETUP_CODE = (
    "from diamag import DimensionlessPoint, chi_ratio\n"
    "print(repr(chi_ratio(DimensionlessPoint(x=0.1, y=0.1, q=0.5)).total))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (no package source, bad arguments)."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(sorted_values):
    """(p, value) for the highest listed percentile with >= 10 samples above it."""
    n = len(sorted_values)
    best = None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = (p, sorted_values[min(n - 1, math.ceil(n * p / 100.0) - 1)])
    return best


class Reservoir:
    """Uniform sample of at most ``size`` values, allocated up front so that
    the benchmark's own memory does not grow with throughput."""

    def __init__(self, size: int, rng: random.Random):
        self.data = array.array("d", bytes(8 * size))
        self.size = size
        self.seen = 0
        self.rng = rng

    def add(self, value: float) -> None:
        n = self.seen
        self.seen = n + 1
        if n < self.size:
            self.data[n] = value
        else:
            j = self.rng.randrange(n + 1)
            if j < self.size:
                self.data[j] = value

    def sorted(self) -> list:
        return sorted(self.data[: min(self.seen, self.size)])


class Ops:
    """Outcome of every operation in one phase of a run."""

    def __init__(self, seed: int):
        self.latency_ms = Reservoir(RESERVOIR_SIZE, random.Random(seed * 7919 + 1))
        self.round_walls: list = []
        self.attempted = 0
        self.failed: Counter = Counter()  # reason -> count
        self.wrong: Counter = Counter()  # failed output checks, a subset of failed
        self.peak_rss_mb = 0.0

    def record(self, ms: float, failure=None, wrong: bool = False) -> None:
        self.attempted += 1
        self.latency_ms.add(ms)
        if failure is not None:
            self.failed[failure] += 1
            if wrong:
                self.wrong[failure] += 1

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def timed_rounds(do_round, seconds: float) -> list:
    """Run rounds back to back until ``seconds`` have passed; at least one."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(do_round())
    return walls


def counted_rounds(do_round, seconds: float) -> list:
    """Run POINTS_ROUNDS_PER_SECOND rounds per second of ``seconds``; at least one."""
    return [do_round() for _ in range(max(1, round(POINTS_ROUNDS_PER_SECOND * seconds)))]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class ChildResult:
    code: int
    elapsed_s: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def child_env() -> dict:
    paths = [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_child(argv, workdir: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion; wall time from spawn to exit, peak RSS
    from the child's own rusage. A child past ``timeout`` is killed."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    state = {"exited": False, "killed": False}
    lock = threading.Lock()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir, env=child_env())

        def kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        elapsed = None
        try:
            # wait without reaping, so the pid stays valid for kill()
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            elapsed = time.perf_counter() - start
        finally:
            with lock:
                state["exited"] = True
            timer.cancel()
            timer.join()
            if elapsed is None:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        elapsed,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        state["killed"],
    )


def child_failure(result: ChildResult):
    if result.timed_out:
        return "timeout"
    if result.code != 0:
        return f"exit{result.code}"
    return None


# ---------------------------------------------------------------------------
# Speed normalisation
# ---------------------------------------------------------------------------
#
# The host's speed drifts by up to +-30 % (other guests share the machine),
# on time scales from a quarter second to minutes, and moves every raw time
# together by more than the effect of most code changes. After each measured
# piece of work the run times a fixed reference loop (plain Python, then
# mpmath, like the package's own work), and every
# timing is reported as raw wall time * REFERENCE_S / (mean reference-loop
# time in the probes just before and after it), i.e. in seconds at the speed
# where that loop takes REFERENCE_S. The process pins itself, and so its
# children, to one CPU, because the two CPUs drift apart.


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_loop() -> float:
    """Fixed work shaped like the package's: objects, complex arithmetic and
    cmath.log as in the kernel, then mpmath arithmetic at 40 digits as in
    the oracle. Returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0j
    for i in range(1, 1500):
        pair = _Pair(complex(i * 1e-3, 1e-2), i)
        acc += cmath.log(pair.a - 1.0) - cmath.log(pair.a + 1.0)
        acc += math.sqrt(pair.b) * 1e-9
    with mpmath.mp.workdps(40):
        total = mpmath.mpf(0)
        for i in range(1, 120):
            total += mpmath.log(mpmath.mpf(i)) / (i + 1)
    acc += float(total)
    elapsed = time.perf_counter() - start
    if not cmath.isfinite(acc):
        raise BenchError("reference loop produced a non-finite value")
    return elapsed


def probe(seconds: float) -> list:
    """Times of reference loops run back to back for ``seconds`` (>= 1)."""
    times = [reference_loop()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        times.append(reference_loop())
    return times


class Normalizer:
    """Runs a reference-loop probe after each measured piece of work, lasting
    PROBE_SHARE of the work (at least PROBE_MIN_S); the work's speed factor
    comes from the probes just before and just after it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        probe(PROBE_MIN_S)  # warm-up, not used
        self.last = statistics.fmean(probe(PROBE_MIN_S))
        self.factors: list = []

    def factor(self, work_s: float) -> float:
        """Probe after work that took ``work_s`` seconds; its speed factor."""
        after = statistics.fmean(probe(max(PROBE_MIN_S, PROBE_SHARE * work_s)))
        factor = 2.0 * REFERENCE_S / (self.last + after)
        self.last = after
        self.factors.append(factor)
        return factor

    def child(self, argv) -> tuple:
        """(ChildResult, the speed factor of its wall time)."""
        result = run_child(argv, self.workdir)
        return result, self.factor(result.elapsed_s)


def measure_setup(norm: Normalizer):
    """setup_s: median wall time, at reference speed, of fresh interpreters
    that import diamag and return one chi_ratio result. The first child
    (bytecode caching) is not counted. Returns (seconds, list of failures)."""
    times, failures = [], []
    for i in range(SETUP_CHILDREN + 1):
        result, factor = norm.child([sys.executable, "-c", SETUP_CODE])
        failure = child_failure(result)
        if failure is None:
            try:
                value = complex(result.stdout.strip())
            except ValueError:
                failure = "unparsable"
            else:
                if not cmath.isfinite(value):
                    failure = "nonfinite"
        if failure is not None:
            failures.append(failure)
        elif i > 0:
            times.append(result.elapsed_s * factor)
    return median(times), failures


def measure_imports(norm: Normalizer) -> dict:
    """import.* per-layer metrics: a bare interpreter, and the cumulative
    times ``-X importtime`` reports for ``import diamag, diamag.cli``."""
    bare, cumulative = [], defaultdict(list)
    wanted = {"diamag": "import.diamag_ms", "mpmath": "import.mpmath_ms", "diamag.svg": "import.svg_ms"}
    for _ in range(IMPORT_CHILDREN):
        result, factor = norm.child([sys.executable, "-c", "pass"])
        bare.append(result.elapsed_s * 1e3 * factor)
        result, factor = norm.child(
            [sys.executable, "-X", "importtime", "-c", "import diamag, diamag.cli"]
        )
        found = dict.fromkeys(wanted.values(), 0.0)
        for line in result.stderr.splitlines():
            # import time: self [us] | cumulative | imported package
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in wanted:
                found[wanted[fields[2].strip()]] = float(fields[1].strip()) / 1e3 * factor
        for name, value in found.items():
            cumulative[name].append(value)
    metrics = {"import.python_ms": median(bare)}
    metrics.update({name: median(values) for name, values in cumulative.items()})
    return metrics


# ---------------------------------------------------------------------------
# points workload: the in-process kernel
# ---------------------------------------------------------------------------


def loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def draw_point(rng: random.Random) -> tuple:
    """One point of the whole accepted domain: x in {0} or [1e-12, 1e6],
    y in [1e-14, 1e6], q in [1e-9, 1e4], log-uniform; a small share at the
    static point x = y = 0. Never on the rejected y = 0, x > 0 line."""
    if rng.random() < STATIC_SHARE:
        return 0.0, 0.0, loguniform(rng, 1e-9, 1e4)
    x = 0.0 if rng.random() < X_ZERO_SHARE else loguniform(rng, 1e-12, 1e6)
    return x, loguniform(rng, 1e-14, 1e6), loguniform(rng, 1e-9, 1e4)


def load_package():
    sys.path.insert(0, str(SRC))
    import diamag

    if not Path(diamag.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"diamag imported from {diamag.__file__}, not from {SRC}")
    return diamag


def result_is_finite(result) -> bool:
    return (
        cmath.isfinite(result.total)
        and cmath.isfinite(result.classic)
        and cmath.isfinite(result.quant)
        and math.isfinite(result.err_est)
    )


def regime_name(tag) -> str:
    """Map a regime tag to pv / direct / taylor / laurent by its value."""
    value = str(getattr(tag, "value", tag)).lower()
    for key, name in (
        ("pv", "pv"), ("direct", "direct"), ("closed", "direct"),
        ("taylor", "taylor"), ("smallq", "taylor"),
        ("laurent", "laurent"), ("large", "laurent"),
    ):
        if key in value:
            return name
    return "other"


class PointsWorkload:
    def __init__(self, norm: Normalizer, seed: int):
        self.norm = norm
        self.pkg = load_package()
        pool_rng = random.Random(POOL_SEED)
        self.pool = [draw_point(pool_rng) for _ in range(POOL_SIZE)]
        self.rng = random.Random(seed)
        self.layers = defaultdict(list)  # per-layer samples, traced rounds only
        self.kernel_counts: Counter = Counter()
        self.kernel_fails: Counter = Counter()

    def next_inputs(self) -> list:
        """The whole pool in a seeded random order."""
        inputs = list(self.pool)
        self.rng.shuffle(inputs)
        return inputs

    def round(self, ops: Ops) -> float:
        """One round of POOL_SIZE operations, each building the point
        and calling chi_ratio; returns the round's wall time."""
        inputs = self.next_inputs()
        point_cls, chi_ratio = self.pkg.DimensionlessPoint, self.pkg.chi_ratio
        outcomes = []  # (latency ns, failure, wrong)
        clock = time.perf_counter_ns
        start = clock()
        for x, y, q in inputs:
            t0 = clock()
            try:
                result = chi_ratio(point_cls(x, y, q))
            except Exception as exc:  # every failure is counted by type, never fatal
                outcomes.append((clock() - t0, type(exc).__name__, False))
                continue
            t1 = clock()
            if result_is_finite(result):
                outcomes.append((t1 - t0, None, False))
            else:
                outcomes.append((t1 - t0, "nonfinite", True))
        wall_s = (clock() - start) / 1e9
        factor = self.norm.factor(wall_s)
        for ns, failure, wrong in outcomes:
            ops.record(ns * factor / 1e6, failure, wrong)
        return wall_s * factor

    def traced_round(self, ops: Ops) -> float:
        """As round(), with a span around each layer call: the point
        constructor (core), regime_select and chi_ratio (kernel)."""
        inputs = self.next_inputs()
        pkg = self.pkg
        point_cls, chi_ratio, regime_select = pkg.DimensionlessPoint, pkg.chi_ratio, pkg.regime_select
        counts, fails = self.kernel_counts, self.kernel_fails
        spans = []  # (layer metric, ns)
        outcomes = []
        clock = time.perf_counter_ns
        start = clock()
        for x, y, q in inputs:
            t0 = clock()
            point = point_cls(x, y, q)
            t1 = clock()
            try:
                regime = regime_name(regime_select(point))
            except Exception:
                regime = "other"
            t2 = clock()
            try:
                result = chi_ratio(point)
            except Exception as exc:
                t3 = clock()
                fails[type(exc).__name__] += 1
                spans.append(("kernel.failed_us", t3 - t2))
                outcomes.append((t1 - t0 + t3 - t2, type(exc).__name__, False))
            else:
                t3 = clock()
                counts[regime] += 1
                spans.append((f"kernel.chi_ratio_us.{regime}", t3 - t2))
                finite = result_is_finite(result)
                outcomes.append((t1 - t0 + t3 - t2, None if finite else "nonfinite", not finite))
            spans.append(("core.point_us", t1 - t0))
            spans.append(("kernel.regime_select_us", t2 - t1))
        wall_s = (clock() - start) / 1e9
        factor = self.norm.factor(wall_s)
        for name, ns in spans:
            self.layers[name].append(ns * factor / 1e3)
        for ns, failure, wrong in outcomes:
            ops.record(ns * factor / 1e6, failure, wrong)
        return wall_s * factor

    def spot_check(self, seed: int) -> tuple:
        """Untimed: a seeded subsample of the pool's y > 0 points
        against chi_ratio_quadrature at the verify bound. Points the kernel
        rejects are skipped (they already count as failed operations).
        Returns (checked, mismatches, quadrature call ms at reference speed)."""
        pkg = self.pkg
        candidates = [p for p in self.pool if p[1] > 0.0]
        sample = random.Random(seed * 104729 + 3).sample(
            candidates, min(SPOT_CHECK_POINTS, len(candidates))
        )
        checked, mismatches, quad_ms = 0, [], []
        for x, y, q in sample:
            point = pkg.DimensionlessPoint(x, y, q)
            try:
                fast = pkg.chi_ratio(point)
            except Exception:
                continue
            checked += 1
            t0 = time.perf_counter_ns()
            try:
                slow = pkg.chi_ratio_quadrature(point)
            except Exception as exc:
                mismatches.append((x, y, q, type(exc).__name__))
                continue
            finally:
                ms = (time.perf_counter_ns() - t0) / 1e6
                quad_ms.append(ms * self.norm.factor(ms / 1e3))
            rel = abs(fast.total - slow.total) / max(abs(slow.total), 1e-30)
            if not rel < SPOT_CHECK_BOUND:
                mismatches.append((x, y, q, f"rel {rel:.3e}"))
        return checked, mismatches, quad_ms


# ---------------------------------------------------------------------------
# cli and verify workloads: cold child processes
# ---------------------------------------------------------------------------


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def check_eval_text(result, workdir):
    return None if "chi_total" in result.stdout else "no-chi_total"


def check_eval_vf(result, workdir):
    return None if "chi_cgs" in result.stdout else "no-chi_cgs"


def check_eval_json(result, workdir):
    try:
        payload = json.loads(result.stdout)
    except ValueError:
        return "unparsable"
    if not isinstance(payload.get("chi_total_re"), float) or not _all_finite(payload):
        return "nonfinite"
    return None


def check_sweep(result, workdir):
    csv = workdir / "sweep.csv"
    svg = workdir / "sweep.svg"
    if not csv.exists() or len(csv.read_bytes().splitlines()) != SWEEP_POINTS + 1:
        return "csv-rows"
    if not svg.exists() or not svg.read_bytes().lstrip().startswith(b"<"):
        return "svg"
    return None


def check_figure1(result, workdir):
    csv = workdir / "figure1.csv"
    if not csv.exists() or hashlib.sha256(csv.read_bytes()).hexdigest() != FIGURE1_SHA256:
        return "csv-sha256"
    svg = workdir / "figure1.svg"
    if not svg.exists() or not svg.read_bytes().lstrip().startswith(b"<"):
        return "svg"
    return None


def check_verify(result, workdir):
    lines = result.stdout.splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    if passed != len(VERIFY_CHECKS) or any(line.startswith("FAIL") for line in lines):
        return f"pass-lines-{passed}"
    return None


def fmt(value: float) -> str:
    return repr(float(value))


def cli_cycle(rng: random.Random) -> list:
    """One fixed cycle of five commands with seeded arguments. Points stay in
    x in {0} or [1e-3, 1], y in [1e-4, 1], q in [1e-4, 1.9]."""
    x = 0.0 if rng.random() < X_ZERO_SHARE else loguniform(rng, 1e-3, 1.0)
    y, q = loguniform(rng, 1e-4, 1.0), loguniform(rng, 1e-4, 1.9)
    at = ["--x", fmt(x), "--y", fmt(y), "--q", fmt(q)]
    axis = rng.choice(("q", "x", "y"))
    ranges = {"q": (1e-4, 1.9), "x": (1e-3, 1.0), "y": (1e-4, 1.0)}
    lo_edge, hi_edge = ranges[axis]
    mid = math.sqrt(lo_edge * hi_edge)
    lo, hi = loguniform(rng, lo_edge, mid), loguniform(rng, mid, hi_edge)
    fixed = []
    for name, value in (("x", x), ("y", y), ("q", q)):
        if name != axis:
            fixed += [f"--{name}", fmt(value)]
    return [
        ("eval", ["eval", *at], check_eval_text),
        ("eval-json", ["eval", *at, "--json"], check_eval_json),
        ("eval-vf", ["eval", *at, "--vf", fmt(loguniform(rng, 1e7, 1e9))], check_eval_vf),
        (
            "sweep",
            ["sweep", "--axis", axis, "--min", fmt(lo), "--max", fmt(hi),
             "--points", str(SWEEP_POINTS), *fixed, "--out", "sweep.csv", "--svg", "sweep.svg"],
            check_sweep,
        ),
        ("figure1", ["figure1", "--out", "figure1.csv", "--svg", "figure1.svg"], check_figure1),
    ]


class ChildSpans:
    """Per-layer samples gathered from the spans traced children write."""

    def __init__(self):
        self.layers = defaultdict(list)
        self.per_op_counts = defaultdict(list)
        self.error_rows = 0

    def add(self, payload: dict, factor: float) -> None:
        """Take one child's spans, scaled by its speed factor."""
        counts = Counter()
        quadrature_ms = 0.0
        for name, start, end, _parent, detail in payload["spans"]:
            ms = (end - start) / 1e6 * factor
            counts[name] += 1
            if name == "cli.main":
                self.layers[f"cli.{detail}_ms"].append(ms)
            elif name == "verify.check":
                self.layers[f"verify.check_ms.{detail}"].append(ms)
            elif name == "quadrature.integrate":
                quadrature_ms += ms
            else:
                self.layers[f"{name}_ms"].append(ms)
                if name == "svg.render_line_chart":
                    self.layers["svg.bytes"].append(detail)
                elif name == "sweep.run_sweep":
                    self.error_rows += detail
        if counts["quadrature.integrate"]:
            self.layers["quadrature.total_ms"].append(quadrature_ms)
        for name in ("oracle.quadrature", "quadrature.integrate"):
            if counts[name]:
                self.per_op_counts[name].append(counts[name])


class ChildWorkload:
    """Runs cli commands as cold child processes, plain or traced."""

    def __init__(self, norm: Normalizer, seed: int, verify_only: bool):
        self.norm = norm
        self.workdir = norm.workdir
        self.rng = random.Random(seed)
        self.verify_only = verify_only
        self.spans = ChildSpans()

    def commands(self) -> list:
        if self.verify_only:
            return [("verify", ["verify"], check_verify)]
        return cli_cycle(self.rng)

    def round(self, ops: Ops, traced: bool = False) -> float:
        """One cycle of commands; returns the sum of their wall times."""
        wall = 0.0
        for name, args, check in self.commands():
            for stale in [*self.workdir.glob("*.csv"), *self.workdir.glob("*.svg")]:
                stale.unlink()
            spans_path = self.workdir / "spans.json"
            if traced:
                spans_path.unlink(missing_ok=True)
                argv = [sys.executable, str(LAUNCHER), str(spans_path), "--", *args]
            else:
                argv = [sys.executable, "-m", "diamag.cli", *args]
            result, factor = self.norm.child(argv)
            ops.peak_rss_mb = max(ops.peak_rss_mb, result.rss_mb)
            failure = child_failure(result)
            if failure is None:
                failure = check(result, self.workdir)
            if failure is None and traced:
                self.spans.add(json.loads(spans_path.read_text(encoding="utf-8")), factor)
            wall += result.elapsed_s * factor
            ops.record(
                result.elapsed_s * 1e3 * factor,
                None if failure is None else f"{name}:{failure}",
                wrong=failure is not None,
            )
        return wall


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def end_to_end(ops: Ops, setup_s: float) -> tuple:
    """(metrics, notes): the seven end-to-end metrics of one untraced phase."""
    wall = sum(ops.round_walls)
    latencies = ops.latency_ms.sorted()
    tail = tail_percentile(latencies)
    metrics = {
        "setup_s": setup_s,
        "wall_s": median(ops.round_walls),
        "ops_per_s": (ops.attempted - ops.n_failed) / wall if wall > 0 else 0.0,
        "op_ms_p50": median(latencies),
        "op_ms_tail": None if tail is None else tail[1],
        "fail_share": ops.n_failed / ops.attempted,
        "peak_rss_mb": ops.peak_rss_mb,
    }
    breakdown = ", ".join(f"{k}={v}" for k, v in sorted(ops.failed.items())) or "none"
    notes = {
        "setup_s": f"median of {SETUP_CHILDREN} children",
        "wall_s": f"median of {len(ops.round_walls)} rounds, {wall:.3f} s timed in total",
        "op_ms_p50": f"n={len(latencies)} of {ops.latency_ms.seen}",
        "op_ms_tail": (
            f"omitted: {len(latencies)} ops leave no percentile with 10 beyond it"
            if tail is None else f"p{tail[0]:g}, n={len(latencies)} of {ops.latency_ms.seen}"
        ),
        "fail_share": f"{ops.n_failed}/{ops.attempted} ({breakdown})",
    }
    return metrics, notes


UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
    "op_ms_tail": "ms", "fail_share": "ratio", "peak_rss_mb": "MB",
}


def print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>16} {units[name]:<6} {notes.get(name, '')}")


def per_layer(workload) -> dict:
    """Per-layer metrics of the traced rounds; 0 where this workload never
    calls the layer."""
    layers = defaultdict(list)
    counts: Counter = Counter()
    fails: Counter = Counter()
    spans = None
    if isinstance(workload, PointsWorkload):
        layers.update(workload.layers)
        counts, fails = workload.kernel_counts, workload.kernel_fails
    else:
        spans = workload.spans
        layers.update(spans.layers)
    metrics = {}
    for name in ("eval", "sweep", "figure1", "verify"):
        metrics[f"cli.{name}_ms"] = median(layers[f"cli.{name}_ms"])
    metrics["core.point_us"] = median(layers["core.point_us"])
    metrics["kernel.regime_select_us"] = median(layers["kernel.regime_select_us"])
    for regime in REGIMES:
        metrics[f"kernel.chi_ratio_us.{regime}"] = median(layers[f"kernel.chi_ratio_us.{regime}"])
    metrics["kernel.failed_us"] = median(layers["kernel.failed_us"])
    for regime in REGIMES:
        metrics[f"kernel.count.{regime}"] = counts[regime]
    for kind in FAIL_TYPES:
        metrics[f"kernel.fail_count.{kind}"] = fails[kind]
    metrics["kernel.fail_count.other"] = sum(v for k, v in fails.items() if k not in FAIL_TYPES)
    metrics["sweep.run_sweep_ms"] = median(layers["sweep.run_sweep_ms"])
    metrics["sweep.figure1_rows_ms"] = median(layers["sweep.figure1_rows_ms"])
    metrics["sweep.rows_to_csv_ms"] = median(layers["sweep.rows_to_csv_ms"])
    metrics["sweep.error_rows"] = spans.error_rows if spans else 0
    metrics["svg.render_line_chart_ms"] = median(layers["svg.render_line_chart_ms"])
    metrics["svg.bytes"] = median(layers["svg.bytes"])
    metrics["oracle.quadrature_ms"] = median(layers["oracle.quadrature_ms"])
    metrics["oracle.quadrature_count"] = median(spans.per_op_counts["oracle.quadrature"] if spans else [])
    metrics["oracle.kinetic_ms"] = median(layers["oracle.kinetic_ms"])
    metrics["oracle.j_integrals_ms"] = median(layers["oracle.j_integrals_ms"])
    metrics["quadrature.calls"] = median(spans.per_op_counts["quadrature.integrate"] if spans else [])
    metrics["quadrature.ms"] = median(layers["quadrature.total_ms"])
    for check in VERIFY_CHECKS:
        metrics[f"verify.check_ms.{check}"] = median(layers[f"verify.check_ms.{check}"])
    return metrics


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run(args) -> int:
    if not (SRC / "diamag" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'diamag'}")
    declared = declared_metrics(args.trace)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        norm = Normalizer(workdir)
        if args.workload == "points":
            workload = PointsWorkload(norm, args.seed)
        else:
            workload = ChildWorkload(norm, args.seed, verify_only=args.workload == "verify")
        setup_s, setup_failures = (0.0, []) if args.trace else measure_setup(norm)
        for failure in setup_failures:
            print(f"setup child failed: {failure}")

        plain = Ops(args.seed)
        budget = args.seconds / 2.0 if args.trace else float(args.seconds)
        rounds = counted_rounds if isinstance(workload, PointsWorkload) else timed_rounds
        plain.round_walls = rounds(lambda: workload.round(plain), budget)
        phases = [plain]
        if isinstance(workload, PointsWorkload):
            # the points themselves do the work: this process's own peak
            plain.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            traced = Ops(args.seed + 1)
            if isinstance(workload, PointsWorkload):
                do_round = lambda: workload.traced_round(traced)  # noqa: E731
            else:
                do_round = lambda: workload.round(traced, traced=True)  # noqa: E731
            traced.round_walls = rounds(do_round, budget)
            phases.append(traced)

        spot = None
        if isinstance(workload, PointsWorkload):
            spot = workload.spot_check(args.seed)
            checked, mismatches, _ = spot
            print(f"oracle spot-check: {len(mismatches)} of {checked} points beyond "
                  f"{SPOT_CHECK_BOUND:g} relative")
            for x, y, q, why in mismatches:
                print(f"  mismatch at (x, y, q) = ({x!r}, {y!r}, {q!r}): {why}")

        attempted = sum(p.attempted for p in phases)
        failed = sum(p.n_failed for p in phases)
        wrong = Counter()
        for p in phases:
            wrong.update(p.wrong)
        correct = not wrong and not setup_failures

        print(f"workload {args.workload}: seed {args.seed}, {args.seconds} s, "
              f"trace {int(args.trace)}, closed loop, 1 client")
        factors = norm.factors
        print(f"timings are wall times scaled to reference speed; speed factor median "
              f"{median(factors):.4f}, range {min(factors):.4f}-{max(factors):.4f}")
        if args.trace:
            metrics = measure_imports(norm)
            metrics.update(per_layer(workload))
            if spot is not None:
                metrics["kernel.fail_count.oracle_mismatch"] = len(spot[1])
                metrics["oracle.quadrature_ms"] = median(spot[2])
                metrics["oracle.quadrature_count"] = len(spot[2])
            else:
                metrics["kernel.fail_count.oracle_mismatch"] = 0
            metrics["trace.overhead_s"] = median(traced.round_walls) - median(plain.round_walls)
            print_metrics(metrics, declared, {})
        else:
            metrics, notes = end_to_end(plain, setup_s)
            print_metrics(metrics, UNITS, notes)
        if wrong:
            print("failed output checks: " + ", ".join(f"{k}={v}" for k, v in sorted(wrong.items())))

        missing = sorted(set(declared) - set(metrics))
        if missing:
            raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
        line = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
        }
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("points", "cli", "verify"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        return run(args)
    except (BenchError, ImportError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
