"""Benchmark of the segre pipeline: seeded workloads, end to end and per layer.

Run from the repository root::

    python3 bench/run.py --workload structured --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout; without it
the script exits with an error and prints no result.

Load shape: one process per workload, a closed loop with one client, no
threads.  ``cli_cold`` runs one child process at a time.  Each op is
checked (see ``check_report``); an op that raises, exits nonzero or gives
a wrong answer counts as failed, at its time to failure.

Workloads (inputs in ``corpus.py``):

- ``structured``: all 27 weight-5 symbols plus degenerate pencils under
  random congruence.  Repeated roots make the minor-gcd loop of
  ``invariant_factors`` run deep.  Op: ``pencil_from_json`` ->
  ``analyze_pencil`` -> ``outcome_to_dict`` + ``json.dumps``.
- ``generic``: random symmetric pencils with entries in +-999.  The
  minor loop exits early, so per-call costs dominate.  Op: as above, then
  the numeric oracle on the selected member; a disagreement fails the op,
  a refusal does not.
- ``bigcoeff``: catalog symbols under congruences giving entries of about
  10, 100 and 1000 digits, so big-integer arithmetic dominates.  Op: as
  in ``structured``.  The 1000-digit tier fails at the interpreter's
  int-to-str digit limit at this commit; those failures are counted.
- ``cli_cold``: ``python -m segre.cli analyze`` as a fresh process,
  alternating ``--poly`` and ``--file``; start-up and imports dominate.

With ``--trace 0`` the run measures whole passes over the inputs for at
least ``--seconds`` (every pass has over 100 ops, so p90 has ten samples
beyond it) and reports the end-to-end metrics:

- ``throughput_ops_s``: ops that passed the check per second of op time;
- ``latency_p50_ms``, ``latency_p90_ms``: over every attempted op, a
  failed op counting at its time to failure;
- ``ok_ratio``: ops that passed the check over ops attempted (the
  failed ratio is one minus it, and is printed as well);
- ``setup_s``: median over fresh processes of the time from spawn until
  the package is imported and the inputs are built;
- ``peak_rss_mb``: peak resident memory of this process, or of the
  largest child for ``cli_cold``.

Times are scaled to a fixed machine speed.  On a shared virtual machine
the CPU speed can swing by 1.6x for seconds to minutes at a time (seen on
a 2-vCPU VM), so raw times mostly report how long the machine was slow
during a run.  A fixed loop of Fraction arithmetic (``calibrate``) is
timed between every two ops and around every set-up probe, and each time
is multiplied by CAL_REF_NS over the loop's time next to it: the figures
read as times on a machine that runs the loop in CAL_REF_NS.  The raw
wall times are printed alongside.  The traced run scales its spans the
same way, by the loop's time around each input.

With ``--trace 1`` the run alternates an untraced op with a traced one
and, per input, replays the calls ``analyze_pencil`` makes one by one.
Spans (name, start, end, parent, op id) are kept in memory, written to
``.bench_out/`` at the end, and the per-layer metrics are derived from
them.  The traced run covers at least one full pass over the inputs, so
the exact counts repeat for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit, the sample count, the report digest
and the provenance block.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MAX_RUN_SECONDS = 150
WARMUP_OPS = 3
CAL_REF_NS = 400_000  # calibrate() on a 2-vCPU VM with Python 3.11 when not slowed
SETUP_PROBES = 5
CLI_PROBES = 5
SETUP_OP, REACH_OP, PROBE_OP = -1, -2, -10  # op ids of spans outside the ops

CLI_PROBE_CODE = (
    "import time\n"
    "t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
    "import numpy\n"
    "t1 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
    "import segre\n"
    "t2 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
    "print(t0, t1, t2)\n"
)


def now_ns() -> int:
    # CLOCK_MONOTONIC is shared by all processes, so a child's timestamps
    # compare with the parent's.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibrate() -> int:
    """Wall ns of a fixed loop of Fraction arithmetic, the kind of work the
    pipeline does.  Timings are scaled by CAL_REF_NS / this, measured next
    to them, which cancels swings in the machine's speed."""
    t0 = now_ns()
    x = Fraction(0)
    for i in range(1, 150):
        x += Fraction(i, i + 1)
    return now_ns() - t0


def speed_scale(samples: int = 1) -> float:
    return CAL_REF_NS / statistics.median(calibrate() for _ in range(samples))


def load_segre():
    """The segre package of this checkout's src/."""
    if not (SRC / "segre" / "__init__.py").is_file():
        raise SystemExit(f"error: no segre package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import segre
    import segre.forms
    import segre.polynomial
    import segre.reporting

    if Path(segre.__file__).resolve().parent != SRC / "segre":
        raise SystemExit(f"error: imported segre from {segre.__file__}, not from {SRC}")
    return segre


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans (name, start_ns, end_ns, parent index, op id) kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self.scale: dict[int, float] = {}  # op id -> speed scale of its spans

    def span(self, name: str, op: int | None = None) -> "_Span":
        return _Span(self, name, op)

    def record(self, name: str, start: int, end: int, op: int) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, start, end, parent, op))

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "op", "index", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, op: int | None):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._open[-1] if tr._open else -1
        if self.op is None:
            self.op = tr.spans[self.parent][4] if self.parent >= 0 else -1
        self.index = len(tr.spans)
        tr.spans.append((self.name, 0, 0, self.parent, self.op))
        tr._open.append(self.index)
        self.start = now_ns()
        return self

    def __exit__(self, *exc):
        end = now_ns()
        tr = self.tracer
        tr._open.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent, self.op)
        return False


class NullTracer:
    _null = nullcontext()

    def span(self, name: str, op: int | None = None):
        return self._null


# ---------------------------------------------------------------------------
# ops and the correctness gate
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class OpResult:
    report: str | None = None  # the JSON report, as the program printed it
    doc: dict | None = None
    error: str | None = None  # raised exception or nonzero exit
    numeric: str | None = None  # "agree", "disagree", "refuse", "error"
    rss_kb: int = 0


def _numeric_verdict(segre, selected, symbol: str) -> str:
    try:
        num = segre.numeric_exponent_partitions(selected)
    except segre.IllConditionedError:
        return "refuse"
    except Exception:  # the oracle's contract is IllConditionedError only
        return "error"
    got = tuple(sorted((tuple(p) for p in num.exponent_structure()), reverse=True))
    return "agree" if got == corpus.structure(symbol) else "disagree"


def inproc_op(segre, item: corpus.Item, workload: str, tr) -> OpResult:
    res = OpResult()
    try:
        with tr.span("forms.pencil_from_json"):
            pencil = segre.forms.pencil_from_json(item.json_text)
        with tr.span("reporting.analyze_pencil"):
            outcome = segre.analyze_pencil(pencil)
        with tr.span("reporting.serialize"):
            res.doc = segre.reporting.outcome_to_dict(outcome)
            res.report = json.dumps(res.doc)
        if workload == "generic" and not res.doc.get("degenerate_pencil"):
            selected = segre.select_nonsingular_member(pencil)
            with tr.span("numeric.numeric_exponent_partitions"):
                res.numeric = _numeric_verdict(segre, selected, res.doc["symbol"])
    except Exception as exc:  # any raise fails the op; the run goes on
        res.error = f"{type(exc).__name__}: {exc}"
    return res


class CliRunner:
    """Runs ``segre analyze`` in fresh interpreters, one at a time."""

    def __init__(self, items: list[corpus.Item], tmp: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.files = {}
        for k, item in enumerate(items):
            if item.cli_mode == "file":
                path = tmp / f"pencil-{k}.json"
                path.write_text(item.json_text, encoding="utf-8")
                self.files[item.label] = path
        self.stderr_path = tmp / "stderr.txt"

    def spawn(self, argv: list[str]) -> tuple[int, bytes, int]:
        """Exit code, standard output and peak RSS (KiB) of one child."""
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    def op(self, item: corpus.Item) -> OpResult:
        argv = [sys.executable, "-m", "segre.cli", "analyze"]
        if item.cli_mode == "poly":
            argv += ["--poly", item.forms_text]
        else:
            argv += ["--file", str(self.files[item.label])]
        code, out, rss = self.spawn(argv)
        res = OpResult(report=out.decode("utf-8", "replace"), rss_kb=rss)
        if code != 0:
            tail = self.stderr_path.read_text(encoding="utf-8", errors="replace")[-200:]
            res.error = f"exit {code}: {tail.strip()}"
            return res
        try:
            res.doc = json.loads(res.report)
        except json.JSONDecodeError as exc:
            res.error = f"unreadable report: {exc}"
        return res

    def probe(self) -> tuple[int, int, int, int]:
        """Spawn time and the child's clock after start-up, numpy, segre."""
        t_spawn = now_ns()
        code, out, _ = self.spawn([sys.executable, "-c", CLI_PROBE_CODE])
        if code != 0:
            raise RuntimeError(f"start-up probe exited {code}")
        t0, t1, t2 = (int(x) for x in out.split())
        return t_spawn, t0, t1, t2


def check_report(item: corpus.Item, res: OpResult) -> str | None:
    """None when the op's answer is right, else why it is not."""
    if res.error is not None:
        return res.error
    doc = res.doc
    if item.degenerate:
        if doc.get("degenerate_pencil") is not True or doc.get("is_segre") is not False:
            return "degenerate pencil not reported as degenerate"
        if doc.get("common_kernel_dim") != item.kernel_dim:
            return f"common kernel {doc.get('common_kernel_dim')}, expected {item.kernel_dim}"
        return None
    if doc.get("degenerate_pencil"):
        return "reported degenerate"
    got = corpus.structure(doc["symbol"])
    if item.expected is not None and got != item.expected:
        return f"symbol {doc['symbol']} differs from the generating symbol"
    if doc["is_segre"] != (got in corpus.CATALOG_STRUCTURES):
        return f"is_segre={doc['is_segre']} for {doc['symbol']} disagrees with the catalog"
    if res.numeric == "disagree":
        return "numeric oracle disagrees"
    if res.numeric == "error":
        return "numeric oracle raised outside its contract"
    return None


class Tally:
    """Op outcomes and times, and the report digest.

    The digest covers the first report of every input, in input order.
    """

    def __init__(self, size: int):
        self.attempted = 0
        self.ok = 0
        self.raised = 0
        self.wrong = 0
        self.first_failure: str | None = None
        self.rss_kb = 0
        self.op_ns: list[int] = []
        self.scaled_ns: list[float] = []
        self._reports: list[str | None] = [None] * size

    def add(self, index: int, item: corpus.Item, res: OpResult, dt_ns: int,
            scale: float = 1.0) -> None:
        self.attempted += 1
        self.rss_kb = max(self.rss_kb, res.rss_kb)
        self.op_ns.append(dt_ns)
        self.scaled_ns.append(dt_ns * scale)
        why = check_report(item, res)
        if why is None:
            self.ok += 1
        else:
            if res.error is not None:
                self.raised += 1
            else:
                self.wrong += 1
            self.first_failure = self.first_failure or f"{item.label}: {why}"
        if self._reports[index] is None:
            self._reports[index] = res.report if res.error is None else \
                f"error: {res.error.split(':')[0]}"

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def report_sha256(self) -> str | None:
        if any(r is None for r in self._reports):
            return None
        h = hashlib.sha256()
        for r in self._reports:
            h.update(r.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def percentile(values, q: float):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def build_items(segre, args, span=None) -> list[corpus.Item]:
    items = corpus.build(segre, args.workload, args.seed, tiny=args.tiny, span=span)
    if args.plant_wrong:
        items[0] = plant_wrong(items[0])
    return items


def plant_wrong(item: corpus.Item) -> corpus.Item:
    """The same input with an expected answer it cannot have."""
    if item.degenerate:
        return dataclasses.replace(item, kernel_dim=item.kernel_dim + 1)
    return dataclasses.replace(item, expected=((9,),))


def setup_seconds(args, probes: int) -> list[tuple[float, float]]:
    """Time from spawning a fresh interpreter until it has imported segre
    and built this workload's inputs, once per probe: (scaled, wall)."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    out = []
    for _ in range(probes):
        before = speed_scale(5)
        t0 = now_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            line = proc.stdout.readline()
            t1 = now_ns()
            proc.stdout.read()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        wall = (t1 - t0) / 1e9
        out.append((wall * (before + speed_scale(5)) / 2, wall))
    return out


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def make_op(segre, workload: str, cli: CliRunner | None):
    if workload == "cli_cold":
        return lambda item, tr: cli.op(item)
    return lambda item, tr: inproc_op(segre, item, workload, tr)


def run_untraced(segre, args, items, cli) -> tuple[Tally, dict, dict]:
    op = make_op(segre, args.workload, cli)
    null = NullTracer()
    for item in items[:WARMUP_OPS]:
        op(item, null)
    tally = Tally(len(items))
    start = now_ns()
    deadline = start + int(args.seconds * 1e9)
    hard_stop = start + int(MAX_RUN_SECONDS * 1e9)
    k = 0
    end = start
    before = calibrate()
    # whole passes only, so every input weighs the same in every run
    while end < hard_stop and (end < deadline or k % len(items)):
        idx = k % len(items)
        t0 = now_ns()
        res = op(items[idx], null)
        end = now_ns()
        after = calibrate()
        tally.add(idx, items[idx], res, end - t0, 2 * CAL_REF_NS / (before + after))
        before = after
        k += 1

    setups = setup_seconds(args, 1 if args.tiny else SETUP_PROBES)
    rss_kb = tally.rss_kb if args.workload == "cli_cold" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat_ms = [t / 1e6 for t in tally.scaled_ns]
    metrics = {
        "throughput_ops_s": (tally.ok / (sum(lat_ms) / 1e3), "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "ok_ratio": (tally.ok / tally.attempted, "ratio"),
        "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    wall_ms = [t / 1e6 for t in tally.op_ns]
    extra = {
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "samples": (tally.attempted, "count"),
        "samples_beyond_p90": (tally.attempted - math.ceil(0.9 * tally.attempted), "count"),
        "passes": (k / len(items), "count"),
        "wall_throughput_ops_s": (tally.ok / (sum(wall_ms) / 1e3), "1/s"),
        "wall_latency_p50_ms": (percentile(wall_ms, 50), "ms"),
        "wall_latency_p90_ms": (percentile(wall_ms, 90), "ms"),
        "wall_setup_s": (statistics.median(wall for _, wall in setups), "s"),
        "speed_scale_median": (
            statistics.median(s / w for s, w in zip(tally.scaled_ns, tally.op_ns)), "ratio"),
    }
    return tally, metrics, extra


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def replay(segre, item: corpus.Item, workload: str, tr: Tracer, op: int, counts: Counter):
    """The calls analyze_pencil makes, in its order, each in its own span,
    then the squarefree/coprime basis and, off ``generic``, the oracle."""
    with tr.span("replay", op):
        for text in item.forms_text.split(" ; "):
            if text:  # a zero form has no text; [(11111)] with root 0 has U = 0
                with tr.span("forms.parse_quadratic_form"):
                    segre.parse_quadratic_form(text)
        if workload == "cli_cold":
            # what the child process does, in this process
            with tr.span("forms.pencil_from_json"):
                pencil = segre.forms.pencil_from_json(item.json_text)
            with tr.span("reporting.analyze_pencil"):
                outcome = segre.analyze_pencil(pencil)
            with tr.span("reporting.serialize"):
                json.dumps(segre.reporting.outcome_to_dict(outcome), indent=2)
        else:
            pencil = segre.QuadricPencil(item.u, item.v)
        try:
            with tr.span("pencil.select_nonsingular_member"):
                selected = segre.select_nonsingular_member(pencil)
        except segre.NoSmoothMemberError:
            with tr.span("pencil.degeneracy_report"):
                segre.degeneracy_report(pencil)
            return None
        with tr.span("pencil.invariant_factors"):
            inv = segre.invariant_factors(selected)
        with tr.span("symbol.compute_symbol"):
            symbol = segre.compute_symbol(selected)
        with tr.span("classify.classify_symbol"):
            report = segre.classify_symbol(symbol)
        if report.is_segre:
            with tr.span("covers.covers_of"):
                segre.covers_of(symbol)
        with tr.span("pencil.det_poly"):
            segre.det_poly(selected)
        with tr.span("polynomial.squarefree_decomposition"):
            pieces = [p for d in inv.nontrivial
                      for _, p in segre.polynomial.squarefree_decomposition(d)]
        with tr.span("polynomial.coprime_basis"):
            basis = segre.coprime_basis(pieces)
        if workload != "generic":
            with tr.span("numeric.numeric_exponent_partitions"):
                counts[_numeric_verdict(segre, selected, symbol.render())] += 1
    return symbol.render(), len(basis)


def _reach_probes(segre, args, tr: Tracer, by_name) -> None:
    """Time the layers this workload's inputs never reach on fixed inputs,
    so every per-layer metric is measured on every workload."""
    if not by_name.get("symbol.random_instance"):
        for k, sym in enumerate(corpus.CATALOG_SYMBOLS):
            with tr.span("symbol.random_instance", REACH_OP):
                segre.random_instance(sym, args.seed * 1000 + k)
    if not by_name.get("pencil.degeneracy_report"):
        for ue, ve, _ in corpus.DEGENERATE_PAIRS.values():
            pencil = segre.QuadricPencil(corpus.symmetric(ue), corpus.symmetric(ve))
            with tr.span("pencil.degeneracy_report", REACH_OP):
                segre.degeneracy_report(pencil)


def durations_us(tr: Tracer) -> dict[str, list[float]]:
    """Scaled span durations by span name."""
    out: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _, op in tr.spans:
        out[name].append((end - start) * tr.scale[op] / 1e3)
    return out


def self_time_us(tr: Tracer, name: str, child: str) -> list[float]:
    """Per op, the span's scaled duration minus that of its named child."""
    total: dict[int, float] = defaultdict(float)
    for span_name, start, end, _, op in tr.spans:
        if span_name == name:
            total[op] += (end - start) * tr.scale[op] / 1e3
        elif span_name == child:
            total[op] -= (end - start) * tr.scale[op] / 1e3
    return list(total.values())


def run_traced(segre, args, items, cli, tr: Tracer) -> tuple[Tally, dict, dict]:
    op = make_op(segre, args.workload, cli)
    null = NullTracer()
    for item in items[:WARMUP_OPS]:
        op(item, null)
    tally = Tally(len(items))
    untraced_ns: list[tuple[int, int]] = []  # (op id, ns)
    counts: Counter = Counter()
    basis_sizes: dict[int, int] = {}
    start = now_ns()
    deadline = start + int(args.seconds * 1e9)
    hard_stop = start + int(MAX_RUN_SECONDS * 1e9)
    k = 0
    before = calibrate()
    while k < len(items) or now_ns() < deadline:
        if now_ns() >= hard_stop:
            break
        idx = k % len(items)
        item = items[idx]
        # alternate which side runs first, so cache warmth favours neither
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tr.span("op", k) as root:
                    res = op(item, tr)
                dt = tr.spans[root.index][2] - tr.spans[root.index][1]
                if res.numeric:
                    counts[res.numeric] += 1
            else:
                t0 = now_ns()
                res = op(item, null)
                dt = now_ns() - t0
                untraced_ns.append((k, dt))
            tally.add(idx, item, res, dt)
        got = replay(segre, item, args.workload, tr, k, counts)
        after = calibrate()
        tr.scale[k] = 2 * CAL_REF_NS / (before + after)
        before = after
        if got is not None:
            symbol, size = got
            if item.expected is not None and corpus.structure(symbol) != item.expected:
                tally.wrong += 1
                tally.first_failure = tally.first_failure or f"{item.label}: replay gave {symbol}"
            basis_sizes[idx] = size
        k += 1

    for n in range(1 if args.tiny else CLI_PROBES):
        scale = speed_scale(5)
        t_spawn, t0, t1, t2 = cli.probe()
        probe = PROBE_OP - n
        tr.scale[probe] = (scale + speed_scale(5)) / 2
        tr.record("cli.interpreter", t_spawn, t0, probe)
        tr.record("cli.import_numpy", t0, t1, probe)
        tr.record("cli.import_segre", t1, t2, probe)
    scale = speed_scale(5)
    _reach_probes(segre, args, tr, durations_us(tr))
    tr.scale[REACH_OP] = (scale + speed_scale(5)) / 2

    d = durations_us(tr)
    layers = [
        "pencil.invariant_factors", "pencil.det_poly", "pencil.select_nonsingular_member",
        "pencil.degeneracy_report", "polynomial.squarefree_decomposition",
        "polynomial.coprime_basis", "symbol.compute_symbol", "symbol.random_instance",
        "classify.classify_symbol", "covers.covers_of", "reporting.analyze_pencil",
        "reporting.serialize", "forms.pencil_from_json", "forms.parse_quadratic_form",
        "numeric.numeric_exponent_partitions",
    ]
    metrics = {f"{name}.p50_us": (percentile(d[name], 50), "us") for name in layers}
    metrics["pencil.invariant_factors.p90_us"] = (
        percentile(d["pencil.invariant_factors"], 90), "us")
    metrics["symbol.compute_symbol.self_p50_us"] = (
        percentile(self_time_us(tr, "symbol.compute_symbol", "pencil.invariant_factors"), 50), "us")
    tried = sum(counts.values())
    answered = counts["agree"] + counts["disagree"]
    metrics["numeric.refusal_ratio"] = (counts["refuse"] / tried if tried else 0.0, "ratio")
    metrics["numeric.agreement_ratio"] = (counts["agree"] / answered if answered else 0.0, "ratio")
    metrics["numeric.error_ratio"] = (counts["error"] / tried if tried else 0.0, "ratio")
    for name in ("cli.interpreter", "cli.import_numpy", "cli.import_segre"):
        metrics[f"{name}_ms"] = (percentile(d[name], 50) / 1e3, "ms")
    metrics["pencil.input_bits.max"] = (max(i.input_bits for i in items), "bits")
    metrics["polynomial.basis_size.mean"] = (statistics.fmean(basis_sizes.values()), "count")
    traced_ms = percentile(d["op"], 50) / 1e3
    untraced_ms = percentile([dt * tr.scale[k] for k, dt in untraced_ns], 50) / 1e6
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    extra = {
        "traced_latency_p50_ms": (traced_ms, "ms"),
        "untraced_latency_p50_ms": (untraced_ms, "ms"),
        "spans": (len(tr.spans), "count"),
        "numeric_outcomes": (dict(counts), "count"),
    }
    return tally, metrics, extra


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    import numpy

    spread_file = BENCH / "spread.json"
    spread = json.loads(spread_file.read_text()) if spread_file.is_file() else {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "spread": spread.get(args.workload),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small corpus for smoke tests")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="give the first input a wrong expected answer (gate self-test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.setup_probe:
        # one CPU for this process and its children, so that a child runs
        # where the calibration loop that scales its time ran
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    segre = load_segre()
    tracer = Tracer() if args.trace else None
    span = (lambda name: tracer.span(name, SETUP_OP)) if tracer else None
    scale = speed_scale(5) if tracer else None
    items = build_items(segre, args, span)
    if tracer:
        tracer.scale[SETUP_OP] = (scale + speed_scale(5)) / 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        cli = CliRunner(items, tmp)
        if args.trace:
            tally, metrics, extra = run_traced(segre, args, items, cli, tracer)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            tally, metrics, extra = run_untraced(segre, args, items, cli)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:45s} {value} {unit}")
    print(f"  report_sha256 {tally.report_sha256()}")
    print(f"  ops attempted {tally.attempted}, passed {tally.ok}, raised {tally.raised}, "
          f"wrong {tally.wrong}")
    if tally.first_failure:
        print(f"  first failure: {tally.first_failure[:300]}")
    print("provenance " + json.dumps(provenance(args)))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
