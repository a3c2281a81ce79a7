"""The repository benchmark: one seeded command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see ``perfbench/README.md``):

* ``library-cold`` — in-process ``is_contained`` over the whole decision
  pool, closed loop, process caches reset at each pass;
* ``fixpoint`` — ``realizable_refuting_oneway`` / ``_twoway`` on the
  E21/E22 instances, closed loop, caches reset at each pass;
* ``batch-replay`` — the sequential server's pipe transport (``repro
  serve``) from a byte-identical primed cache directory, closed loop;
* ``gateway-open`` — ``repro serve --tcp`` with ``nproc - 1`` shards, an
  open loop of pipelined JSONL at fixed arrival rates.

With ``--trace 0`` the last stdout line is one JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric.
Every verdict is checked against ``answers.json``; every countermodel is
re-checked by evaluation.  Every reported time is scaled to a host of fixed
speed by reference blocks timed next to the work (``calib.py``).  Lines
before the JSON are a human-readable report (metrics with units and sample
counts, provenance, host speed, unscaled figures, layer shares).
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("library-cold", "fixpoint", "batch-replay", "gateway-open")

SETUP_SAMPLES = 3
"""Fresh starts per run whose median is ``setup_s``."""
SETUP_REF_BLOCKS = 8
"""Reference blocks per CPU run just before and just after each fresh
start, which set its scale (see ``calib.py``)."""
PASS_SECONDS = {"library-cold": 10.0, "fixpoint": 1.1, "batch-replay": 2.5}
"""Nominal length of one closed-loop pass on a 2-vCPU host.  A run makes
``round(seconds / pass)`` passes (at least 2): a fixed count, so every run
takes the median of the same number of repeats."""
GATEWAY_RATES = (100.0, 150.0, 225.0)
"""Open-loop arrival rates (requests/s), each 1.5x the previous.  The
gateway front, its shard and the generator share one CPU (see
``run_gateway``); the top rate keeps that CPU under about 40% busy, so
slow phases of the host stretch latency without tipping a rate into
overload."""
GATEWAY_NOMINAL = 150.0
GATEWAY_REQUESTS_PER_RATE = 1000
GATEWAY_P99_LIMIT_MS = 250.0
"""The fixed p99 latency limit ``max_rate_rps`` is judged against; it sits
above the shard's 20-105 ms generation-2 GC pauses, so the figure follows
capacity rather than where a pause happened to land."""
GATEWAY_FRESH_SHARE = 0.06
GATEWAY_TICK_S = 0.05
"""Least time between two reference blocks in the open loop's send gaps."""
GATEWAY_STEP_BLOCKS = 5
"""Reference blocks just before and just after each open-loop step."""
BATCH_REQUESTS_PER_PASS = 2000
BATCH_MIX = {"exact": 0.75, "near": 0.20, "fresh": 0.05}
ZIPF_S = 1.1

E2E_UNITS = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "verdict_p99_ms": "ms",
    "instance_geomean_ms": "ms",
    "max_rate_rps": "1/s",
    "complete_share": "ratio",
    "peak_rss_mb": "MB",
}


# --------------------------------------------------------------------- #
# helpers


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank ** ZIPF_S) for rank in range(1, n + 1)]


def popularity(ids: list[str]) -> list[str]:
    """A fixed popularity ranking of ``ids`` (the same for every seed, so
    seeds vary the draws, not which items are hot)."""
    ranked = sorted(ids)
    random.Random("popularity").shuffle(ranked)
    return ranked


def cheap_log_pairs(run: "Run", skip: int) -> list[str]:
    """``chain3`` log pairs after the first ``skip`` whose lhs has no Kleene
    star: the cheap, homogeneous never-seen decisions."""
    pairs = [i for i in run.items if i.startswith("log.chain3.")][skip:]
    return [i for i in pairs if "*" not in run.items[i].lhs and "+" not in run.items[i].lhs]


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy_version,
    }


def rename_variables(text: str, rng: random.Random) -> str:
    """The same query with its variables renamed (argument lists only)."""
    tag = rng.choice("uvw")
    mapping: dict = {}

    def rename(var: str) -> str:
        var = var.strip()
        if var not in mapping:
            mapping[var] = f"{tag}{len(mapping)}"
        return mapping[var]

    def repl(match):
        return "(" + ",".join(rename(v) for v in match.group(1).split(",")) + ")"

    return re.sub(r"\(([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)?)\)(?=\s*(?:,|;|$))", repl, text)


class Run:
    """Shared state of one benchmark invocation."""

    def __init__(self, args) -> None:
        from perfbench import pool
        from perfbench.checks import load_answers

        self.args = args
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.rng = random.Random(args.seed)
        self.schemas = pool.schemas()
        self.items = {item.id: item for item in pool.decision_items()}
        self.fixpoint_items = {item.id: item for item in pool.fixpoint_items()}
        self.answers = load_answers()
        missing = [i for i in list(self.items) + list(self.fixpoint_items) if i not in self.answers]
        if missing:
            raise SystemExit(f"answers.json lacks {len(missing)} pool items, e.g. {missing[:3]}")
        if self.smoke:
            self.work = Path(tempfile.mkdtemp(prefix="perfbench-smoke-"))
            self.results = self.work / "results"
        else:
            self.work = ROOT / ".bench_work" / f"run-{os.getpid()}"
            self.results = ROOT / ".bench_work" / "results"
        self.work.mkdir(parents=True, exist_ok=True)
        self.results.mkdir(parents=True, exist_ok=True)
        self.spans = self.results / f"{args.workload}-seed{args.seed}-spans.jsonl"
        """Where a traced run writes its spans when it ends."""
        self.spans.unlink(missing_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict = {}
        """name -> (value, unit, samples)."""
        self.layers: dict = {}
        """name -> (value, unit, note)."""
        self.shares: list[str] = []
        self.notes: list[str] = []
        self.raw_setups: list[float] = []
        self.setup_refs: list[float] = []
        self.refs: list[float] = []
        """Reference-block times (ms) of the timed windows, for the report."""

    def passes(self) -> int:
        if self.smoke:
            return 2
        return max(2, round(self.seconds / PASS_SECONDS[self.args.workload]))

    def setup_sample(self, raw_s: float, cal) -> float:
        """A fresh start's time scaled by the reference blocks around it."""
        self.raw_setups.append(raw_s)
        self.setup_refs.extend(ms for _, ms in cal.refs)
        return raw_s * cal.factor()

    def metric(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), E2E_UNITS[name], samples)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def checker(self):
        from perfbench.checks import VerdictChecker

        return VerdictChecker(self.items, self.schemas, self.answers)


# --------------------------------------------------------------------- #
# in-process workers (library-cold, fixpoint)


def _spawn_worker(run: Run, mode: str, order: list[str], go: bool, trace: bool = False):
    from perfbench.calib import Calibrator
    from perfbench.clients import popen, stop

    cfg = {"order": order, "passes": run.passes(), "trace": trace,
           "result": str(run.work / f"{mode}-result.json"), "spans": str(run.spans)}
    cal = Calibrator()
    cal.measure_cpus(SETUP_REF_BLOCKS)
    started = time.perf_counter()
    proc = popen(
        [sys.executable, str(HERE / "worker.py"), mode, json.dumps(cfg)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        setup = time.perf_counter() - started
        if line != "READY":
            raise RuntimeError(f"{mode} worker failed to start: {proc.stderr.read()[-3000:]}")
        cal.measure_cpus(SETUP_REF_BLOCKS)
        setup = run.setup_sample(setup, cal)
        proc.stdin.write("GO\n" if go else "EXIT\n")
        proc.stdin.flush()
        result = None
        if go:
            if proc.stdout.readline().strip() != "DONE":
                raise RuntimeError(f"{mode} worker failed: {proc.stderr.read()[-3000:]}")
            result = json.loads(Path(cfg["result"]).read_text())
        proc.wait(timeout=60)
        return setup, result
    finally:
        stop(proc)


def _setup_samples(run: Run, mode: str, order: list[str]) -> list[float]:
    count = 1 if run.smoke else SETUP_SAMPLES - 1
    return [_spawn_worker(run, mode, order, go=False)[0] for _ in range(count)]


def run_library(run: Run) -> None:
    order = list(run.items)
    run.rng.shuffle(order)
    if run.smoke:
        order = order[:25]
    setups = _setup_samples(run, "library", order)
    setup, result = _spawn_worker(run, "library", order, go=True, trace=run.trace)
    setups.append(setup)
    samples = result["samples"]
    for item_id, ms, contained, complete, method, _ in samples:
        run.attempted += 1
        if contained != run.answers[item_id]["contained"]:
            run.fail(f"{item_id}: verdict {contained}, expected {run.answers[item_id]['contained']}")
    bad = set(result["model_failures"])
    for item_id, *_ in samples:
        if item_id in bad:
            run.fail(f"{item_id}: countermodel rejected")
    run.failures += result["check_failures"][:5]
    _closed_loop_metrics(run, setups, _by_pass(run, samples, len(order), result["refs"]), order,
                         sum(1 for s in samples if s[3]), result["peak_rss_mb"])
    run.notes.append(f"library-cold: {result['passes']} pass(es) of {len(order)} decisions, caches reset per pass")
    if run.trace:
        from perfbench.layers import library_layers

        library_layers(run, result)


def run_fixpoint(run: Run) -> None:
    order = list(run.fixpoint_items)
    run.rng.shuffle(order)
    setups = _setup_samples(run, "fixpoint", order)
    setup, result = _spawn_worker(run, "fixpoint", order, go=True, trace=run.trace)
    setups.append(setup)
    samples = result["samples"]
    for item_id, ms, realizable, complete, *_ in samples:
        run.attempted += 1
        if realizable != run.answers[item_id]["contained"]:
            run.fail(f"{item_id}: realizable {realizable}, expected {run.answers[item_id]['contained']}")
    _closed_loop_metrics(run, setups, _by_pass(run, samples, len(order), result["refs"]), order,
                         sum(1 for s in samples if s[3]), result["peak_rss_mb"])
    backends = sorted({(s[0], s[4]) for s in samples})
    run.notes.append("fixpoint: backends " + ", ".join(f"{i}={b}" for i, b in backends))
    run.notes.append(f"fixpoint: {result['passes']} pass(es) of {len(order)} calls, caches reset per pass")
    if run.trace:
        from perfbench.layers import fixpoint_layers

        fixpoint_layers(run, result)


def _closed_loop_metrics(run, setups, passes, ids, complete, rss) -> None:
    """``passes``: per-pass lists of scaled times over the same requests in
    the same order (``ids`` names the item at each position).  Each
    position counts with the median of its repeats, and the figures are
    taken over those per-position times."""
    n = sum(len(p) for p in passes)
    positions = [statistics.median(column) for column in zip(*passes)]
    per_item: dict = {}
    for item_id, ms in zip(ids, positions):
        per_item.setdefault(item_id, []).append(ms)
    rate = len(positions) / (sum(positions) / 1000.0)
    run.metric("setup_s", statistics.median(setups), len(setups))
    run.metric("decisions_per_s", rate, n)
    run.metric("verdict_p50_ms", percentile(positions, 0.50), n)
    run.metric("verdict_p90_ms", percentile(positions, 0.90), n)
    run.metric("verdict_p99_ms", percentile(positions, 0.99), n)
    run.metric("instance_geomean_ms", geomean(statistics.median(v) for v in per_item.values()), len(per_item))
    run.metric("max_rate_rps", rate, n)
    run.metric("complete_share", complete / n if n else 0.0, n)
    run.metric("peak_rss_mb", rss, 1)


def _by_pass(run: Run, samples: list, per_pass: int, refs: list) -> list[list[float]]:
    """Per-pass lists of the samples' times (``s[1]`` ms, started at
    ``s[-1]``), each scaled by the reference blocks around it."""
    from perfbench.calib import Scaler

    scaler = Scaler(refs)
    run.refs.extend(scaler.ms)
    raw = [s[1] for s in samples]
    scaled = [s[1] * scaler.factor(s[-1]) for s in samples]
    _unscaled_note(run, [raw[i:i + per_pass] for i in range(0, len(raw), per_pass)])
    return [scaled[i:i + per_pass] for i in range(0, len(scaled), per_pass)]


def _unscaled_note(run: Run, passes: list[list[float]]) -> None:
    positions = [statistics.median(column) for column in zip(*passes)]
    run.notes.append(
        f"unscaled: {len(positions) / (sum(positions) / 1000.0):.4f} decisions/s, "
        f"p50 {percentile(positions, 0.5):.4f} ms (median of repeats, host speed as it was)"
    )


# --------------------------------------------------------------------- #
# batch-replay


def batch_sets(run: Run):
    """(hot, near, fresh) item ids; the hot set is primed into the cache."""
    ids = list(run.items)
    log = lambda family: [i for i in ids if i.startswith(family)]  # noqa: E731
    hot = (
        [i for i in ids if i.startswith(("paper.", "example.", "er."))]
        + ["e7.sweep16", "group.fchain.premise0", "group.fchain.premise1", "group.fchain.neg"]
        + log("log.chain3.")[:40] + log("log.er4.")[:20]
    )
    near = ["e7.sweep2", "e7.sweep4", "e7.sweep8"] + log("group.fchain.dup")
    return hot, near, cheap_log_pairs(run, 40)


def batch_log(run: Run, hot, near, fresh, length: int) -> list[tuple]:
    """``(item_id, lhs_text)`` requests: Zipf repeats of the hot set,
    renamed near-duplicates, and never-seen fresh decisions."""
    rng = run.rng
    ranked = popularity(hot)
    weights = zipf_weights(len(ranked))
    fresh = list(fresh)
    rng.shuffle(fresh)
    kinds = rng.choices(list(BATCH_MIX), weights=list(BATCH_MIX.values()), k=length)
    out = []
    for kind in kinds:
        if kind == "fresh" and fresh:
            item_id = fresh.pop()
            out.append((item_id, run.items[item_id].lhs))
        elif kind == "near":
            item_id = rng.choice(near)
            out.append((item_id, rename_variables(run.items[item_id].lhs, rng)))
        else:
            item_id = rng.choices(ranked, weights=weights)[0]
            out.append((item_id, run.items[item_id].lhs))
    return out


def _request(run: Run, rid: str, item_id: str, lhs: str, tenant=None) -> dict:
    item = run.items[item_id]
    request = {"id": rid, "lhs": lhs, "rhs": item.rhs}
    if item.schema is not None:
        request["schema_ref"] = item.schema
    if tenant is not None:
        request["tenant"] = tenant
    return request


def _tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(file.relative_to(path).as_posix().encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def run_batch(run: Run) -> None:
    """The client (this process) and the server share one pinned CPU: the
    loop is strictly alternating, so nothing runs in parallel anyway, and
    the reference blocks the client runs between requests then measure the
    CPU the server runs on."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        _run_batch(run)
    finally:
        os.sched_setaffinity(0, cpus)


def _run_batch(run: Run) -> None:
    from perfbench.calib import Calibrator, Scaler
    from perfbench.clients import PipeServer

    hot, near, fresh = batch_sets(run)
    used = {run.items[i].schema for i in hot + near + fresh} - {None}
    schemas = {ref: tbox for ref, tbox in run.schemas.items() if ref in used}
    length = 200 if run.smoke else BATCH_REQUESTS_PER_PASS
    requests = batch_log(run, hot, near, fresh, length)

    # prime once: every hot decision computed into a fresh cache directory
    primed = run.work / "primed"
    primed.mkdir()
    server = PipeServer(primed, run.work)
    server.register(schemas)
    for n, item_id in enumerate(hot):
        reply = server.decide(_request(run, f"prime-{n}", item_id, run.items[item_id].lhs))
        if reply.get("type") != "verdict":
            raise RuntimeError(f"priming {item_id} failed: {reply}")
    server.close()
    primed_digest = _tree_digest(primed)
    from repro.service.cache import JOURNAL_NAME

    primed_journal = (primed / JOURNAL_NAME).stat().st_size

    checker = run.checker()
    cal = Calibrator()
    pass_samples, setups = [], []
    complete = replay_s = traced_s = 0.0
    rss = 0.0
    passes = 0
    traced = []

    def one_pass(trace: bool) -> dict:
        nonlocal complete, replay_s, traced_s, rss
        cache_dir = run.work / "cache"
        if cache_dir.exists():
            shutil.rmtree(cache_dir)
        shutil.copytree(primed, cache_dir)
        if _tree_digest(cache_dir) != primed_digest:
            raise RuntimeError("restored cache directory differs from the primed copy")
        setup_cal = Calibrator()
        setup_cal.measure(SETUP_REF_BLOCKS)
        server = PipeServer(cache_dir, run.work, spans=run.spans if trace else None)
        setup = server.register(schemas)
        setup_cal.measure(SETUP_REF_BLOCKS)
        t0 = time.perf_counter()
        sources: dict = {}
        samples = []
        for n, (item_id, lhs) in enumerate(requests):
            cal.tick()
            sent = time.perf_counter()
            reply = server.decide(_request(run, f"r{n}", item_id, lhs))
            samples.append((sent, (time.perf_counter() - sent) * 1000.0))
            run.attempted += 1
            if reply.get("type") != "verdict":
                run.fail(f"{item_id}: {reply.get('error', reply)}")
                continue
            verdict = reply["verdict"]
            sources[reply["source"]] = sources.get(reply["source"], 0) + 1
            if not trace:
                complete += 1 if verdict.get("complete") else 0
            if not checker.check(item_id, verdict["contained"], verdict.get("countermodel")):
                run.fail(f"{item_id}: wrong verdict or countermodel")
        wall = time.perf_counter() - t0
        closed = server.close()
        closed.update(setup=setup, wall=wall, sources=sources,
                      journal_growth=(cache_dir / JOURNAL_NAME).stat().st_size - primed_journal)
        rss = max(rss, closed["rss"]["peak_rss_mb"])
        scaled_wall = wall * Scaler(cal.refs).factor_between(t0, t0 + wall)
        if not trace:
            setups.append(run.setup_sample(setup, setup_cal))
            pass_samples.append(samples)
            replay_s += scaled_wall
        else:
            traced_s += scaled_wall
        return closed

    while passes < (max(1, run.passes() // 2) if run.trace else run.passes()):
        last = one_pass(False)
        passes += 1
    run.failures += checker.failures[:5]
    scaler = Scaler(cal.refs)
    run.refs.extend(scaler.ms)
    _unscaled_note(run, [[ms for _, ms in p] for p in pass_samples])
    pass_latencies = [[ms * scaler.factor(sent) for sent, ms in p] for p in pass_samples]
    _closed_loop_metrics(run, setups, pass_latencies, [item_id for item_id, _ in requests], complete, rss)
    run.notes.append(
        f"batch-replay: {passes} pass(es) x {length} requests from primed cache "
        f"{primed_digest[:12]} ({len(hot)} hot, {len(near)} near-duplicate, {len(fresh)} fresh items), "
        f"client and server pinned to one CPU; sources {last['sources']}"
    )
    if run.trace:
        for _ in range(passes):
            traced.append(one_pass(True))
        from perfbench.layers import batch_layers

        batch_layers(run, traced, untraced_s=replay_s / passes, traced_s=traced_s / passes, requests=length)


# --------------------------------------------------------------------- #
# gateway-open


def gateway_sets(run: Run):
    ids = list(run.items)
    chain = [i for i in ids if i.startswith("log.chain3.")]
    hot = (
        [i for i in ids if i.startswith(("paper.", "example.", "e7.", "group."))
         and i != "paper.ex11.q1_q2.S"]
        + chain[:40]
    )
    return hot, cheap_log_pairs(run, 40)


def gateway_schedule(run: Run, hot, fresh, rate: float, count: int, prefix: str, warm: bool = False) -> list[tuple]:
    """Open-loop arrivals at ``rate``: Zipf repeats of the hot set plus a
    ``GATEWAY_FRESH_SHARE`` of never-seen decisions; two tenants, 80/20.
    ``warm`` sends every hot item once instead (first sight computes it)."""
    rng = run.rng
    ranked = popularity(hot)
    weights = zipf_weights(len(ranked))
    schedule = []
    for n in range(len(ranked) if warm else count):
        tenant = 0 if rng.random() < 0.8 else 1
        if warm:
            item_id = ranked[n]
        elif fresh and rng.random() < GATEWAY_FRESH_SHARE:
            item_id = fresh.pop()
        else:
            item_id = rng.choices(ranked, weights=weights)[0]
        request = _request(run, f"{prefix}{n}", item_id, run.items[item_id].lhs,
                           tenant=("acme", "zenith")[tenant])
        schedule.append((n / rate, tenant, request, item_id))
    return schedule


def _gateway_setup(run: Run, cache_dir: Path):
    """Start a gateway, register the schemas over TCP; returns (gateway,
    seconds until the first decision can be sent, per-schema ms)."""
    from perfbench.calib import Calibrator
    from perfbench.clients import Gateway, jsonl_roundtrip, schema_line

    cal = Calibrator()
    cal.measure_cpus(SETUP_REF_BLOCKS)
    gateway = Gateway(cache_dir, shards=max(1, (os.cpu_count() or 2) - 1))
    try:
        lines = [schema_line(ref, tbox) for ref, tbox in run.schemas.items()]
        t0 = time.perf_counter()
        replies = asyncio.run(jsonl_roundtrip(gateway.tcp, lines + ['{"type":"ping","id":"ready"}']))
        register_ms = (time.perf_counter() - t0) * 1000.0 / len(lines)
        if [r.get("type") for r in replies] != ["ack"] * len(lines) + ["pong"]:
            raise RuntimeError(f"gateway schema registration failed: {replies[:3]}")
        setup = time.perf_counter() - gateway.started
        cal.measure_cpus(SETUP_REF_BLOCKS)
        return gateway, run.setup_sample(setup, cal), register_ms
    except BaseException:
        gateway.close()
        raise


def identity_check(run: Run, gateway, sample_size: int) -> None:
    """Decide a seeded sample three ways — library, sequential pipe server,
    gateway HTTP — and require identical wire verdicts (countermodels
    included).  At most one item per (schema, rhs) premise group, so no
    semantic-cache inference can stand in for a computation."""
    from repro import is_contained
    from repro.io import verdict_to_dict

    from perfbench.clients import PipeServer

    groups: dict = {}
    for item_id, item in run.items.items():
        if item_id == "paper.ex11.q1_q2.S" or item.family == "log":
            continue
        groups.setdefault((item.schema, item.rhs), []).append(item_id)
    candidates = sorted(run.rng.choice(members) for members in groups.values())
    sample = run.rng.sample(candidates, min(sample_size, len(candidates)))
    library = {
        i: verdict_to_dict(is_contained(run.items[i].lhs, run.items[i].rhs, run.schemas.get(run.items[i].schema)))
        for i in sample
    }
    pipe_dir = run.work / "identity-pipe"
    server = PipeServer(pipe_dir, run.work)
    server.register(run.schemas)
    pipe = {i: server.decide(_request(run, f"id-{i}", i, run.items[i].lhs)).get("verdict") for i in sample}
    server.close()
    mismatches = 0
    for i in sample:
        status, body = gateway.http_request("POST", "/v1/decide", _request(run, f"http-{i}", i, run.items[i].lhs))
        run.attempted += 1
        http_verdict = body.get("verdict") if status == 200 else None
        if not (library[i] == pipe[i] == http_verdict):
            mismatches += 1
            run.fail(f"identity: {i} differs across library / pipe / HTTP")
    run.notes.append(f"identity: {len(sample)} items identical across library, pipe and HTTP: {mismatches == 0}")


def _rate_stats(records) -> dict:
    lat = [ms for _, ms, _ in records if ms is not None]
    return {
        "n": len(records), "answered": len(lat),
        "p50": percentile(lat, 0.50), "p90": percentile(lat, 0.90), "p99": percentile(lat, 0.99),
        "first_q": statistics.median(lat[: max(1, len(lat) // 4)]) if lat else 0.0,
        "last_q": statistics.median(lat[-max(1, len(lat) // 4):]) if lat else 0.0,
    }


def run_gateway(run: Run) -> None:
    """After set-up the gateway front, its shard processes and this process
    (the generator) share one pinned CPU.  A request passes through all
    three; on separate vCPUs each hand-off waits for the host to wake an
    idle vCPU, which on a contended host adds milliseconds at random, and
    on one CPU it is a plain context switch.  The reference blocks the
    generator runs while no request is in flight then measure the CPU all
    of a request's work runs on."""
    cpus = os.sched_getaffinity(0)
    try:
        _run_gateway(run, sorted(cpus))
    finally:
        os.sched_setaffinity(0, cpus)


def _run_gateway(run: Run, cpus: list) -> None:
    from perfbench.calib import Calibrator

    hot, fresh = gateway_sets(run)
    fresh = list(fresh)
    run.rng.shuffle(fresh)
    setups, register_ms = [], []
    for n in range(0 if run.smoke else SETUP_SAMPLES - 1):
        gateway, setup, reg = _gateway_setup(run, run.work / f"gw-setup-{n}")
        gateway.close()
        setups.append(setup)
        register_ms.append(reg)
    gateway, setup, reg = _gateway_setup(run, run.work / "gw")
    setups.append(setup)
    register_ms.append(reg)
    checker = run.checker()
    cal = Calibrator(tick_s=GATEWAY_TICK_S)
    try:
        gateway.pin({cpus[0]})
        os.sched_setaffinity(0, {cpus[0]})
        identity_check(run, gateway, 4 if run.smoke else 8)
        per_request = 100 if run.smoke else GATEWAY_REQUESTS_PER_RATE
        warm = gateway_schedule(run, hot, fresh, 150.0, 0, "w", warm=True)
        _drive(gateway, warm, checker, run, count=False)
        rates = {}
        for rate in GATEWAY_RATES:
            schedule = gateway_schedule(run, hot, fresh, rate, per_request, f"q{int(rate)}-")
            rates[rate] = _drive(gateway, schedule, checker, run, count=True, cal=cal)
        nominal = rates[GATEWAY_NOMINAL]
        traced = None
        if run.trace:
            from perfbench.spans import SpanStore

            store = SpanStore()
            schedule = gateway_schedule(run, hot, fresh, GATEWAY_NOMINAL, per_request, "t-")
            traced = _drive(gateway, schedule, checker, run, count=True, spans=store, cal=cal)
            store.write_jsonl(run.spans)
            deep = gateway.http_request("GET", "/v1/stats?deep=1")[1]
        rss = gateway.peak_rss_mb()
        from repro.service.cache import JOURNAL_NAME

        journal = sum(p.stat().st_size for p in (run.work / "gw").rglob(JOURNAL_NAME))
    finally:
        gateway.close()
    run.failures += checker.failures[:5]

    def passes(stats) -> bool:
        backlog = stats["last_q"] <= 2.0 * stats["first_q"] + 5.0
        return stats["answered"] == stats["n"] and stats["failed"] == 0 and stats["p99"] <= GATEWAY_P99_LIMIT_MS and backlog

    ok = [rate for rate, out in rates.items() if passes(out["stats"])]
    ns = nominal["stats"]
    run.refs.extend(ms for _, ms in cal.refs)
    run.metric("setup_s", statistics.median(setups), len(setups))
    run.metric("decisions_per_s", ns["answered"] / nominal["span_s"], ns["answered"])
    run.metric("verdict_p50_ms", ns["p50"], ns["n"])
    run.metric("verdict_p90_ms", ns["p90"], ns["n"])
    run.metric("verdict_p99_ms", ns["p99"], ns["n"])
    run.metric("instance_geomean_ms", geomean(statistics.median(v) for v in nominal["by_item"].values()),
               len(nominal["by_item"]))
    # the rate sustained at the highest step that meets the limit, as measured
    best = rates[max(ok)] if ok else None
    run.metric("max_rate_rps", best["stats"]["answered"] / best["span_s"] if best else 0.0,
               sum(o["stats"]["n"] for o in rates.values()))
    run.metric("complete_share", nominal["complete"] / max(1, ns["answered"]), ns["answered"])
    run.metric("peak_rss_mb", rss, 1)
    for rate, out in rates.items():
        s = out["stats"]
        run.notes.append(
            f"gateway-open @ {rate:.0f}/s: n={s['n']} answered={s['answered']} failed={s['failed']} "
            f"p50={s['p50']:.2f}ms p99={s['p99']:.2f}ms (limit {GATEWAY_P99_LIMIT_MS:.0f}ms; "
            f"unscaled p50={out['raw_p50']:.2f}ms) lag_p99={percentile(out['lag_ms'], 0.99):.2f}ms meets={passes(s)}"
        )
    if run.trace:
        from perfbench.layers import gateway_layers

        gateway_layers(run, nominal, traced, deep, statistics.median(register_ms), journal)


def _drive(gateway, schedule, checker, run: Run, count: bool, spans=None, cal=None) -> dict:
    """One open-loop step.  ``out["records"]`` keeps the measured
    latencies; with ``cal`` the step's figures (``stats``, ``by_item``) are
    taken over latencies scaled by the reference blocks around each due
    time: those run in the send gaps, and a few more just before and just
    after the step, while the gateway is idle."""
    from perfbench.calib import Scaler
    from perfbench.clients import open_loop

    plain = [(due, tenant, request) for due, tenant, request, _ in schedule]
    item_of = {request["id"]: item_id for _, _, request, item_id in schedule}
    conns = min(2, os.cpu_count() or 1)
    if cal is not None:
        cal.measure(GATEWAY_STEP_BLOCKS)
    t0 = time.perf_counter()
    out = asyncio.run(open_loop(gateway.tcp, plain, conns, spans=spans, cal=cal))
    out["span_s"] = max(1e-9, time.perf_counter() - t0 - 0.05)
    if cal is not None:
        cal.measure(GATEWAY_STEP_BLOCKS)
    out["raw_p50"] = percentile([ms for _, ms, _ in out["records"] if ms is not None], 0.50)
    records = out["records"]
    if cal is not None:
        scaler = Scaler(cal.refs)
        records = [(rid, None if ms is None else ms * scaler.factor(out["due"][rid]), reply)
                   for rid, ms, reply in records]
    failed = complete = 0
    by_item: dict = {}
    for rid, ms, reply in records:
        item_id = item_of[rid]
        if count:
            run.attempted += 1
        ok = reply is not None and reply.get("type") == "verdict"
        if ok:
            verdict = reply["verdict"]
            complete += 1 if verdict.get("complete") else 0
            ok = checker.check(item_id, verdict["contained"], verdict.get("countermodel"))
            by_item.setdefault(item_id, []).append(ms)
        if not ok:
            failed += 1
            if count:
                run.fail(f"{item_id}: {None if reply is None else reply.get('error', 'wrong verdict')}")
    out["stats"] = _rate_stats(records) | {"failed": failed}
    out["by_item"] = by_item
    out["complete"] = complete
    return out


# --------------------------------------------------------------------- #
# report


def report(run: Run, workload: str, prov: dict) -> dict:
    from perfbench.calib import REF_MS

    print(f"# perfbench {workload} seed={run.seed} seconds={run.seconds:g} trace={int(run.trace)}")
    print(f"# commit={prov['commit']} nproc={prov['nproc']} cpu={prov['cpu']} "
          f"python={prov['python']} numpy={prov['numpy']}")
    if run.refs:
        print(f"# host: reference block median {statistics.median(run.refs):.4f} ms "
              f"(p10 {percentile(run.refs, 0.1):.4f}, p90 {percentile(run.refs, 0.9):.4f}, "
              f"{len(run.refs)} blocks) in the timed windows; times below are scaled to {REF_MS:g} ms")
    if run.raw_setups:
        print(f"# host: set-up raw median {statistics.median(run.raw_setups):.4f} s, reference block median "
              f"{statistics.median(run.setup_refs):.4f} ms around the starts")
    for note in run.notes:
        print(f"# {note}")
    failed_share = run.failed / max(1, run.attempted)
    print(f"{'metric':34s} {'value':>14s} {'unit':8s} samples")
    for name, (value, unit, samples) in run.metrics.items():
        print(f"{name:34s} {value:14.4f} {unit:8s} {samples}")
    print(f"{'failed_share':34s} {failed_share:14.4f} {'ratio':8s} {run.attempted}")
    if run.trace:
        for name, (value, unit, note) in run.layers.items():
            print(f"{name:34s} {value:14.4f} {unit:8s} {note}")
        for line in run.shares:
            print(f"# premise: {line}")
    for failure in run.failures:
        print(f"# FAILED {failure}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    source = run.layers if run.trace else run.metrics
    names = [m["name"] for m in declared["per_layer" if run.trace else "end_to_end"]]
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": source[name][0], "unit": source[name][1]} for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up sample, writes only to a temporary directory")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the children run with a pinned hash seed; so does this process,
        # whose library arm of the identity check must match them
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    prov = provenance()
    run = Run(args)
    try:
        {"library-cold": run_library, "fixpoint": run_fixpoint,
         "batch-replay": run_batch, "gateway-open": run_gateway}[args.workload](run)
        result = report(run, args.workload, prov)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": prov, "notes": run.notes, "result": result}
        suffix = "-trace" if args.trace else ""
        (run.results / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(record, indent=1))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
