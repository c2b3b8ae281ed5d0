"""Run one edgeglue benchmark workload and print its metrics.

    python3 bench/run.py --workload proof --seed 1 --seconds 38 --trace 0
    python3 bench/run.py                       # all workloads, one process each

Run it from the repository root; it imports edgeglue from ./src and nowhere
else.  One caller issues jobs back to back (a closed loop, no threads) and
repeats whole passes of the workload's fixed job set while the next pass
still fits in --seconds (at least one pass).  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and prints the per-layer metrics.  Human-readable lines go first; the last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import edgeglue; print(time.perf_counter() - t)"
)
WORKLOAD_NAMES = ("proof", "sweep", "pipeline")


# The reference computation samples the machine's speed this often (wall
# time); each sample takes about 10 ms.
REFERENCE_PERIOD_S = 0.1


def reference_s() -> float:
    """Time of a fixed pure-Python computation (integer bit operations, dict
    stores and a JSON round trip, the mix the code under test uses).  No
    edgeglue change can alter it, so it tracks only the machine's speed."""
    t = time.perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        m = i * 2654435761 & 0xFFFFFFFF
        acc += (m & -m).bit_length()
        table[i & 1023] = acc
    json.loads(json.dumps(table))
    return time.perf_counter() - t


class ReferenceSampler:
    """Samples `reference_s` about every REFERENCE_PERIOD_S during a pass.

    With `interrupt`, a SIGALRM timer runs it, cutting into whichever job is
    running, so the samples spread evenly over the pass, long jobs included;
    the handler runs in the main thread between bytecodes, so the process
    stays single-threaded.  Without, it runs only between jobs, where it
    cannot land inside a traced span.  One sample is always taken on entry.
    """

    def __init__(self, interrupt: bool):
        self.interrupt = interrupt
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append((start, reference_s()))

    def between_jobs(self) -> None:
        if not self.interrupt and time.perf_counter() - self.samples[-1][0] >= REFERENCE_PERIOD_S:
            self._sample()

    def within(self, lo: float, hi: float) -> float:
        """Time spent in samples that ran inside [lo, hi]."""
        return sum(d for s, d in self.samples if lo <= s and s + d <= hi)

    def __enter__(self):
        self._sample()
        if self.interrupt:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


@dataclass
class PassResult:
    wall: float = 0.0  # seconds, reference samples excluded
    elapsed: float = 0.0  # seconds, reference samples included
    latencies: list = field(default_factory=list)  # (job kind, ms)
    references: list = field(default_factory=list)  # reference_s() samples
    attempted: int = 0
    failed: int = 0

    @property
    def wall_rel(self) -> float:
        """Pass time in units of the mean time of the reference computation
        over the pass."""
        return self.wall / statistics.mean(self.references)


def run_pass(jobs, ledger, tracer=None) -> PassResult:
    """Run jobs back to back; a job fails if its call raises or its check
    adds a problem to the ledger.  The reference computation samples the
    machine's speed throughout an untraced pass and between jobs of a traced
    one (see ReferenceSampler); its time is left out of the pass time and
    the job latencies."""
    res = PassResult()
    with ReferenceSampler(interrupt=tracer is None) as sampler:
        t0 = time.perf_counter()
        for job in jobs:
            res.attempted += 1
            before = len(ledger.problems)
            sid = tracer.begin_job(job.kind) if tracer is not None else None
            try:
                s = time.perf_counter()
                out = job.call()
                e = time.perf_counter()
                res.latencies.append((job.kind, (e - s - sampler.within(s, e)) * 1e3))
                job.check(out, ledger)
            except Exception as exc:  # a failing job is counted; the run goes on
                ledger.problems.append(f"{type(exc).__name__}: {exc}")
            finally:
                if tracer is not None:
                    tracer.end_job(sid)
            if len(ledger.problems) > before:
                res.failed += 1
                ledger.problems[before:] = [f"{job.tag}: {p}" for p in ledger.problems[before:]]
            sampler.between_jobs()
        t1 = time.perf_counter()
    res.elapsed = t1 - t0
    res.wall = res.elapsed - sampler.within(t0, t1)
    res.references = [d for _, d in sampler.samples]
    return res


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def measure(workload, inputs, seconds: float, ledger, tracer=None):
    """Passes until the next one would overrun `seconds`.  With a tracer,
    untraced and traced passes alternate, starting untraced, and both kinds
    run at least once.  Returns (untraced passes, traced passes)."""
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        use_tracer = tracer is not None and index % 2 == 1
        if use_tracer:
            tracer.install()
            try:
                traced.append(run_pass(workload.jobs(inputs, index), ledger, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(workload.jobs(inputs, index), ledger))
        index += 1
        if tracer is not None and not traced:
            continue
        elapsed = [p.elapsed for p in plain + traced]
        if time.perf_counter() - start + statistics.mean(elapsed) > seconds:
            return plain, traced


def end_to_end_metrics(passes, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_rel": (statistics.median(p.wall_rel for p in passes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def latency_split(passes) -> dict:
    """Latency percentiles per job kind (sweep: hit and miss)."""
    by_kind: dict = {}
    for p in passes:
        for kind, ms in p.latencies:
            by_kind.setdefault(kind, []).append(ms)
    return {kind: (percentile(v, 50), percentile(v, 90), len(v)) for kind, v in by_kind.items()}


def per_layer_metrics(summary, tracer, plain, traced, extras) -> dict:
    from tracer import TRACED_MODULES

    n = len(traced)
    own, calls, counts = summary["self"], summary["calls"], tracer.counts
    by_layer_kind = summary["self_by_layer_kind"]

    def self_s(*names):
        return sum(own.get(x, 0.0) for x in names) / n

    def per_pass(value):
        return value / n

    def ratio(a, b):
        return a / b if b else 0.0

    enum_s = self_s("embed.enumerate_embeddings", "embed.enumerate_extensions")
    embeddings = per_pass(
        counts["embed.enumerate_embeddings.items"] + counts["embed.enumerate_extensions.items"]
    )
    oracle_s = self_s("extremal.exhaustive_max_free")
    deletion_jobs = tracer.job_kinds.count("deletion")
    lookups = summary["lookup_durations"]
    hits = latency_split(plain).get("hit", (0.0, 0.0, 0))
    misses = latency_split(plain).get("miss", (0.0, 0.0, 0))
    m = {
        "extremal.bnb.s": (self_s("extremal.branch_and_bound_max_free"), "s"),
        "extremal.bnb.calls": (per_pass(calls.get("extremal.branch_and_bound_max_free", 0)), "count"),
        "extremal.oracle.s": (oracle_s, "s"),
        "extremal.oracle.hosts_per_s": (ratio(per_pass(counts["extremal.oracle.hosts"]), oracle_s), "1/s"),
        "extremal.front.s": (self_s("extremal.exact_turan", "extremal.exact_zarankiewicz"), "s"),
        "embed.enum.s": (enum_s, "s"),
        "embed.embeddings": (embeddings, "count"),
        "embed.embeddings_per_s": (ratio(embeddings, enum_s), "1/s"),
        "canon.symmetric.s": (per_pass(by_layer_kind.get(("canon", "symmetric"), 0.0)), "s"),
        "canon.random.s": (per_pass(by_layer_kind.get(("canon", "random"), 0.0)), "s"),
        "canon.calls": (per_pass(sum(v for k, v in calls.items() if k.startswith("canon."))), "count"),
        "canon.aut.s": (self_s("canon.automorphism_count", "canon.signed_automorphism_count"), "s"),
        "gluing.glue_family.s": (self_s("gluing.glue_family"), "s"),
        "gluing.forms_per_orientation": (ratio(counts["gluing.forms"], counts["gluing.orientations"]), "ratio"),
        "supersat.build.s": (
            self_s("supersat.build_balanced_family", "supersat.build_signed_balanced_family"),
            "s",
        ),
        "supersat.recruit_ratio": (ratio(per_pass(counts["supersat.members"]), extras.get("offered", 0)), "ratio"),
        "supersat.verify.s": (self_s("supersat.verify_family"), "s"),
        "supersat.maximality.s": (self_s("supersat.remaining_recruitable"), "s"),
        "constructions.deletion.s": (per_pass(by_layer_kind.get(("constructions", "deletion"), 0.0)), "s"),
        "constructions.trials_per_s": (
            ratio(deletion_jobs, summary["job_time_by_kind"].get("deletion", 0.0)),
            "1/s",
        ),
        "store.lookup.s": (self_s("store.lookup", "store.load_records"), "s"),
        "store.lookup_p50_ms": (statistics.median(lookups) * 1e3 if lookups else 0.0, "ms"),
        "store.append.s": (self_s("store.store_record"), "s"),
        "store.bytes": (extras.get("store_bytes", 0), "bytes"),
        "store.hit_ratio": (ratio(counts["store.hits"], counts["store.lookups"]), "ratio"),
        "sweep.hit_p50_ms": (hits[0], "ms"),
        "sweep.hit_p90_ms": (hits[1], "ms"),
        "sweep.miss_p50_ms": (misses[0], "ms"),
        "sweep.miss_p90_ms": (misses[1], "ms"),
    }
    for layer in TRACED_MODULES + ("bench",):
        layer_s = sum(v for (name, _), v in by_layer_kind.items() if name == layer)
        m[f"layer.{layer}.s"] = (per_pass(layer_s), "s")
    m["wall_s"] = (statistics.median(p.wall for p in plain), "s")
    m["reference_ms"] = (statistics.mean(r for p in plain for r in p.references) * 1e3, "ms")
    plain_rel = statistics.median(p.wall_rel for p in plain)
    traced_rel = statistics.median(p.wall_rel for p in traced)
    m["trace.overhead_frac"] = (traced_rel / plain_rel - 1, "ratio")
    m["trace.accounted_frac"] = (summary["total_self"] / sum(p.wall for p in traced), "ratio")
    return m


def fresh_import_s() -> float:
    """Time to import edgeglue in a new interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    return float(out.stdout)


def run_workload(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import edgeglue
    except ImportError as exc:
        print(f"cannot import edgeglue from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = [time.perf_counter() - t0]
    if Path(edgeglue.__file__).resolve().parent != ROOT / "src" / "edgeglue":
        print(f"edgeglue imported from {edgeglue.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS, Ledger

    import_s += [fresh_import_s() for _ in range(IMPORT_REPEATS - 1)]
    expected = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    gen_s = []
    for _ in range(SETUP_REPEATS):
        s = time.perf_counter()
        inputs = workload.setup(args.seed, str(OUT_DIR))
        gen_s.append(time.perf_counter() - s)
    setup_s = statistics.median(import_s) + statistics.median(gen_s)

    ledger = Ledger(expected[args.workload])
    tracer = tracing.Tracer() if args.trace else None
    try:
        plain, traced = measure(workload, inputs, args.seconds, ledger, tracer)
        extras = workload.trace_extras(inputs) if tracer is not None else {}
    finally:
        workload.cleanup(inputs)
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {attempted} jobs, {failed} failed")
    for problem in ledger.problems[:10]:
        print(f"  FAIL {problem}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end_metrics(plain, setup_s)
        notes = {
            "setup_s": f"median of {IMPORT_REPEATS} imports {statistics.median(import_s):.3f} s"
                       f" + median of {SETUP_REPEATS} input builds {statistics.median(gen_s):.3f} s",
            "wall_rel": f"median of {len(plain)} passes: " + " ".join(f"{p.wall_rel:.1f}" for p in plain),
        }
        walls = [p.wall for p in plain]
        print(f"  wall_s {statistics.median(walls):.4f} s (median of {len(walls)} passes: "
              + " ".join(f"{w:.3f}" for w in walls) + ")")
        rows = sorted(latency_split(plain).items())
        every = [ms for p in plain for _, ms in p.latencies]
        rows.append(("job", (percentile(every, 50), percentile(every, 90), len(every))))
        for kind, (p50, p90, n) in rows:
            print(f"  {kind}_p50_ms {p50:.4f} ms, {kind}_p90_ms {p90:.4f} ms (n={n})")
    else:
        summary = tracing.summarize(tracer)
        metrics = per_layer_metrics(summary, tracer, plain, traced, extras)
        trace_path = OUT_DIR / f"trace-{args.workload}.npz"
        tracer.save(str(trace_path))
        notes = {"trace.overhead_frac": f"spans written to {trace_path.relative_to(ROOT)}"}
    print(f"  fail_frac {failed / attempted:.6f} ratio ({failed}/{attempted} jobs)")
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all, one process each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
