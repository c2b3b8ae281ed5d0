"""Tests of the benchmark itself (inputs, tracer arithmetic, failure counting).

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from run import REFERENCE_PERIOD_S, run_pass  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, Job, Ledger, connected_graphs  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())


def job_tags(workload, inputs, pass_index=1, limit=2000):
    return [j.tag for j in itertools.islice(workload.jobs(inputs, pass_index), limit)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_and_jobs_are_deterministic_per_seed(name, tmp_path):
    wl = WORKLOADS[name]
    a, b = wl.setup(5, str(tmp_path)), wl.setup(5, str(tmp_path))
    assert a == b
    assert job_tags(wl, a) == job_tags(wl, b)


def test_seed_changes_seeded_inputs_only(tmp_path):
    proof, sweep, pipeline = (WORKLOADS[n] for n in ("proof", "sweep", "pipeline"))
    assert proof.setup(5, str(tmp_path)) == proof.setup(6, str(tmp_path))
    s5, s6 = sweep.setup(5, str(tmp_path)), sweep.setup(6, str(tmp_path))
    assert s5["queries"] == s6["queries"]
    assert job_tags(sweep, s5) != job_tags(sweep, s6)
    assert sorted(job_tags(sweep, s5)) == sorted(job_tags(sweep, s6))
    p5, p6 = pipeline.setup(5, str(tmp_path)), pipeline.setup(6, str(tmp_path))
    assert p5["symmetric"] == p6["symmetric"]
    assert p5["randoms"] != p6["randoms"] and p5["g24"] != p6["g24"]


def test_connected_graph_classes():
    assert [len(connected_graphs(k)) for k in (3, 4, 5)] == [2, 6, 21]


def test_self_time_on_a_synthetic_span_tree():
    #  0 root        [0, 10]
    #  1   child     [1, 4]
    #  2     grand   [2, 3]
    #  3   child     [3.5, 6]   overlaps child 1 by 0.5
    #  4   child     [8, 12]    runs past its parent; clipped at 10
    start = [0.0, 1.0, 2.0, 3.5, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 2.5, 4.0])


def test_tracer_spans_nest_and_generators_are_timed_per_next():
    t = Tracer()
    gen = t.wrap("embed.gen", _count_up)
    outer = t.wrap("extremal.outer", lambda: sum(gen(3)))
    sid = t.begin_job("x")
    assert outer() == 3
    t.end_job(sid)
    assert [t.names[i] for i in t.name] == ["bench.job", "extremal.outer"] + ["embed.gen"] * 4
    assert list(t.parent) == [-1, 0, 1, 1, 1, 1]
    assert list(t.job) == [0] * 6
    assert t.counts["embed.gen.items"] == 3
    summary = summarize(t)
    assert summary["total_self"] == pytest.approx(t.end[0] - t.start[0])
    assert summary["calls"]["embed.gen"] == 4


def _count_up(n):
    yield from range(n)


def test_install_replaces_names_everywhere_and_uninstall_restores():
    from edgeglue import canon, embed, extremal

    originals = (embed.enumerate_embeddings, extremal.enumerate_embeddings, extremal.canonical_form)
    t = Tracer()
    t.install()
    try:
        assert extremal.enumerate_embeddings is embed.enumerate_embeddings
        assert extremal.enumerate_embeddings is not originals[0]
        assert extremal.canonical_form is canon.canonical_form is not originals[2]
        assert extremal.exact_turan(4, [_c4()]).value == 4
    finally:
        t.uninstall()
    assert (embed.enumerate_embeddings, extremal.enumerate_embeddings, extremal.canonical_form) == originals
    names = {t.names[i] for i in t.name}
    assert {"extremal.exact_turan", "embed.enumerate_embeddings", "canon.canonical_form"} <= names


def _c4():
    from edgeglue.graphs import cycle

    return cycle(4)


def _first_sweep_jobs(workdir, expected, n=12):
    wl = WORKLOADS["sweep"]
    inputs = wl.setup(0, str(workdir))
    try:
        jobs = list(itertools.islice(wl.jobs(inputs, 0), n))
        return jobs, run_pass(jobs, Ledger(expected))
    finally:
        wl.cleanup(inputs)


def test_wrong_expected_value_raises_fail_frac(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    jobs, clean = _first_sweep_jobs(tmp_path / "a", dict(EXPECTED["sweep"]))
    assert clean.attempted == len(jobs) and clean.failed == 0
    wrong = dict(EXPECTED["sweep"])
    wrong[f"value {jobs[0].tag}"] += 1
    _, res = _first_sweep_jobs(tmp_path / "b", wrong)
    assert res.failed == 1
    assert res.failed / res.attempted > 0


def test_pass_time_leaves_out_the_reference_samples():
    nap = REFERENCE_PERIOD_S * 2.5
    spans = []

    def timed_nap():
        s = time.perf_counter()
        time.sleep(nap)
        spans.append(time.perf_counter() - s)

    jobs = [Job(f"nap {i}", "nap", timed_nap, lambda out, ledger: None) for i in range(4)]
    res = run_pass(jobs, Ledger({}))
    assert res.attempted == 4 and res.failed == 0
    # one sample before the first job; the timer fires at least twice per nap
    assert len(res.references) >= 9
    during = sum(res.references[1:])
    assert res.wall == pytest.approx(res.elapsed - during)
    left_out = [own - ms / 1e3 for own, (_, ms) in zip(spans, res.latencies)]
    assert all(x >= 2 * min(res.references) - 1e-3 for x in left_out)
    assert sum(left_out) <= during + 1e-3
    assert res.wall_rel == res.wall / statistics.mean(res.references)


def test_traced_pass_samples_only_between_jobs():
    nap = REFERENCE_PERIOD_S * 1.5
    handlers = []

    def nap_job():
        handlers.append(signal.getsignal(signal.SIGALRM))
        time.sleep(nap)

    before = signal.getsignal(signal.SIGALRM)
    jobs = [Job(f"nap {i}", "nap", nap_job, lambda out, ledger: None) for i in range(3)]
    res = run_pass(jobs, Ledger({}), Tracer())
    assert handlers == [before] * 3  # no timer cuts into a traced job
    # on entry and after each nap
    assert len(res.references) == 4
    assert res.wall == pytest.approx(res.elapsed - sum(res.references[1:]))
