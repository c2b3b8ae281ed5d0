"""The three benchmark workloads: inputs, jobs and output checks.

A workload is a `setup(seed, workdir)` that builds plain-data inputs (edge
lists and integers, made with numpy's generator, never with edgeglue) and a
`jobs(inputs, pass_index)` generator of `Job`s.  Each job's `call` builds
fresh edgeglue objects from those inputs, so no cached graph property carries
over from one pass to the next, and makes the public API calls a user would
make; its `check` then tests the output against something that does not
share the engines' code path.

Why each workload exists:

* proof -- a few large exact searches.  Branch-and-bound and the numpy oracle
  take nearly all the time; canon, store and supersat barely run.
* sweep -- about 170 small ex/z queries through the record store, on the path
  `edgeglue ex/zex --store` takes.  Per-query overhead (certificates, mask
  build, witness checks, the store's full re-parse per lookup) dominates,
  and appends sit beside reads.
* pipeline -- gluing, canonical forms on symmetric and on random graphs,
  balanced families, copy counting and deletion trials on seeded hosts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Any, Callable, Iterator

import numpy as np

from edgeglue import (
    canon,
    constructions,
    embed,
    extremal,
    gluing,
    graphs,
    store,
    supersat,
)

DEFAULT_SEED = 0

# Independent literature tables (index = n).
A006855_EX_C4 = {1: 0, 2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9, 8: 11}
A001197_Z_C4 = {1: 1, 2: 3, 3: 6, 4: 9, 5: 12}

C4_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3))
# H*: two C4s glued along the edge {0, 1}.
HSTAR_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (4, 5), (0, 5))
# Signed patterns as (plus, minus, edges); signed H* is signed_glue of two
# signed_cycle(4) along (0, 0).
SIGNED = {
    "c4": (2, 2, ((0, 0), (1, 1), (0, 1), (1, 0))),
    "c6": (3, 3, ((0, 0), (1, 1), (2, 2), (0, 2), (1, 0), (2, 1))),
    "k2,3": (2, 3, tuple((p, q) for p in range(2) for q in range(3))),
    "s2+": (1, 2, ((0, 0), (0, 1))),
    "s2-": (2, 1, ((0, 0), (1, 0))),
    "s3+": (1, 3, ((0, 0), (0, 1), (0, 2))),
    "s3-": (3, 1, ((0, 0), (1, 0), (2, 0))),
    "h*": (3, 3, ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 2))),
}


@dataclass(frozen=True)
class Job:
    tag: str  # identifies the job in failure messages
    kind: str  # latency class, and the job kind spans are grouped by
    call: Callable[[], Any]
    check: Callable[[Any, "Ledger"], None]


class Ledger:
    """Collects check failures.  `expect` compares an observed value with the
    one recorded in expected.json (or records it, when recording)."""

    def __init__(self, expected: dict, record: bool = False):
        self.expected = expected
        self.record = record
        self.problems: list[str] = []

    def expect(self, key: str, observed) -> None:
        if self.record:
            self.expected[key] = observed
        elif key not in self.expected:
            self.problems.append(f"{key}: no recorded value")
        elif self.expected[key] != observed:
            self.problems.append(f"{key}: got {observed!r}, recorded {self.expected[key]!r}")

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _gnp_edges(rng, n: int, p: float) -> tuple:
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < p
    return tuple(zip(iu[keep].tolist(), ju[keep].tolist()))


def _gnm_edges(rng, n: int, p: float) -> tuple:
    """Uniform random graph with exactly round(p * C(n, 2)) edges."""
    iu, ju = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(len(iu), round(p * len(iu)), replace=False))
    return tuple(zip(iu[pick].tolist(), ju[pick].tolist()))


def _regular_edges(rng, n: int, offsets, swaps: int) -> tuple:
    """Random regular graph: the circulant with the given offsets, shuffled
    by degree-preserving double-edge swaps."""
    edges = {tuple(sorted((v, (v + o) % n))) for v in range(n) for o in offsets}
    order = sorted(edges)
    for _ in range(swaps):
        i, j = rng.integers(len(order), size=2).tolist()
        (a, b), (c, d) = order[i], order[j]
        if rng.random() < 0.5:
            c, d = d, c
        e1, e2 = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if len({a, b, c, d}) < 4 or e1 in edges or e2 in edges:
            continue
        edges -= {order[i], order[j]}
        edges |= {e1, e2}
        order[i], order[j] = e1, e2
    return tuple(sorted(edges))


def _relabel(edges, perm) -> tuple:
    return tuple((perm[a], perm[b]) for a, b in edges)


def _is_embedding(pattern_edges, host_edges, vmap) -> bool:
    """Injective and edge-preserving, by direct inspection."""
    if len(set(vmap)) != len(vmap):
        return False
    return all(
        (min(vmap[a], vmap[b]), max(vmap[a], vmap[b])) in host_edges for a, b in pattern_edges
    )


def _is_c4(k: int, edges) -> bool:
    degrees = [sum(v in e for e in edges) for v in range(k)]
    return k == 4 and len(edges) == 4 and degrees == [2, 2, 2, 2]


def _connected(k: int, edges) -> bool:
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == k


def connected_graphs(k: int) -> list[tuple]:
    """Edge lists of the connected graphs on k vertices, one per
    isomorphism class, in order of their lowest edge bitmask."""
    pairs = list(combinations(range(k), 2))
    index = {e: i for i, e in enumerate(pairs)}
    maps = [
        [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs] for perm in permutations(range(k))
    ]
    seen, out = set(), []
    for mask in range(1, 1 << len(pairs)):
        if mask in seen:
            continue
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        seen.update(sum(1 << m[i] for i in bits) for m in maps)
        edges = tuple(pairs[i] for i in bits)
        if _connected(k, edges):
            out.append(edges)
    return out


def _check_turan(rec, n, forbidden, ledger: Ledger, key: str) -> None:
    """Value against the recorded table, witness re-checked from scratch."""
    ledger.expect(f"value {key}", rec.value)
    w = rec.witness_graph()
    ledger.require(w.vertex_count == n, f"{key}: witness has {w.vertex_count} vertices")
    ledger.require(w.edge_count == rec.value, f"{key}: witness edge count {w.edge_count}")
    for k, edges in forbidden:
        ledger.require(embed.is_free(w, graphs.LabeledGraph(k, edges)), f"{key}: witness not free")
    if len(forbidden) == 1 and _is_c4(*forbidden[0]) and n in A006855_EX_C4:
        ledger.require(rec.value == A006855_EX_C4[n], f"{key}: differs from OEIS A006855")


def _check_zarankiewicz(rec, m, n, name, ledger: Ledger, key: str) -> None:
    ledger.expect(f"value {key}", rec.value)
    w = rec.witness_graph()
    ledger.require((w.plus_count, w.minus_count) == (m, n), f"{key}: witness part sizes")
    ledger.require(w.edge_count == rec.value, f"{key}: witness edge count {w.edge_count}")
    ledger.require(embed.is_free(w, graphs.SignedBipartiteGraph(*SIGNED[name])), f"{key}: witness not free")
    if name == "c4" and m == n and n in A001197_Z_C4:
        ledger.require(rec.value == A001197_Z_C4[n], f"{key}: differs from OEIS A001197")


# ---------------------------------------------------------------------------
# proof: large exact searches, fixed inputs
# ---------------------------------------------------------------------------

PROOF_JOBS = (
    ("ex", 8, ((4, C4_EDGES),), "branch-and-bound"),
    ("ex", 7, ((6, HSTAR_EDGES),), "branch-and-bound"),
    ("z", (5, 5), "c4", "branch-and-bound"),
    ("z", (5, 5), "h*", "branch-and-bound"),
    ("ex", 7, ((4, C4_EDGES),), "oracle"),
    ("ex", 7, ((6, HSTAR_EDGES),), "oracle"),
)


def setup_proof(seed: int, workdir: str) -> dict:
    # ex(8, H*) takes 70-100 s and is left out; ex(8, C4) and z(5,5; signed
    # H*) exercise the same upper bound.
    return {"jobs": PROOF_JOBS}


def _turan_job(n, forbidden, method, key) -> Job:
    def call():
        fs = [graphs.LabeledGraph(k, edges) for k, edges in forbidden]
        return extremal.exact_turan(n, fs, method=method)

    return Job(key, "proof", call, lambda rec, ledger: _check_turan(rec, n, forbidden, ledger, key))


def _zarankiewicz_job(m, n, name, method, key) -> Job:
    def call():
        return extremal.exact_zarankiewicz(m, n, graphs.SignedBipartiteGraph(*SIGNED[name]), method=method)

    return Job(key, "proof", call, lambda rec, ledger: _check_zarankiewicz(rec, m, n, name, ledger, key))


def jobs_proof(inputs: dict, pass_index: int) -> Iterator[Job]:
    for what, size, target, method in inputs["jobs"]:
        if what == "ex":
            key = f"ex n={size} forbid={'c4' if _is_c4(*target[0]) else 'h*'} {method}"
            yield _turan_job(size, target, method, key)
        else:
            key = f"z m,n={size[0]},{size[1]} pattern={target} {method}"
            yield _zarankiewicz_job(size[0], size[1], target, method, key)


# ---------------------------------------------------------------------------
# sweep: many small queries through the record store
# ---------------------------------------------------------------------------

WARM_PASSES = 3


def sweep_queries() -> list[tuple]:
    """(key, "ex" or "z", args) for every query; keys are unique store keys."""
    named = {}
    for k in (4, 5):
        for i, edges in enumerate(connected_graphs(k)):
            named[f"g{k}_{i}"] = (k, edges)
    out = []
    for name, (k, edges) in named.items():
        for n in range(k, (7 if k == 4 else 6) + 1):
            out.append((f"ex n={n} forbid={name}", "ex", (n, ((k, edges),))))
    four = [name for name in named if name.startswith("g4_")]
    for a, b in combinations(four, 2):
        for n in range(4, 8):
            out.append((f"ex n={n} forbid={a}+{b}", "ex", (n, (named[a], named[b]))))
    for name in SIGNED:
        for m in range(2, 5):
            for n in range(m, 5):
                out.append((f"z m,n={m},{n} pattern={name}", "z", (m, n, name)))
    return out


def setup_sweep(seed: int, workdir: str) -> dict:
    return {
        "seed": seed,
        "queries": sweep_queries(),
        "store": os.path.join(workdir, f"sweep-store-{os.getpid()}.jsonl"),
    }


def _store_job(path, key, what, args, warm: bool) -> Job:
    """One `ex/zex --store` query: certificates, lookup, then compute and
    append on a miss."""

    def call():
        if what == "ex":
            n, forbidden = args
            fs = [graphs.LabeledGraph(k, edges) for k, edges in forbidden]
            kind, certs, size = "turan", extremal.forbidden_certificates(fs), (n,)
            compute = lambda: extremal.exact_turan(n, fs)  # noqa: E731
        else:
            m, n, name = args
            h = graphs.SignedBipartiteGraph(*SIGNED[name])
            kind, certs, size = "zarankiewicz", (canon.canonical_form(h).bytes.decode(),), (m, n)
            compute = lambda: extremal.exact_zarankiewicz(m, n, h)  # noqa: E731
        hit = store.lookup(path, kind, certs, size)
        if hit is not None:
            return hit, True
        rec = compute()
        store.store_record(path, rec)
        return rec, False

    def check(out, ledger):
        rec, hit = out
        ledger.require(hit == warm, f"{key}: {'hit' if hit else 'miss'} on a {'warm' if warm else 'cold'} pass")
        if what == "ex":
            _check_turan(rec, args[0], args[1], ledger, key)
        else:
            _check_zarankiewicz(rec, *args, ledger, key)

    return Job(key, "hit" if warm else "miss", call, check)


def jobs_sweep(inputs: dict, pass_index: int) -> Iterator[Job]:
    """One round: a cold pass into an empty store, then warm passes, each in
    its own seed-shuffled order."""
    path, queries = inputs["store"], inputs["queries"]
    if os.path.exists(path):
        os.remove(path)
    for phase in range(1 + WARM_PASSES):
        order = _rng(inputs["seed"], pass_index, phase).permutation(len(queries))
        for i in order:
            key, what, args = queries[i]
            yield _store_job(path, key, what, args, warm=phase > 0)


def cleanup_sweep(inputs: dict) -> None:
    if os.path.exists(inputs["store"]):
        os.remove(inputs["store"])


# ---------------------------------------------------------------------------
# pipeline: gluing, canon, families, counting and deletion trials
# ---------------------------------------------------------------------------

RANDOM_CANON_GRAPHS = 500
DELETION_TRIALS = 1000
FAMILY_CAPS = {"per_edge_cap": 2, "per_pair_cap": 1}
# Canonical search time on Q5 depends on the vertex labelling (2.7-4.1 s over
# five labellings), so the symmetric inputs get one fixed relabelling rather
# than a seeded one, which would make wall time depend on the seed.
SYMMETRIC_RELABEL_SEED = 2026


def _hypercube(d: int) -> tuple:
    return tuple((u, u | 1 << i) for u in range(1 << d) for i in range(d) if not u >> i & 1)


def _rook(k: int) -> tuple:
    n = k * k
    return tuple((a, b) for a, b in combinations(range(n), 2) if a // k == b // k or a % k == b % k)


def _cycle_edges(k: int) -> tuple:
    return tuple((i, (i + 1) % k) for i in range(k))


GLUE_SPECS = {
    "5xC4": ((4, _cycle_edges(4), (0, 1)),) * 5,
    "5xC6": ((6, _cycle_edges(6), (0, 1)),) * 5,
    "C4+C6+C8+K2,3": (
        (4, _cycle_edges(4), (0, 1)),
        (6, _cycle_edges(6), (0, 1)),
        (8, _cycle_edges(8), (0, 1)),
        (5, tuple((p, 2 + q) for p in range(2) for q in range(3)), (0, 2)),
    ),
}
# name -> (vertex count, edges, automorphism count when within the 16-vertex cap)
SYMMETRIC = {
    "Q4": (16, _hypercube(4), 384),
    "Q5": (32, _hypercube(5), None),
    "rook4x4": (16, _rook(4), 1152),
}


def setup_pipeline(seed: int, workdir: str) -> dict:
    fixed = np.random.default_rng(SYMMETRIC_RELABEL_SEED)
    symmetric = {
        name: (n, _relabel(edges, fixed.permutation(n).tolist()), aut)
        for name, (n, edges, aut) in SYMMETRIC.items()
    }
    rng = _rng(seed, 1)
    randoms = []
    for _ in range(RANDOM_CANON_GRAPHS):
        g24 = _gnp_edges(rng, 24, 0.3)
        g16 = _gnp_edges(rng, 16, 0.3)
        randoms.append(
            (
                g24,
                _relabel(g24, rng.permutation(24).tolist()),
                g16,
                _relabel(g16, rng.permutation(16).tolist()),
            )
        )
    # Copy counts of C4 and C6 swing by about 40 % across seeds on G(n, p)
    # hosts (the edge count varies); a fixed edge count, and for the C6 host
    # a fixed degree sequence, keep the work per seed within a few percent.
    rng = _rng(seed, 2)
    g40 = _gnm_edges(rng, 40, 0.4)
    plus = set(rng.permutation(40)[:20].tolist())
    pidx = {v: i for i, v in enumerate(sorted(plus))}
    qidx = {v: i for i, v in enumerate(sorted(set(range(40)) - plus))}
    signed_host = tuple(
        (pidx[a], qidx[b]) if a in plus else (pidx[b], qidx[a])
        for a, b in g40
        if (a in plus) != (b in plus)
    )
    sampler_seeds = rng.integers(0, 2**63, size=3 + DELETION_TRIALS).tolist()
    return {
        "seed": seed,
        "symmetric": symmetric,
        "randoms": randoms,
        "g36": _gnm_edges(rng, 36, 0.35),
        # 9-regular on 24 vertices: density 0.39
        "g24": _regular_edges(rng, 24, (1, 2, 3, 4, 12), 3000),
        "signed_host": signed_host,
        "family_seeds": sampler_seeds[:3],
        "trial_seeds": sampler_seeds[3:],
    }


def _glue_job(name) -> Job:
    parts = GLUE_SPECS[name]

    def call():
        spec = gluing.GluingSpec(tuple((graphs.LabeledGraph(k, e), mark) for k, e, mark in parts))
        return gluing.glue_family(spec)

    def check(forms, ledger):
        ledger.expect(f"glue_family {name}", [canon.canonical_form(g).bytes.decode() for g in forms])
        v = sum(k for k, _, _ in parts) - 2 * (len(parts) - 1)
        e = sum(len(edges) for _, edges, _ in parts) - (len(parts) - 1)
        ledger.require(all((g.vertex_count, g.edge_count) == (v, e) for g in forms), f"glue {name}: sizes")

    return Job(f"glue {name}", "symmetric", call, check)


def _symmetric_job(name, n, edges, aut) -> Job:
    def call():
        g = graphs.LabeledGraph(n, edges)
        return canon.canonical_form(g), (canon.automorphism_count(g) if aut is not None else None)

    def check(out, ledger):
        form, count = out
        ledger.expect(f"canonical_form {name}", form.bytes.decode())
        ledger.require(count == aut, f"{name}: |Aut| = {count}, expected {aut}")

    return Job(f"canon {name}", "symmetric", call, check)


def _random_canon_job(i, g24, r24, g16, r16, outputs) -> Job:
    def call():
        a = canon.canonical_form(graphs.LabeledGraph(24, g24))
        b = canon.canonical_form(graphs.LabeledGraph(24, r24))
        c = canon.automorphism_count(graphs.LabeledGraph(16, g16))
        d = canon.automorphism_count(graphs.LabeledGraph(16, r16))
        return a, b, c, d

    def check(out, ledger):
        a, b, c, d = out
        ledger.require(a == b, f"random graph {i}: canonical form changed under relabelling")
        ledger.require(c == d, f"random graph {i}: |Aut| changed under relabelling")
        outputs.append((a.bytes.decode(), c))

    return Job(f"canon random {i}", "random", call, check)


def _digest_job(tag, outputs, default: bool) -> Job:
    """Compares outputs gathered over earlier jobs of the pass with the
    digest recorded for the default seed; for other seeds it only hashes."""

    def check(out, ledger):
        d = digest(out)
        if default:
            ledger.expect(f"digest {tag}", d)

    return Job(f"digest {tag}", "digest", lambda: list(outputs), check)


def _family_job(name, host_spec, pattern_spec, seed, families, default: bool) -> Job:
    caps = FAMILY_CAPS

    def call():
        c = supersat.FamilyConstraints(**caps)
        sampler = constructions.SeededSampler(seed)
        if name == "signed C4":
            host = graphs.SignedBipartiteGraph(20, 20, host_spec)
            fam = supersat.build_signed_balanced_family(
                host, graphs.SignedBipartiteGraph(*SIGNED["c4"]), (0, 0), c, sampler
            )
        else:
            n, edges = host_spec
            k, pedges = pattern_spec
            rooted = gluing.edge_rooted(graphs.LabeledGraph(k, pedges), (0, 1))
            fam = supersat.build_balanced_family(graphs.LabeledGraph(n, edges), rooted, c, sampler)
        return fam, supersat.verify_family(fam, c), supersat.remaining_recruitable(fam, c)

    def check(out, ledger):
        fam, report, remaining = out
        families[name] = fam
        ledger.require(fam.size > 0, f"family {name}: empty")
        ledger.require(report.violation_count == 0, f"family {name}: cap violations")
        ledger.require(remaining == [], f"family {name}: not maximal")
        host_edges = fam.host.edges
        pedges = fam.pattern.pattern.edges
        maps = [m.map for m in fam.members]
        ledger.require(len(set(maps)) == len(maps), f"family {name}: repeated member")
        ledger.require(all(_is_embedding(pedges, host_edges, v) for v in maps), f"family {name}: bad member")
        if default:
            ledger.expect(f"digest family {name}", digest([list(v) for v in maps]))

    return Job(f"family {name}", "family", call, check)


def _assemble_job(families) -> Job:
    """Two members of the C4 family through one host edge, disjoint away from
    it, glued into an H* copy.  Edges are tried busiest first."""

    def call():
        fam = families["C4"]
        f = fam.pattern.distinguished_edge
        load: dict = {}
        for m in fam.members:
            e = m.image_edge(f)
            load[e] = load.get(e, 0) + 1
        for e in sorted(load, key=lambda e: (-load[e], e)):
            if load[e] < 2:
                break
            glued = supersat.assemble_glued_copies(fam.host, [fam, fam], e)
            if glued is not None:
                return glued
        return None

    def check(glued, ledger):
        ledger.require(glued is not None, "assemble: no edge carries two disjoint members")
        if glued is None:
            return
        p = glued.glued_pattern
        ledger.require((p.vertex_count, p.edge_count) == (6, 7), "assemble: glued pattern is not H*")
        host = families["C4"].host.edges
        ledger.require(_is_embedding(p.edges, host, glued.map), "assemble: map is not an embedding")

    return Job("assemble", "family", call, check)


def _count_job(edges, default: bool) -> Job:
    def call():
        return embed.count_copies(graphs.LabeledGraph(6, _cycle_edges(6)), graphs.LabeledGraph(24, edges))

    def check(count, ledger):
        ledger.require(count > 0, "count C6: no copies")
        if default:
            ledger.expect("count C6", count)

    return Job("count C6", "count", call, check)


def _deletion_job(i, seed, outputs) -> Job:
    def call():
        f = graphs.LabeledGraph(4, C4_EDGES)
        return constructions.deletion_construction(24, f, constructions.SeededSampler(seed))

    def check(g, ledger):
        ledger.require(embed.is_free(g, graphs.LabeledGraph(4, C4_EDGES)), f"deletion trial {i}: contains C4")
        outputs.append(sorted(g.edges))

    return Job(f"deletion {i}", "deletion", call, check)


def jobs_pipeline(inputs: dict, pass_index: int) -> Iterator[Job]:
    default = inputs["seed"] == DEFAULT_SEED
    for name in GLUE_SPECS:
        yield _glue_job(name)
    for name, (n, edges, aut) in inputs["symmetric"].items():
        yield _symmetric_job(name, n, edges, aut)
    outputs: list = []
    for i, graphs_i in enumerate(inputs["randoms"]):
        yield _random_canon_job(i, *graphs_i, outputs)
    yield _digest_job("random canon", outputs, default)
    families: dict = {}
    s1, s2, s3 = inputs["family_seeds"]
    yield _family_job("C4", (36, inputs["g36"]), (4, C4_EDGES), s1, families, default)
    yield _family_job("C6", (24, inputs["g24"]), (6, _cycle_edges(6)), s2, families, default)
    yield _family_job("signed C4", inputs["signed_host"], None, s3, families, default)
    yield _assemble_job(families)
    yield _count_job(inputs["g24"], default)
    trials: list = []
    for i, s in enumerate(inputs["trial_seeds"]):
        yield _deletion_job(i, s, trials)
    yield _digest_job("deletion", trials, default)


def sweep_trace_extras(inputs: dict) -> dict:
    return {"store_bytes": os.path.getsize(inputs["store"])}


def pipeline_trace_extras(inputs: dict) -> dict:
    """Embeddings the family builders are offered: every embedding of each
    pattern, since each is streamed once through its distinguished edge."""
    c4, c6 = graphs.LabeledGraph(4, C4_EDGES), graphs.LabeledGraph(6, _cycle_edges(6))
    offered = (
        embed.count_embeddings(c4, graphs.LabeledGraph(36, inputs["g36"]))
        + embed.count_embeddings(c6, graphs.LabeledGraph(24, inputs["g24"]))
        + embed.count_embeddings(
            graphs.SignedBipartiteGraph(*SIGNED["c4"]),
            graphs.SignedBipartiteGraph(20, 20, inputs["signed_host"]),
        )
    )
    return {"offered": offered}


def _nothing(inputs: dict) -> dict:
    return {}


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], dict]
    jobs: Callable[[dict, int], Iterator[Job]]
    # untimed counts the traced run needs beyond the spans
    trace_extras: Callable[[dict], dict] = _nothing
    cleanup: Callable[[dict], Any] = _nothing


WORKLOADS = {
    "proof": Workload(setup_proof, jobs_proof),
    "sweep": Workload(setup_sweep, jobs_sweep, sweep_trace_extras, cleanup_sweep),
    "pipeline": Workload(setup_pipeline, jobs_pipeline, pipeline_trace_extras),
}
