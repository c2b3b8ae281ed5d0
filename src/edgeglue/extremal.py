"""Exact Turán and Zarankiewicz numbers at desk scale.

Hosts are edge bitmasks over the complete (or complete signed bipartite)
host, and forbidden patterns become precomputed copy masks: a host is free
iff it contains no copy mask as a submask.  The masks are enumerated once
in a small host, one just large enough for every pattern, and moved onto
each of the host's vertex subsets of that size (see `_instance`), a column
at a time: each small-host slot gets its host bit under every subset, and
a mask's moved copies are the sums across its columns.  Two independent
engines share this representation:

* an exhaustive oracle, a numpy sieve that keeps 64 hosts to a uint64
  word and closes the copy masks upward over all bitmasks with one pass
  per edge slot, however many masks there are (see `exhaustive_max_free`);
  it shares nothing with the search but the masks, and
* a branch-and-bound DFS over edge slots in lexicographic order, include
  branch first.  It prunes a subtree when the current edges plus the
  undecided slots cannot beat the incumbent, and with the vertex-deletion
  bound: a free host h on the same vertices satisfies
  |h| <= X_v + deg_h(v) for every vertex v, where X_v is the optimum on the
  host without v (ex(n-1), or z(m-1, n) / z(m, n-1) by the side of v), so
  the subtree is cut once X_v plus the slots at v still reachable is at
  most the incumbent.  Averaging the same inequality over the vertices
  gives floor(n ex(n-1) / (n-2)) for K_n and the smaller of
  floor(m z(m-1, n) / (m-1)) and floor(n z(m, n-1) / (n-1)) for K_{m,n};
  the search stops once the incumbent reaches it.  The X come from the
  same search on the smaller hosts, solved once per call; their copy masks
  are the masks that avoid the deleted vertex, which keep their bits when
  that vertex is the last + vertex.  When the patterns are their own side
  swap, z(a, b) = z(b, a), and one of the two is solved.

  Lex-leader symmetry breaking also cuts every host that swapping two
  adjacent vertices makes lexicographically greater (see `_lex_orders`).
  The first optimum in include-first order is never cut, so the witness is
  the one the plain search finds.

The front end checks every witness with `is_free` before it returns.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Optional, Sequence

from .canon import CanonicalLabel, canonical_form, decode_canonical
from .embed import enumerate_copies, is_free
# unused here; bench/tests/test_bench.py checks that the tracer patches this
# module-level reference
from .embed import enumerate_embeddings  # noqa: F401
from .errors import (
    EmptyForbiddenSet,
    InfeasibleInput,
    InvariantViolation,
    SignMismatch,
    SizeExceeded,
)
from .graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    _check_ints,
    complete,
    decode_graph6,
    decode_sb,
    encode_graph6,
    encode_sb,
    signed_complete_bipartite,
)

# method -> the largest host it takes, by n for ex and by m*n for z; read at call time
CAPS = {"oracle": {"n": 7, "m*n": 25}, "branch-and-bound": {"n": 10, "m*n": 64}}
_ORACLE_MAX_BITS = 28
_ORACLE_CHUNK_BITS = 22  # the oracle sieves 2^22 hosts at a time


def _copy_masks(host, slots, patterns) -> list[int]:
    """Minimal copy masks of the patterns in host; bit k stands for slots[k].

    Callers pass only the patterns that fit into the host, which is
    complete, so each has a copy.  Each copy is enumerated once, and the
    masks are built a column at a time: one column per pattern edge holds
    that edge's host bit under every copy, and each copy's mask is the sum
    across the columns.  The masks are sorted, so their order does not
    depend on the stream's.
    """
    bit = {}
    for k, (a, b) in enumerate(slots):
        bit[a, b] = bit[b, a] = 1 << k
    masks = set()
    for h in patterns:
        if h.edge_count == 0:
            raise InfeasibleInput("a forbidden pattern with no edges occurs in every host")
        copies = list(enumerate_copies(h, host))
        maps = [emb.map for emb in copies]
        columns = [list(map(bit.__getitem__, map(itemgetter(a, b), maps))) for a, b in copies[0].pattern.edges]
        masks.update(map(sum, zip(*columns)))
    return _prune_dominated(masks)


def _prune_dominated(masks: set[int]) -> list[int]:
    """Drop masks that contain another mask (their constraint is implied).

    Distinct masks with the same bit count cannot contain each other, so each
    mask is only tested against the kept masks with fewer bits.
    """
    ordered = sorted(masks)
    ordered.sort(key=int.bit_count)
    kept: list[int] = []
    fewer: list[int] = []
    count = -1
    for m in ordered:
        if m.bit_count() != count:
            count, fewer = m.bit_count(), kept.copy()
        if not any(m & k == k for k in fewer):
            kept.append(m)
    return kept


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def exhaustive_max_free(nbits: int, masks: Sequence[int]) -> tuple[int, int]:
    """Sieve all 2^nbits hosts; return (max edges, lowest witness mask).

    Hosts go in chunks that share their bits above the low k, and a chunk
    holds its hosts as bits of uint64 words: low part j is bit j & 63 of
    word j >> 6.  In a chunk with high part H, a host contains a copy mask c
    iff the high part of c lies in H and its low part c & low is a submask
    of the host's low part.  So the chunk marks c & low for those c and
    closes the marks upward, one OR per low bit: a shift inside each word
    for bits 0-5, an OR across words for the rest.  The unmarked bits are
    the free hosts.  A chunk spans at least one word; the bits of hosts past
    2^nbits are marked too.

    Host j of the chunk has |H| + popcount(j >> 6) + popcount(j & 63)
    edges.  A table of the word's positions by bit count (0 to 6) gives each
    word the largest count among its free positions; the first word with
    the most edges in total holds the chunk's lowest best host, at its
    lowest free position with that count.
    """
    # imported on first use: `import edgeglue` stays without numpy
    import numpy as np

    if nbits > _ORACLE_MAX_BITS:
        raise SizeExceeded(f"exhaustive oracle limited to {_ORACLE_MAX_BITS} edge slots")
    if not masks:
        return nbits, (1 << nbits) - 1
    k = max(6, min(nbits, _ORACLE_CHUNK_BITS))
    low = (1 << k) - 1
    cs = np.array(masks, dtype=np.uint32)
    c_low, c_high = cs & low, cs & ~np.uint32(low)
    # the positions of a word whose bit i is 0, for i < 6, and the positions
    # with j bits set, for j <= 6
    zero_at = [np.uint64(sum(1 << b for b in range(64) if not b >> i & 1)) for i in range(6)]
    with_count = [np.uint64(sum(1 << b for b in range(64) if b.bit_count() == j)) for j in range(7)]
    word_count = np.bitwise_count(np.arange(1 << (k - 6), dtype=np.uint32)).astype(np.int16)
    # with fewer than 6 slots, the bits from 2^nbits up in word 0 are no hosts
    absent = np.uint64((1 << 64) - (1 << (1 << nbits)) if nbits < 6 else 0)
    best, best_mask = -1, 0
    for high in range(0, 1 << nbits, 1 << k):
        hit = c_low[c_high & high == c_high]
        bad = np.zeros(1 << (k - 6), dtype=np.uint64)
        np.bitwise_or.at(bad, hit >> 6, np.uint64(1) << (hit & 63).astype(np.uint64))
        if bad[0] & 1:  # the low part 0 lies in every host of the chunk
            continue
        for i, sel in enumerate(zero_at):
            bad |= (bad & sel) << np.uint64(1 << i)
        for i in range(k - 6):
            v = bad.reshape(-1, 2, 1 << i)
            v[:, 1] |= v[:, 0]
        bad[0] |= absent
        free = ~bad
        # fit[w]: the most bits set at a free position of word w, -64 if none
        fit = np.full(1 << (k - 6), -64, dtype=np.int16)
        for j, at_j in enumerate(with_count):
            fit[(free & at_j) != 0] = j
        score = word_count + fit
        w = int(np.argmax(score))
        count = high.bit_count() + int(score[w])
        if count > best:
            bits = int(free[w] & with_count[fit[w]])
            best, best_mask = count, high | w << 6 | (bits & -bits).bit_length() - 1
    return best, best_mask


def branch_and_bound_max_free(
    nbits: int,
    masks: Sequence[int],
    caps: Sequence[tuple[int, int]] = (),
    limit: Optional[int] = None,
    lex: Sequence[Sequence[tuple[int, int]]] = (),
) -> tuple[int, int]:
    """Exact DFS over edge slots; returns (max edges, witness mask).

    Optional bounds the caller proves for every free host h: each
    (star, cap) in caps says |h| <= cap + |h & star|, and limit >= max |h|.
    They only cut subtrees that cannot beat the incumbent, so the value and
    the witness are those of the search without them: the first optimum in
    include-first order, which is the optimal free host whose slot string,
    read from slot 0, is lexicographically greatest.

    Each sequence of slot pairs (hi, lo) in lex asks that the bits at the
    hi slots, read in order, be lexicographically at least those at the lo
    slots; a subtree that breaks one is cut, and the result is the first
    optimum among the hosts that meet them all.  The caller must prove that
    the first optimum of the search without them does, as `_lex_orders`
    does; the value and the witness are then unchanged.
    """
    if not masks:
        return nbits, (1 << nbits) - 1
    if limit is None:
        limit = nbits
    # checks[k]: (bit of sequence s, hi, lo) for each column of s decided
    # once slot k is, in column order; `tied` holds the bits of the sequences
    # whose decided columns are all equal so far
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(nbits)]
    for s, seq in enumerate(lex):
        done = -1
        for hi, lo in seq:
            done = max(done, hi, lo)
            checks[done].append((1 << s, hi, lo))

    def settle(cur: int, k: int, tied: int) -> int:
        """tied after slot k is decided in cur, or -1 if a sequence broke."""
        for s, hi, lo in checks[k]:
            if tied & s:
                a, b = cur >> hi & 1, cur >> lo & 1
                if a < b:
                    return -1
                if a > b:
                    tied ^= s
        return tied

    # Slots are decided in increasing order, so when slot `bit` is added the
    # free host holds only lower slots: a copy it completes has `bit` on top.
    by_top: list[list[int]] = [[] for _ in range(nbits)]
    for c in masks:
        by_top[c.bit_length() - 1].append(c)

    def conflicts(cur: int, bit: int) -> bool:
        new = cur | 1 << bit
        for c in by_top[bit]:
            if new & c == c:
                return True
        return False

    # greedy lexicographic seed gives the incumbent and the fallback witness
    greedy = 0
    for b in range(nbits):
        if not conflicts(greedy, b):
            greedy |= 1 << b
    best = greedy.bit_count()
    witness = greedy

    full = (1 << nbits) - 1

    def dfs(i: int, cur: int, cnt: int, tied: int):
        nonlocal best, witness
        if min(cnt + (nbits - i), limit) <= best:
            return
        if i == nbits:
            best, witness = cnt, cur
            return
        if not conflicts(cur, i):
            t = settle(cur | 1 << i, i, tied) if checks[i] else tied
            if t >= 0:
                dfs(i + 1, cur | 1 << i, cnt + 1, t)
        # excluding slot i shrinks what the subtree can reach; including it
        # does not, so the caps are only checked here
        reach = cur | (full >> (i + 1) << (i + 1))
        for star, cap in caps:
            if cap + (reach & star).bit_count() <= best:
                return
        t = settle(cur, i, tied) if checks[i] else tied
        if t >= 0:
            dfs(i + 1, cur, cnt, t)

    dfs(0, 0, 0, (1 << len(lex)) - 1)
    return best, witness


# ---------------------------------------------------------------------------
# Front end: instances by host size, and the vertex-deletion bound
# ---------------------------------------------------------------------------


def _fitting(size: tuple[int, ...], patterns) -> list:
    """The patterns small enough to occur in the host of this size."""
    if len(size) == 1:
        return [h for h in patterns if h.vertex_count <= size[0]]
    return [h for h in patterns if h.plus_count <= size[0] and h.minus_count <= size[1]]


def _host(size: tuple[int, ...]):
    """K_n for size (n,), the signed K_{m,n} for size (m, n), and its edge
    slots: the flattened host's sorted edges, so for K_n slot k is the k-th
    pair (i, j) in lexicographic order, and for K_{m,n} slot p*n+q is the
    edge (p, q)."""
    host = complete(*size) if len(size) == 1 else signed_complete_bipartite(*size)
    return host, (host.as_unsigned() if len(size) == 2 else host).sorted_edges


def _instance(size: tuple[int, ...], patterns):
    """Edge slots (as `_host` lays them out), minimal copy masks of the host,
    sorted by (bit count, value), and whether swapping the sides of K_{P,P}
    (below) maps its masks onto themselves.

    The copies are enumerated once, in a small host: K_K, where K is the
    most vertices of a fitting pattern, or for K_{m,n} the signed K_{P,Q},
    where P and Q are the largest + and - sides.  Its minimal masks are
    moved onto every K-subset of the host's vertices (every P-subset of the
    + side times every Q-subset of the - side), the i-th vertex of the small
    host going to the i-th of the subset, and the union is the host's list.
    The move goes a column at a time: column k holds the host bit of small
    slot k under every subset, so a small mask's moved masks are the sums
    across its columns, one pass over all subsets.

    Every copy lies in such a subset, since it has at most K vertices, so
    every minimal mask of the host is a minimal mask of some subset and is
    in the union.  No mask of the union contains another: say a copy mask c
    lies strictly inside a mask moved into the subset S.  The non-isolated
    vertices of c's copy lie in S, and its pattern has at most K vertices,
    so its isolated vertices fit on the rest of S: c is a copy mask of S,
    and the moved mask was not minimal in S.

    If P == Q and the side swap maps the masks of K_{P,P} onto themselves,
    the patterns and their side swaps have the same copies there, hence,
    moved as above, in every K_{a,b}: instance (b, a) is the swap of (a, b).
    """
    slots = _host(size)[1]
    fitting = _fitting(size, patterns)
    if not fitting:
        return slots, [], False
    if len(size) == 1:
        small = (max(h.vertex_count for h in fitting),)
        images = list(combinations(range(size[0]), small[0]))
    else:
        m, n = size
        small = (max(h.plus_count for h in fitting), max(h.minus_count for h in fitting))
        images = [
            plus + minus
            for plus in combinations(range(m), small[0])
            for minus in combinations(range(m, m + n), small[1])
        ]
    small_host, small_slots = _host(small)
    table = _copy_masks(small_host, small_slots, fitting)
    local = []
    for c in table:
        ks = []
        while c:
            low = c & -c
            ks.append(low.bit_length() - 1)
            c ^= low
        local.append(ks)
    p = small[0]  # K_{P,P} slot p*P+q is the edge (p, q); its side swap is q*P+p
    swap = small == (p, p) and {sum(1 << (k % p * p + k // p) for k in ks) for ks in local} == set(table)
    # slots are sorted pairs, and every image is increasing, so each small
    # slot (a, b) with a < b lands on the slot (image[a], image[b])
    at = {e: 1 << k for k, e in enumerate(slots)}
    columns = [list(map(at.__getitem__, map(itemgetter(a, b), images))) for a, b in small_slots]
    masks = set()
    for ks in local:
        masks.update(map(sum, zip(*map(columns.__getitem__, ks))))
    ordered = sorted(masks)
    ordered.sort(key=int.bit_count)
    return slots, ordered, swap


def _delete_vertex(slots, masks, v: int):
    """Slots and copy masks of the host without vertex v, from the host's own.

    v is the last vertex of K_n, or of one side of the flattened K_{m,n}, so
    the slots that avoid v, in order and with the vertices above v shifted
    down, are the smaller host's slots as `_instance` lays them out.  Its
    copies are the copies that avoid v, so its minimal copy masks are the
    minimal masks that avoid v, moved to the new slot numbers: each set bit
    of a mask goes to its slot's new bit.  The last + vertex of K_{m,n}
    holds the top n slots, so there no bit moves and the masks are filtered.
    """
    kept = [k for k, e in enumerate(slots) if v not in e]
    at_v = sum(1 << k for k, e in enumerate(slots) if v in e)
    sub_slots = [(a - (a > v), b - (b > v)) for a, b in (slots[k] for k in kept)]
    sub_masks = [c for c in masks if not c & at_v]
    if not at_v & ((1 << len(kept)) - 1):  # v holds the top slots
        return sub_slots, sub_masks
    new_bit = [0] * len(slots)
    for j, k in enumerate(kept):
        new_bit[k] = 1 << j
    for i, c in enumerate(sub_masks):
        sub = 0
        while c:
            low = c & -c
            sub |= new_bit[low.bit_length() - 1]
            c ^= low
        sub_masks[i] = sub
    return sub_slots, sub_masks


def _lex_orders(size, slots) -> list[list[tuple[int, int]]]:
    """Lex-leader constraints that the first optimum of every instance meets.

    The host's relabellings (S_n on K_n, the side-preserving S_m x S_n on
    K_{m,n}) permute the copy masks and the vertex caps among themselves,
    so they map optima to optima.  The first optimum in include-first order
    is the lexicographically greatest optimum, read from slot 0, so it is
    the greatest in its orbit.  In the row-major slot order of `_instance`,
    swapping i and i+1 in K_n cannot raise that string, so row i beats row
    i+1 with columns i and i+1 left out (Codish, Miller, Prosser & Stuckey,
    Constraints 2019); for K_{m,n}, adjacent rows and adjacent columns are
    non-increasing (Flener et al., CP 2002).
    """
    at = {}
    for k, (a, b) in enumerate(slots):
        at[a, b] = at[b, a] = k
    if len(size) == 1:
        (n,) = size
        return [[(at[i, c], at[i + 1, c]) for c in range(n) if c not in (i, i + 1)] for i in range(n - 1)]
    m, n = size
    rows = [[(at[p, m + q], at[p + 1, m + q]) for q in range(n)] for p in range(m - 1)]
    columns = [[(at[p, m + q], at[p, m + q + 1]) for p in range(m)] for q in range(n - 1)]
    return rows + columns


def _bnb(size, slots, masks, memo: dict, swap: bool = False) -> tuple[int, int]:
    """Branch-and-bound with the vertex-deletion bound (see the module notes).

    Each class of k vertices (all of K_n, or one side of K_{m,n}) shares one
    X, and each edge has d endpoints in the class, so summing |h - v| <= X
    over the class gives (k - d)|h| <= k X (Katona-Nemetz-Simonovits).  The
    X are solved the same way on the smaller hosts, whose instances come
    from this one by `_delete_vertex`; memo maps a size to its optimum.
    With swap, as `_instance` reports it, sizes (a, b) and (b, a) have one
    optimum, kept under the smaller size; the memo holds values only, so
    sharing them cannot change a witness.

    Every search runs under `_lex_orders`, which cuts the hosts that
    swapping two adjacent vertices makes lexicographically greater and so
    proves optimality in far fewer nodes; it still returns the first
    optimum in include-first order.
    """
    if not masks:
        return branch_and_bound_max_free(len(slots), masks)
    if len(size) == 1:
        (n,) = size
        classes = [(range(n), (n - 1,), 2)]
    else:
        m, n = size
        classes = [(range(m), (m - 1, n), 1), (range(m, m + n), (m, n - 1), 1)]
    star = [0] * sum(size)
    for k, (a, b) in enumerate(slots):
        star[a] |= 1 << k
        star[b] |= 1 << k
    caps, limit = [], len(slots)
    for vertices, smaller, d in classes:
        key = min(smaller, smaller[::-1]) if swap else smaller
        if key not in memo:
            sub_slots, sub_masks = _delete_vertex(slots, masks, vertices[-1])
            memo[key] = _bnb(smaller, sub_slots, sub_masks, memo, swap)[0]
        x = memo[key]
        caps += [(star[v], x) for v in vertices]
        if len(vertices) > d:
            limit = min(limit, len(vertices) * x // (len(vertices) - d))
    return branch_and_bound_max_free(len(slots), masks, caps, limit, lex=_lex_orders(size, slots))


# ---------------------------------------------------------------------------
# Records and top-level operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalRecord:
    kind: str  # "turan" | "zarankiewicz"
    forbidden: tuple[str, ...]  # canonical certificates (decodable)
    size: tuple[int, ...]  # (n,) or (m, n)
    value: int
    witness: str  # graph6 (turan) or sb:m:n:bits (zarankiewicz) of the witness
    method: str  # "oracle" | "branch-and-bound" | "cached"
    runtime_ms: int
    timestamp: str = ""

    def key(self) -> tuple:
        return (self.kind, self.forbidden, self.size)

    def witness_graph(self):
        if self.kind == "turan":
            return decode_graph6(self.witness)
        if self.witness.startswith("sb:"):
            return decode_sb(self.witness)
        # z records written before the sb: witness hold the flattened graph6
        return SignedBipartiteGraph.from_flat(self.size[0], decode_graph6(self.witness))

    def forbidden_graphs(self):
        return [decode_canonical(CanonicalLabel(c.encode())) for c in self.forbidden]

    def validate(self):
        """Check the record's own invariants; raise InvariantViolation."""
        try:
            w = self.witness_graph()
        except Exception as exc:
            raise InvariantViolation(f"witness does not decode: {exc}") from exc
        if self.kind == "turan":
            if (w.vertex_count,) != tuple(self.size):
                raise InvariantViolation("witness size mismatch")
        else:
            if (w.plus_count, w.minus_count) != tuple(self.size):
                raise InvariantViolation("witness part sizes mismatch")
        if w.edge_count != self.value:
            raise InvariantViolation("witness edge count differs from value")
        for fg in self.forbidden_graphs():
            if not is_free(w, fg):
                raise InvariantViolation("witness contains a forbidden pattern")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["forbidden"] = list(self.forbidden)
        d["size"] = list(self.size)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExtremalRecord":
        """The record of a `to_dict` dict; KeyError if a field is missing,
        TypeError if one is ill-typed (JSON's 1.0 and true are not ints)."""
        if type(d["forbidden"]) is not list or type(d["size"]) is not list:
            raise TypeError("forbidden and size must be lists")
        texts = [d["kind"], d["witness"], d["method"], d.get("timestamp", ""), *d["forbidden"]]
        if not all(type(t) is str for t in texts):
            raise TypeError("kind, witness, method, timestamp and the certificates must be strings")
        _check_ints([*d["size"], d["value"], d["runtime_ms"]])
        return ExtremalRecord(
            kind=d["kind"],
            forbidden=tuple(d["forbidden"]),
            size=tuple(d["size"]),
            value=d["value"],
            witness=d["witness"],
            method=d["method"],
            runtime_ms=d["runtime_ms"],
            timestamp=d.get("timestamp", ""),
        )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def forbidden_certificates(forbidden) -> tuple[str, ...]:
    return tuple(sorted(canonical_form(h).bytes.decode() for h in forbidden))


def _solve(size: tuple[int, ...], forbidden, method: str) -> ExtremalRecord:
    """The front end both exact_* share: masks, one engine, checked witness, record."""
    t0 = time.perf_counter()
    slots, masks, swap = _instance(size, forbidden)
    if method == "oracle":
        value, wmask = exhaustive_max_free(len(slots), masks)
    else:
        value, wmask = _bnb(size, slots, masks, {}, swap)
    w = LabeledGraph(sum(size), [e for k, e in enumerate(slots) if wmask >> k & 1])
    if len(size) == 2:
        w = SignedBipartiteGraph.from_flat(size[0], w)
    if w.edge_count != value or not all(is_free(w, h) for h in _fitting(size, forbidden)):
        raise InvariantViolation(f"{method} witness is not a free host with {value} edges")
    runtime = int((time.perf_counter() - t0) * 1000)
    return ExtremalRecord(
        kind="turan" if len(size) == 1 else "zarankiewicz",
        forbidden=forbidden_certificates(forbidden),
        size=size,
        value=value,
        witness=encode_graph6(w) if len(size) == 1 else encode_sb(w),
        method=method,
        runtime_ms=runtime,
        timestamp=_now(),
    )


def _check_cap(method: str, measure: str, size: int):
    if method not in CAPS:
        raise ValueError(f"unknown method {method!r}")
    cap = CAPS[method][measure]
    if size > cap:
        raise SizeExceeded(f"{method} capped at {measure}={cap}")


def exact_turan(n: int, forbidden, method: str = "branch-and-bound") -> ExtremalRecord:
    """Exact ex(n, forbidden family) of unsigned patterns, with an optimal witness."""
    forbidden = list(forbidden)
    if not forbidden:
        raise EmptyForbiddenSet("need at least one forbidden pattern")
    if any(isinstance(h, SignedBipartiteGraph) for h in forbidden):
        raise SignMismatch("ex needs unsigned patterns; a signed one goes to exact_zarankiewicz")
    _check_cap(method, "n", n)
    return _solve((n,), forbidden, method)


def exact_zarankiewicz(
    m: int, n: int, h: SignedBipartiteGraph, method: str = "branch-and-bound"
) -> ExtremalRecord:
    """Exact z(m, n, h) for a signed bipartite pattern, with witness."""
    if not isinstance(h, SignedBipartiteGraph):
        raise SignMismatch("z needs a signed pattern; an unsigned one goes to exact_turan")
    _check_cap(method, "m*n", m * n)
    return _solve((m, n), [h], method)


# ---------------------------------------------------------------------------
# ex vs z ratio tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioRow:
    n: int
    ex: Optional[int]
    z: Optional[int]
    ratio: Optional[Fraction]
    skipped: bool = False


def bipartition(g: LabeledGraph) -> Optional[tuple[list[int], list[int]]]:
    """2-coloring of a bipartite graph, or None."""
    color = [-1] * g.vertex_count
    for s in range(g.vertex_count):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    plus = [v for v in range(g.vertex_count) if color[v] == 0]
    minus = [v for v in range(g.vertex_count) if color[v] == 1]
    return plus, minus


def sign_graph(g: LabeledGraph) -> SignedBipartiteGraph:
    """Sign a bipartite graph by its 2-coloring that puts the least vertex
    of each component on the + side."""
    parts = bipartition(g)
    if parts is None:
        raise InfeasibleInput("graph is not bipartite")
    plus, minus = parts
    flat = g.relabel({v: i for i, v in enumerate(plus + minus)})
    return SignedBipartiteGraph.from_flat(len(plus), flat)


def ratio_report(h: LabeledGraph, sizes, method: str = "branch-and-bound") -> list[RatioRow]:
    """Rows (n, ex(n,h), z(n,n,signed h), ex/z), h signed by `sign_graph`;
    oversized rows are skipped."""
    signed_h = sign_graph(h)
    rows = []
    for n in sizes:
        try:
            ex_rec = exact_turan(n, [h], method=method)
            z_rec = exact_zarankiewicz(n, n, signed_h, method=method)
        except SizeExceeded:
            rows.append(RatioRow(n=n, ex=None, z=None, ratio=None, skipped=True))
            continue
        ratio = Fraction(ex_rec.value, z_rec.value) if z_rec.value else None
        rows.append(RatioRow(n=n, ex=ex_rec.value, z=z_rec.value, ratio=ratio))
    return rows
