"""Exact Turán and Zarankiewicz numbers at desk scale.

The host is described by its vertex classes, one size each: K_n is one
class (n,), the flattened signed K_{m,n} two, (m, n), + then -.  Only the
edge rule (`_slots`) and the graph types (`_sizes`, the small host of
`_copy_masks`, the witness) tell ex from z; every other step reads the
classes.  A host is an edge bitmask over the slots, and a host is free iff
it contains no copy mask of a forbidden pattern as a submask.  The masks
are enumerated once in a small host, the class-wise largest of the
patterns, and moved onto each product of per-class vertex subsets of that
size (see `_instance`).  Two independent engines share this representation:

* an exhaustive oracle, a numpy sieve that keeps 64 hosts to a uint64
  word and closes the copy masks upward over all bitmasks with one pass
  per edge slot, however many masks there are (see `exhaustive_max_free`);
  it shares nothing with the search but the masks, and
* a branch-and-bound DFS over edge slots in lexicographic order, include
  branch first.  It prunes a subtree when the current edges plus the
  undecided slots cannot beat the incumbent, and with the vertex-deletion
  bound: a free host h on the same vertices satisfies
  |h| <= X_v + deg_h(v) for every vertex v, where X_v is the optimum on the
  host with one vertex fewer in v's class, so the subtree is cut once X_v
  plus the slots at v still reachable is at most the incumbent.  Averaging
  it over a class gives floor(n ex(n-1) / (n-2)) for K_n and the smaller of
  floor(m z(m-1, n) / (m-1)) and floor(n z(m, n-1) / (n-1)) for K_{m,n};
  the search stops once the incumbent reaches it.  The X come from the
  same search on the smaller hosts, solved once per call; their copy masks
  are the masks that avoid the class's last vertex.  When the patterns are
  their own side swap, z(a, b) = z(b, a), and one of the two is solved.

  Lex-leader symmetry breaking also cuts every host that swapping two
  adjacent vertices of a class makes lexicographically greater (see
  `_lex_orders`).  The first optimum in include-first order is never cut,
  so the witness is the one the plain search finds.

The front end checks each query's size once, before any mask is built
(`_check_size`), and checks every witness with `is_free` before it returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import accumulate, combinations, product
from math import prod
from operator import itemgetter, le
from typing import Optional, Sequence

from .canon import CanonicalLabel, canonical_form, decode_canonical
from .embed import MAX_HOST_VERTICES, enumerate_copies, is_free
# unused here; bench/tests/test_bench.py checks that the tracer patches this
# module-level reference
from .embed import enumerate_embeddings  # noqa: F401
from .errors import (
    EmptyForbiddenSet,
    InfeasibleInput,
    InvariantViolation,
    PreconditionViolated,
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

# branch-and-bound's largest host, by n or m*n, read at call time; the oracle's limit is its slots
CAPS = {"branch-and-bound": {"n": 10, "m*n": 64}}
_ORACLE_MAX_BITS = 28
_ORACLE_CHUNK_BITS = 22  # the oracle sieves 2^22 hosts at a time


def _copy_masks(size: tuple[int, ...], patterns) -> list[int]:
    """Minimal copy masks of the patterns in the host of this size, K_n or
    the signed K_{m,n}; bit k stands for slot k of `_slots(size)`.

    Callers pass only the patterns that fit into the host, which is
    complete, so each has a copy.  Each copy is enumerated once, and the
    masks are built a column at a time: one column per pattern edge holds
    that edge's host bit under every copy, and each copy's mask is the sum
    across the columns.  The masks are sorted, so their order does not
    depend on the stream's.
    """
    host = complete(*size) if len(size) == 1 else signed_complete_bipartite(*size)
    bit = {}
    for k, (a, b) in enumerate(_slots(size)):
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
# Front end: the host by its vertex classes, instances, and the vertex-deletion bound
# ---------------------------------------------------------------------------


def _classes(size: tuple[int, ...]) -> list[range]:
    """The host's vertex classes in flat order, one per entry of size: K_n
    is one class of n vertices, the flattened signed K_{m,n} is + then -."""
    return [range(end - k, end) for end, k in zip(accumulate(size), size)]


def _slots(size: tuple[int, ...]) -> list[tuple[int, int]]:
    """The host's edge slots, its joined pairs in lexicographic order.  The
    edge rule: K_n joins every two vertices of its one class, K_{m,n} every
    + vertex to every - vertex, so slot p*n+q of K_{m,n} is the edge (p, q)."""
    classes = _classes(size)
    return list(combinations(classes[0], 2) if len(classes) == 1 else product(*classes))


def _sizes(g) -> tuple[int, ...]:
    """The class sizes of a pattern or witness, as a host's size lists them."""
    return (g.plus_count, g.minus_count) if isinstance(g, SignedBipartiteGraph) else (g.vertex_count,)


def _fitting(size: tuple[int, ...], patterns) -> list:
    """The patterns small enough to occur in the host of this size, class by class."""
    return [h for h in patterns if all(map(le, _sizes(h), size))]


def _instance(size: tuple[int, ...], patterns):
    """Edge slots (as `_slots` lays them out), minimal copy masks of the host,
    sorted by (bit count, value), and whether swapping the sides of K_{P,P}
    (below) maps its masks onto themselves.

    The copies are enumerated once, in a small host whose classes are the
    largest of the fitting patterns' (K_K, or the signed K_{P,Q}).  Its
    minimal masks are moved onto every image: a subset of each host class
    of the small class's size, the i-th vertex of a small class going to
    the i-th of its subset; the union is the host's list.  Column k holds
    the host bit of small slot k under every image, so a small mask's moved
    masks are the sums across its columns, one pass over all images.

    Every copy lies in an image, since each of its classes is at most the
    small host's, so every minimal mask of the host is a minimal mask of
    some image and is in the union.  No mask of the union contains another:
    say a copy mask c lies strictly inside a mask moved into the image S.
    The non-isolated vertices of c's copy lie in S, and its pattern's
    classes are at most S's, so its isolated vertices fit on the rest of S:
    c is a copy mask of S, and the moved mask was not minimal in S.

    If P == Q and the side swap maps the masks of K_{P,P} onto themselves,
    the patterns and their side swaps have the same copies there, hence,
    moved as above, in every K_{a,b}: instance (b, a) is the swap of (a, b).
    """
    slots = _slots(size)
    fitting = _fitting(size, patterns)
    if not fitting:
        return slots, [], False
    small = tuple(map(max, zip(*map(_sizes, fitting))))
    images = [sum(parts, ()) for parts in product(*map(combinations, _classes(size), small))]
    small_slots = _slots(small)
    table = _copy_masks(small, fitting)
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

    v is the last vertex of its class, so the slots that avoid v, in order
    and with the vertices above v shifted down, are the smaller host's slots
    as `_slots` lays them out.  Its copies are the copies that avoid v, so
    its minimal copy masks are the minimal masks that avoid v, moved to the
    new slot numbers: each set bit of a mask goes to its slot's new bit.
    The last + vertex of K_{m,n} holds the top n slots, so there no bit
    moves and the masks are filtered.
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

    The relabellings that keep each class (S_n on K_n, S_m x S_n on K_{m,n})
    permute the copy masks and the vertex caps among themselves, so they
    map optima to optima.  The first optimum in include-first order is the
    lexicographically greatest optimum, read from slot 0, so it is the
    greatest in its orbit.  Swapping adjacent vertices v, v+1 of a class
    exchanges slot (v, w) with the later (v+1, w) for each w joined to both,
    in w order, so it cannot raise the string iff v's bits there are
    lexicographically at least v+1's: on K_n row i against row i+1, columns
    i and i+1 left out (Codish, Miller, Prosser & Stuckey, Constraints
    2019), on K_{m,n} adjacent rows, then adjacent columns (Flener et al.,
    CP 2002).
    """
    row = [{} for _ in range(sum(size))]  # row[v]: w -> slot of vw, filled in slot order, so in w order
    for k, (a, b) in enumerate(slots):
        row[a][b] = row[b][a] = k
    # v and v+1 share a class, so they are joined to the same vertices besides each other
    pairs = ((v, v + 1) for vertices in _classes(size) for v in vertices[:-1])
    return [[(k, row[u][w]) for w, k in row[v].items() if w != u] for v, u in pairs]


def _bnb(size, slots, masks, memo: dict, swap: bool = False) -> tuple[int, int]:
    """Branch-and-bound with the vertex-deletion bound (see the module notes).

    Each class of k vertices shares one X, the optimum without its last
    vertex, and each edge has d endpoints in the class, so summing
    |h - v| <= X over the class gives (k - d)|h| <= k X
    (Katona-Nemetz-Simonovits).  The X are solved the same way on the
    smaller hosts, whose instances come from this one by `_delete_vertex`;
    memo maps a size to its optimum.  With swap, as `_instance` reports it,
    sizes (a, b) and (b, a) have one optimum, kept under the smaller size;
    the memo holds values only, so sharing them cannot change a witness.

    Every search runs under `_lex_orders`, which cuts the hosts that
    swapping two adjacent vertices makes lexicographically greater and so
    proves optimality in far fewer nodes; it still returns the first
    optimum in include-first order.
    """
    if not masks:
        return branch_and_bound_max_free(len(slots), masks)
    star = [0] * sum(size)
    for k, (a, b) in enumerate(slots):
        star[a] |= 1 << k
        star[b] |= 1 << k
    caps, limit = [], len(slots)
    for i, vertices in enumerate(_classes(size)):
        smaller = size[:i] + (size[i] - 1,) + size[i + 1 :]
        key = min(smaller, smaller[::-1]) if swap else smaller
        if key not in memo:
            sub_slots, sub_masks = _delete_vertex(slots, masks, vertices[-1])
            memo[key] = _bnb(smaller, sub_slots, sub_masks, memo, swap)[0]
        x = memo[key]
        caps += [(star[v], x) for v in vertices]
        d = sum(v in vertices for v in slots[0])  # endpoints in the class, the same for every edge
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
        if _sizes(w) != tuple(self.size):
            raise InvariantViolation("witness class sizes differ from the record's size")
        if w.edge_count != self.value:
            raise InvariantViolation("witness edge count differs from value")
        for fg in _fitting(self.size, self.forbidden_graphs()):
            if not is_free(w, fg):
                raise InvariantViolation("witness contains a forbidden pattern")

    def to_dict(self) -> dict:
        """The fields in declaration order, the tuples as lists."""
        return {
            "kind": self.kind,
            "forbidden": list(self.forbidden),
            "size": list(self.size),
            "value": self.value,
            "witness": self.witness,
            "method": self.method,
            "runtime_ms": self.runtime_ms,
            "timestamp": self.timestamp,
        }

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


def forbidden_certificates(forbidden) -> tuple[str, ...]:
    return tuple(sorted(canonical_form(h).bytes.decode() for h in forbidden))


def _solve(size: tuple[int, ...], forbidden, method: str) -> ExtremalRecord:
    """The front end both exact_* share: size check, masks, engine, checked witness, record."""
    _check_size(size, method)
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
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _check_size(size: tuple[int, ...], method: str) -> None:
    """Refuse a negative class size, or a host past embed's or the method's limit."""
    if min(size) < 0:
        raise PreconditionViolated(f"host class sizes {size} must be nonnegative")
    if sum(size) > MAX_HOST_VERTICES:
        raise SizeExceeded(f"host limited to {MAX_HOST_VERTICES} vertices")
    if method == "oracle":
        measure, value, cap = "edge slots", len(_slots(size)), _ORACLE_MAX_BITS
    elif method == "branch-and-bound":
        measure = "n" if len(size) == 1 else "m*n"
        value, cap = prod(size), CAPS[method][measure]
    else:
        raise ValueError(f"unknown method {method!r}")
    if value > cap:
        raise SizeExceeded(f"{method} capped at {measure} = {cap}")


def exact_turan(n: int, forbidden, method: str = "branch-and-bound") -> ExtremalRecord:
    """Exact ex(n, forbidden family) of unsigned patterns, with an optimal witness."""
    forbidden = list(forbidden)
    if not forbidden:
        raise EmptyForbiddenSet("need at least one forbidden pattern")
    if any(isinstance(h, SignedBipartiteGraph) for h in forbidden):
        raise SignMismatch("ex needs unsigned patterns; a signed one goes to exact_zarankiewicz")
    return _solve((n,), forbidden, method)


def exact_zarankiewicz(
    m: int, n: int, h: SignedBipartiteGraph, method: str = "branch-and-bound"
) -> ExtremalRecord:
    """Exact z(m, n, h) for a signed bipartite pattern, with witness."""
    if not isinstance(h, SignedBipartiteGraph):
        raise SignMismatch("z needs a signed pattern; an unsigned one goes to exact_turan")
    return _solve((m, n), [h], method)
