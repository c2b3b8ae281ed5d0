"""Exact extremal numbers, witnesses, ratio tables, and the record store."""

import dataclasses
import json
import os
import re
import tempfile
import zlib
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeglue import extremal, store
from edgeglue.canon import canonical_form
from edgeglue.embed import enumerate_copies, is_free
from edgeglue.errors import (
    CorruptStore,
    EmptyForbiddenSet,
    InfeasibleInput,
    InvariantViolation,
    PreconditionViolated,
    SignMismatch,
    SizeExceeded,
)
from edgeglue.extremal import (
    ExtremalRecord,
    bipartition,
    exact_turan,
    exact_zarankiewicz,
    forbidden_certificates,
    ratio_report,
    sign_graph,
)
from edgeglue.gluing import GluingSpec, glue_along_edge, signed_glue
from edgeglue.graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    complete,
    component_roots,
    cycle,
    path,
    signed_complete_bipartite,
    signed_cycle,
    signed_star,
    star,
)
from edgeglue.store import load_records, lookup, store_record

HSTAR = glue_along_edge(cycle(4), (0, 1), cycle(4), (0, 1))[0]
SIGNED_HSTAR = signed_glue(GluingSpec(((signed_cycle(4), (0, 0)),) * 2))


class TestExactTuran:
    def test_c4_values(self):
        assert exact_turan(4, [cycle(4)]).value == 4
        assert exact_turan(5, [cycle(4)]).value == 6

    def test_p3_matching_bound(self):
        assert exact_turan(4, [path(3)]).value == 2

    def test_family_triangle_witness(self):
        rec = exact_turan(4, [star(3), path(4)])
        assert rec.value == 3
        w = rec.witness_graph()
        # the unique 3-edge witness avoiding both is a triangle + isolate
        assert sorted(w.degrees) == [0, 2, 2, 2]

    def test_family_value_at_most_each_singleton(self):
        fam = exact_turan(5, [star(3), path(4)]).value
        assert fam <= exact_turan(5, [star(3)]).value
        assert fam <= exact_turan(5, [path(4)]).value

    def test_witness_is_free_and_record_validates(self):
        rec = exact_turan(6, [cycle(4)])
        w = rec.witness_graph()
        assert w.edge_count == rec.value == 7
        assert is_free(w, cycle(4))
        rec.validate()

    def test_record_validates_with_a_pattern_too_large_to_fit(self):
        # C14 cannot fit in K_5; validate used to hand it to is_free, which
        # refuses patterns of more than 12 vertices
        rec = exact_turan(5, [cycle(14)])
        assert rec.value == 10
        rec.validate()

    def test_oracle_agrees_with_branch_and_bound(self):
        for n in (4, 5):
            a = exact_turan(n, [cycle(4)], method="oracle").value
            b = exact_turan(n, [cycle(4)], method="branch-and-bound").value
            assert a == b

    def test_monotone_in_forbidden_supergraph(self):
        hstar = glue_along_edge(cycle(4), (0, 1), cycle(4), (0, 1))[0]
        for n in range(4, 8):
            assert exact_turan(n, [cycle(4)]).value <= exact_turan(n, [hstar]).value

    def test_input_guards(self):
        with pytest.raises(EmptyForbiddenSet):
            exact_turan(4, [])
        with pytest.raises(SizeExceeded):
            exact_turan(11, [cycle(4)])
        with pytest.raises(SizeExceeded):  # 36 slots, past the oracle's 28
            exact_turan(9, [cycle(4)], method="oracle")
        with pytest.raises(InfeasibleInput):
            exact_turan(4, [LabeledGraph(2)])  # edgeless pattern fits everywhere


class TestExactZarankiewicz:
    def test_signed_c4_values(self):
        assert exact_zarankiewicz(2, 2, signed_cycle(4)).value == 3
        assert exact_zarankiewicz(3, 3, signed_cycle(4)).value == 6

    def test_plus_centered_star(self):
        # forbidding a + vertex of degree 2 caps every + degree at 1
        assert exact_zarankiewicz(3, 5, signed_star(2)).value == 3

    def test_witness_validates(self):
        rec = exact_zarankiewicz(3, 3, signed_cycle(4))
        w = rec.witness_graph()
        assert (w.plus_count, w.minus_count, w.edge_count) == (3, 3, 6)
        rec.validate()

    def test_oracle_agrees_with_branch_and_bound(self):
        for m, n in ((2, 3), (3, 3), (2, 4)):
            a = exact_zarankiewicz(m, n, signed_cycle(4), method="oracle").value
            b = exact_zarankiewicz(m, n, signed_cycle(4)).value
            assert a == b

    def test_sides_matter(self):
        # + centered star forbids high + degrees; - centered forbids high -
        a = exact_zarankiewicz(2, 4, signed_star(2, center_plus=True)).value
        b = exact_zarankiewicz(2, 4, signed_star(2, center_plus=False)).value
        assert a == 2 and b == 4

    def test_sixty_four_vertex_host_witness(self):
        # the old flattened graph6 witness could not hold 64 vertices
        rec = exact_zarankiewicz(1, 63, signed_star(2))
        assert rec.value == 1 and rec.witness.startswith("sb:1:63:")
        w = rec.witness_graph()
        assert (w.plus_count, w.minus_count, w.edge_count) == (1, 63, 1)
        assert is_free(w, signed_star(2))

    @pytest.mark.parametrize("m, n", [(1, 64), (64, 1)])
    def test_sixty_five_vertex_host_inside_the_cell_cap(self, m, n):
        # m*n = 64 is inside the branch-and-bound cap; the flat host has 65 vertices
        rec = exact_zarankiewicz(m, n, signed_star(2))
        assert rec.value == (1 if m == 1 else 64)
        w = rec.witness_graph()
        assert (w.plus_count, w.minus_count) == (m, n)
        assert is_free(w, signed_star(2))

    @pytest.mark.parametrize("m, n, value", [(3, 4, 7), (4, 3, 7), (4, 5, 10), (5, 4, 10)])
    def test_unequal_sides(self, m, n, value):
        # z(m, n; C4) from Guy's table; each side's vertices are capped by their own smaller host
        assert exact_zarankiewicz(m, n, signed_cycle(4)).value == value
        k23 = SignedBipartiteGraph(2, 3, [(p, q) for p in range(2) for q in range(3)])
        oracle = exact_zarankiewicz(m, n, k23, method="oracle").value
        assert exact_zarankiewicz(m, n, k23).value == oracle

    @pytest.mark.parametrize("m, n", [(2, 32), (32, 2)])
    def test_two_row_host_inside_the_cell_cap(self, m, n):
        # 64 slots: bounded only by "edges so far + undecided slots", this ran for over 10 minutes
        assert exact_zarankiewicz(m, n, signed_cycle(4)).value == 33

    def test_size_guards(self):
        with pytest.raises(SizeExceeded):
            exact_zarankiewicz(6, 5, signed_cycle(4), method="oracle")
        with pytest.raises(SizeExceeded):
            exact_zarankiewicz(9, 8, signed_cycle(4))


@pytest.fixture
def no_masks(monkeypatch):
    def refuse(*args):
        raise AssertionError("copy masks built for a refused query")

    monkeypatch.setattr(extremal, "_instance", refuse)


@pytest.mark.usefixtures("no_masks")
class TestMixedSigns:
    """ex takes unsigned patterns and z a signed one; the other type is
    refused with SignMismatch before any copy mask is built."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_turan_refuses_a_signed_pattern(self, n):
        # n = 3: the pattern fits nowhere, so the query used to return 3
        with pytest.raises(SignMismatch):
            exact_turan(n, [signed_cycle(4)])

    def test_turan_refuses_a_family_with_a_signed_member(self):
        with pytest.raises(SignMismatch):
            exact_turan(5, [cycle(4), signed_cycle(4)])

    @pytest.mark.parametrize("method", ["oracle", "branch-and-bound"])
    def test_zarankiewicz_refuses_an_unsigned_pattern(self, method):
        with pytest.raises(SignMismatch):
            exact_zarankiewicz(3, 3, cycle(4), method=method)


def scan_max_free(nbits, masks):
    """The oracle's contract, one host at a time: (max edges, lowest witness)."""
    best = (-1, 0)
    for h in range(1 << nbits):
        if h.bit_count() > best[0] and all(h & c != c for c in masks):
            best = (h.bit_count(), h)
    return best


def scan_first_optimum(nbits, masks):
    """Branch-and-bound's contract, one host at a time: (max edges, the first
    optimum in include-first order), which is the optimal free host whose
    slot string, read from slot 0, is lexicographically greatest."""
    free = [h for h in range(1 << nbits) if all(h & c != c for c in masks)]
    return max((h.bit_count(), [h >> k & 1 for k in range(nbits)], h) for h in free)[::2]


@st.composite
def mask_sets(draw):
    nbits = draw(st.integers(0, 12))
    bits = st.sets(st.integers(0, max(nbits - 1, 0)), max_size=min(nbits, 4))
    masks = draw(st.lists(bits.map(lambda s: sum(1 << b for b in s)), max_size=8))
    return nbits, masks


class TestExhaustiveOracle:
    @pytest.mark.parametrize(
        "size, patterns, expected",
        [
            ((7,), [cycle(4)], (9, 42047)),
            ((7,), [HSTAR], (13, 375871)),
            ((5, 5), [signed_cycle(4)], (12, 3319358)),
            ((5, 5), [SIGNED_HSTAR], (15, 7595868)),
            # 28 slots: 64 chunks of 2^22 hosts
            ((4, 7), [signed_cycle(4)], (13, 15095156)),
        ],
        ids=["ex7-c4", "ex7-hstar", "z55-c4", "z55-hstar", "z47-c4"],
    )
    def test_pinned_value_and_witness(self, size, patterns, expected):
        slots, masks, _ = extremal._instance(size, patterns)
        assert extremal.exhaustive_max_free(len(slots), masks) == expected

    @settings(max_examples=150, deadline=None)
    @given(mask_sets(), st.integers(0, 12))
    @example((0, []), 22)
    @example((0, [0]), 22)
    @example((5, [0]), 2)  # the empty mask rules out every host
    @example((4, [0b1, 0b1000]), 1)
    @example((12, [0b11, 0b1100, 1 << 11]), 3)
    def test_matches_a_scan_of_every_host(self, case, chunk_bits):
        nbits, masks = case
        # a small chunk splits the hosts into several chunks by their high bits
        with mock.patch.object(extremal, "_ORACLE_CHUNK_BITS", chunk_bits):
            assert extremal.exhaustive_max_free(nbits, masks) == scan_max_free(nbits, masks)

    def test_slot_cap(self):
        with pytest.raises(SizeExceeded):
            extremal.exhaustive_max_free(29, [1])


# Literature values, independent of the copy-mask front end both engines share.
A006855_EX_C4 = {1: 0, 2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9, 8: 11, 9: 13, 10: 16}
A001197_Z_C4 = {1: 1, 2: 3, 3: 6, 4: 9, 5: 12, 6: 16, 7: 21, 8: 24}
METHODS = ("oracle", "branch-and-bound")
# The first optimum in include-first order, pinned where the oracle cannot
# reach.  The plain search, without lex-leader constraints, reached the
# z(7, 7) witness in 518 s on a 2-vCPU VM and did not finish z(8, 8) in 600 s.
Z_C4_WITNESSES = {
    7: "sb:7:7:1110000100110010000110101010010010100110010010110",
    8: "sb:8:8:1111000010001100100000110100101001000101001010010010011000011000",
}
# ex(8) is at the oracle's 28-slot limit and ex(9) is beyond it; z(5, 5) is
# pinned in TestExhaustiveOracle, and z(6, 6) is beyond the oracle
EX_CASES = [(n, m) for n in A006855_EX_C4 for m in METHODS if n <= 8 or m != "oracle"]
Z_CASES = [(n, m) for n in A001197_Z_C4 for m in METHODS if n not in Z_C4_WITNESSES and (n < 5 or m != "oracle")]


class TestLiteratureOracle:
    @pytest.mark.parametrize("n, method", EX_CASES)
    def test_ex_c4_matches_oeis_a006855(self, n, method):
        assert exact_turan(n, [cycle(4)], method=method).value == A006855_EX_C4[n]

    @pytest.mark.parametrize("n, method", Z_CASES)
    def test_z_signed_c4_matches_oeis_a001197(self, n, method):
        assert exact_zarankiewicz(n, n, signed_cycle(4), method=method).value == A001197_Z_C4[n]

    @pytest.mark.parametrize("n", Z_C4_WITNESSES)
    def test_z_signed_c4_witness(self, n):
        rec = exact_zarankiewicz(n, n, signed_cycle(4))
        assert (rec.value, rec.witness) == (A001197_Z_C4[n], Z_C4_WITNESSES[n])


class TestSizeCheck:
    """Every query's size is checked once, at entry, before any copy mask is
    built: a negative class size, a host past embed's vertex limit, or one
    past the method's own limit."""

    @pytest.mark.parametrize("method", METHODS)
    def test_negative_sizes(self, no_masks, method):
        # both used to raise a bare ValueError from a graph constructor; m*n = 6
        # passed the cap
        with pytest.raises(PreconditionViolated):
            exact_turan(-1, [cycle(4)], method=method)
        with pytest.raises(PreconditionViolated):
            exact_zarankiewicz(-2, -3, signed_cycle(4), method=method)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("m, n", [(0, 100), (0, 66), (66, 0)])
    def test_host_past_the_vertex_limit(self, no_masks, method, m, n):
        # no slots and inside the m*n cap: K_{0,100} used to return 0
        with pytest.raises(SizeExceeded):
            exact_zarankiewicz(m, n, signed_cycle(4), method=method)

    @pytest.mark.parametrize("m, n", [(0, 65), (1, 64), (64, 1)])
    def test_host_at_the_vertex_limit(self, m, n):
        assert exact_zarankiewicz(m, n, signed_cycle(4)).value == m * n

    def test_oracle_takes_28_slots(self):
        # each was past the oracle's old caps of 7 vertices and 25 cells
        recs = [exact_turan(8, [HSTAR], method="oracle")]
        recs += [exact_zarankiewicz(m, n, signed_cycle(4), method="oracle") for m, n in ((4, 7), (2, 14))]
        assert [r.value for r in recs] == [16, 13, 15]
        for rec in recs:
            rec.validate()

    def test_oracle_refuses_29_slots_or_more(self, no_masks):
        # ex(9) is in TestExactTuran.test_input_guards
        for m, n in ((5, 6), (2, 15), (1, 29)):
            with pytest.raises(SizeExceeded):
                exact_zarankiewicz(m, n, signed_cycle(4), method="oracle")


# Every host size inside the caps: K_n to n = 10, and K_{m,n} to m*n = 64 and
# 65 vertices (the (0, n) and (m, 0) hosts have no slots).
K_N_SIZES = [(n,) for n in range(11)]
K_MN_SIZES = [(m, n) for m in range(66) for n in range(66 - m) if m * n <= 64]


class TestHostByClasses:
    """The host is described once, by its vertex classes; its slots and
    lex-leader rows agree with the two kinds' own closed forms."""

    def test_slots_are_the_host_graphs_sorted_edges(self):
        for size in K_N_SIZES:
            assert extremal._slots(size) == list(complete(*size).sorted_edges), size
        for size in K_MN_SIZES:
            assert extremal._slots(size) == list(signed_complete_bipartite(*size).as_unsigned().sorted_edges), size

    @staticmethod
    def reference_lex_orders(size, slots):
        """K_n: row i beats row i+1 with columns i and i+1 left out; K_{m,n}:
        its adjacent rows, then its adjacent columns."""
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

    def test_lex_orders_match_the_closed_forms(self):
        assert {(1, 64), (64, 1), (0, 65), (8, 8)} <= set(K_MN_SIZES)
        for size in K_N_SIZES + K_MN_SIZES:
            slots = extremal._slots(size)
            assert extremal._lex_orders(size, slots) == self.reference_lex_orders(size, slots), size

    def test_small_host_is_the_classwise_maximum(self):
        # C4 has sides (2, 2), the star (1, 3): the copies are enumerated in K_{2,3}
        with mock.patch.object(extremal, "_copy_masks", wraps=extremal._copy_masks) as spy:
            extremal._instance((4, 5), [signed_cycle(4), signed_star(3)])
        assert spy.call_args.args[0] == (2, 3)


class TestDegenerateSizes:
    @pytest.mark.parametrize("method", METHODS)
    def test_turan(self, method):
        got = [exact_turan(n, [cycle(4)], method=method) for n in (0, 1, 2)]
        assert [(r.value, r.witness) for r in got] == [(0, "?"), (0, "@"), (1, "A_")]

    @pytest.mark.parametrize("method", METHODS)
    def test_zarankiewicz(self, method):
        got = [exact_zarankiewicz(m, n, signed_cycle(4), method=method) for m, n in ((0, 3), (3, 0), (0, 0), (1, 1))]
        assert [r.witness for r in got] == ["sb:0:3:", "sb:3:0:", "sb:0:0:", "sb:1:1:1"]
        assert [r.value for r in got] == [0, 0, 0, 1]


@st.composite
def unsigned_patterns(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return LabeledGraph(k, draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))


@st.composite
def signed_patterns(draw):
    a = draw(st.integers(min_value=1, max_value=3))
    b = draw(st.integers(min_value=1, max_value=3))
    cells = [(p, q) for p in range(a) for q in range(b)]
    edges = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    return SignedBipartiteGraph(a, b, edges)


class TestVertexDeletionBound:
    """The caps, the limit and the lex-leader constraints only prune: every
    branch-and-bound call, the sub-solves on smaller hosts included, returns
    what the plain search returns, witness included, and the oracle's
    value."""

    @staticmethod
    def solve_checked(solve):
        plain = extremal.branch_and_bound_max_free
        bounded_calls = []

        def checked(nbits, masks, caps=(), limit=None, lex=()):
            got = plain(nbits, masks, caps, limit, lex=lex)
            assert got == plain(nbits, masks)
            assert got[0] == extremal.exhaustive_max_free(nbits, masks)[0]
            bounded_calls.append(bool(caps))
            return got

        with mock.patch.object(extremal, "branch_and_bound_max_free", checked):
            rec = solve()
        return rec, bounded_calls

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.lists(unsigned_patterns(), min_size=1, max_size=2))
    def test_turan(self, n, patterns):
        rec, bounded = self.solve_checked(lambda: exact_turan(n, patterns))
        assert rec.value == exact_turan(n, patterns, method="oracle").value
        assert bounded[-1] or rec.value == n * (n - 1) // 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), signed_patterns())
    def test_zarankiewicz(self, m, n, h):
        rec, bounded = self.solve_checked(lambda: exact_zarankiewicz(m, n, h))
        assert rec.value == exact_zarankiewicz(m, n, h, method="oracle").value
        assert bounded[-1] or rec.value == m * n


def test_copies_are_enumerated_on_every_call(monkeypatch):
    """The front end keeps no table across calls: a repeated query with
    fresh pattern objects enumerates the small host's copies again."""
    calls = []

    def spy(h, g):
        calls.append(h)
        return enumerate_copies(h, g)

    monkeypatch.setattr(extremal, "enumerate_copies", spy)
    counts = []
    for _ in range(2):
        before = len(calls)
        exact_zarankiewicz(5, 5, signed_glue(GluingSpec(((signed_cycle(4), (0, 0)),) * 2)))
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] > 0


class TestDeleteVertex:
    """The instance of the host one vertex smaller, derived from the larger
    one, is the one `_instance` builds from scratch."""

    @staticmethod
    def assert_derived(size, smaller, v, patterns):
        derived_slots, derived_masks = extremal._delete_vertex(*extremal._instance(size, patterns)[:2], v)
        slots, masks, _ = extremal._instance(smaller, patterns)
        assert list(derived_slots) == list(slots)
        assert sorted(derived_masks) == sorted(masks)

    @pytest.mark.parametrize("patterns", [[cycle(4)], [HSTAR], [cycle(4), complete(4)]], ids=["c4", "hstar", "c4+k4"])
    def test_turan(self, patterns):
        for n in range(1, 9):
            self.assert_derived((n,), (n - 1,), n - 1, patterns)

    @pytest.mark.parametrize("h", [signed_cycle(4), SIGNED_HSTAR], ids=["c4", "hstar"])
    def test_zarankiewicz(self, h):
        for m in range(1, 6):
            for n in range(1, 6):
                self.assert_derived((m, n), (m - 1, n), m - 1, [h])
                self.assert_derived((m, n), (m, n - 1), m + n - 1, [h])

    @staticmethod
    def reference(slots, masks, v):
        """The re-pack as first written: every kept slot tested in every mask."""
        kept = [k for k, e in enumerate(slots) if v not in e]
        at_v = sum(1 << k for k, e in enumerate(slots) if v in e)
        sub_slots = [(a - (a > v), b - (b > v)) for a, b in (slots[k] for k in kept)]
        return sub_slots, [sum(1 << j for j, k in enumerate(kept) if c >> k & 1) for c in masks if not c & at_v]

    @staticmethod
    def benchmark_instances():
        """(size, patterns) of the benchmark's sweep and proof queries."""
        connected = {}
        for k in (4, 5):
            pairs = list(combinations(range(k), 2))
            for bits in range(1 << len(pairs)):
                g = LabeledGraph(k, [e for i, e in enumerate(pairs) if bits >> i & 1])
                if len(set(component_roots(k, g.edges))) == 1:
                    connected.setdefault(canonical_form(g), g)
        graphs = list(connected.values())
        for h in graphs:
            for n in range(h.vertex_count, 8 if h.vertex_count == 4 else 7):
                yield (n,), [h]
        for a, b in combinations([h for h in graphs if h.vertex_count == 4], 2):
            for n in range(4, 8):
                yield (n,), [a, b]
        signed = [signed_cycle(4), signed_cycle(6), signed_star(2), signed_star(3), SIGNED_HSTAR]
        signed += [SignedBipartiteGraph(2, 3, [(p, q) for p in range(2) for q in range(3)])]
        signed += [SignedBipartiteGraph(h.minus_count, h.plus_count, [(q, p) for p, q in h.edges]) for h in signed]
        for h in signed:
            for m in range(2, 5):
                for n in range(m, 5):
                    yield (m, n), [h]
        yield (8,), [cycle(4)]
        yield (7,), [HSTAR]
        yield (5, 5), [signed_cycle(4)]
        yield (5, 5), [SIGNED_HSTAR]

    def test_matches_the_reference_formula(self):
        count = 0
        for size, patterns in self.benchmark_instances():
            slots, masks, _ = extremal._instance(size, patterns)
            # the last vertex of K_n, or of either side of K_{m,n}
            for v in {size[0] - 1, sum(size) - 1}:
                assert extremal._delete_vertex(slots, masks, v) == self.reference(slots, masks, v)
                count += 1
        # 6 and 21 connected graphs on 4 and 5 vertices, 15 pairs, 12 signed
        # patterns on 6 hosts with two deletions each, 6 proof deletions
        assert count == 6 * 4 + 21 * 2 + 15 * 4 + 12 * 6 * 2 + 6


class TestWitnessCheck:
    @pytest.mark.parametrize("engine", ["branch_and_bound_max_free", "exhaustive_max_free"])
    def test_witness_with_a_copy_is_rejected(self, monkeypatch, engine):
        monkeypatch.setattr(extremal, engine, lambda nbits, masks, *rest, **options: (nbits, (1 << nbits) - 1))
        method = "oracle" if engine == "exhaustive_max_free" else "branch-and-bound"
        with pytest.raises(InvariantViolation):
            exact_turan(5, [cycle(4)], method=method)
        with pytest.raises(InvariantViolation):
            exact_zarankiewicz(3, 3, signed_cycle(4), method=method)

    def test_witness_with_the_wrong_edge_count_is_rejected(self, monkeypatch):
        engine = lambda nbits, masks, *rest, **options: (1, 0)  # noqa: E731
        monkeypatch.setattr(extremal, "branch_and_bound_max_free", engine)
        with pytest.raises(InvariantViolation):
            exact_turan(5, [cycle(4)])

    @pytest.mark.parametrize(
        "solve",
        [lambda: exact_turan(6, [cycle(4)]), lambda: exact_zarankiewicz(4, 4, signed_cycle(4))],
        ids=["turan", "zarankiewicz"],
    )
    def test_value_search_that_over_reports_is_caught(self, monkeypatch, solve):
        # every call, sub-solves included, claims one edge more than its witness
        plain = extremal.branch_and_bound_max_free

        def over_reporting(nbits, masks, *rest, lex=(), **options):
            value, witness = plain(nbits, masks, *rest, lex=lex, **options)
            return (value + 1 if lex else value), witness

        monkeypatch.setattr(extremal, "branch_and_bound_max_free", over_reporting)
        with pytest.raises(InvariantViolation, match="branch-and-bound witness"):
            solve()


@st.composite
def instances(draw):
    """Slots and copy masks from `_instance`: K_n or the signed K_{m,n}, one
    or two patterns, at most 12 slots."""
    if draw(st.booleans()):
        size = (draw(st.integers(2, 5)),)
        patterns = draw(st.lists(unsigned_patterns(), min_size=1, max_size=2))
    else:
        m = draw(st.integers(1, 4))
        size = (m, draw(st.integers(1, 12 // m)))
        patterns = draw(st.lists(signed_patterns(), min_size=1, max_size=2))
    return size, patterns


class TestWitnessContract:
    """`_bnb` returns the first optimum in include-first order, checked by a
    scan of every host that shares no code with the DFS."""

    @settings(max_examples=120, deadline=None)
    @given(instances())
    @example(((5,), [cycle(4)]))
    @example(((3, 4), [signed_cycle(4)]))
    @example(((5,), [cycle(4), path(4)]))
    def test_matches_a_scan_of_every_host(self, case):
        size, patterns = case
        slots, masks, _ = extremal._instance(size, patterns)
        assert extremal._bnb(size, slots, masks, {}) == scan_first_optimum(len(slots), masks)


# The signed patterns of the benchmark's sweep, as (plus, minus, edges).
SWEEP_SIGNED = {
    "c4": (2, 2, ((0, 0), (1, 1), (0, 1), (1, 0))),
    "c6": (3, 3, ((0, 0), (1, 1), (2, 2), (0, 2), (1, 0), (2, 1))),
    "k2,3": (2, 3, tuple((p, q) for p in range(2) for q in range(3))),
    "s2+": (1, 2, ((0, 0), (0, 1))),
    "s2-": (2, 1, ((0, 0), (1, 0))),
    "s3+": (1, 3, ((0, 0), (0, 1), (0, 2))),
    "s3-": (3, 1, ((0, 0), (1, 0), (2, 0))),
    "h*": (3, 3, ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 2))),
}


def side_swap(h: SignedBipartiteGraph) -> SignedBipartiteGraph:
    return SignedBipartiteGraph(h.minus_count, h.plus_count, [(q, p) for p, q in h.edges])


class TestSideSwapSharing:
    """`_bnb` answers z(b, a) from z(a, b) only when the patterns are their
    own side swap, and the sharing changes no value and no witness."""

    @pytest.mark.parametrize("name", SWEEP_SIGNED)
    def test_same_value_and_witness_as_a_plain_memo(self, name):
        h = SignedBipartiteGraph(*SWEEP_SIGNED[name])
        top = 6 if name == "c4" else 5
        for m in range(1, top + 1):
            for n in range(1, top + 1):
                slots, masks, swap = extremal._instance((m, n), [h])
                shared = extremal._bnb((m, n), slots, masks, {}, swap)
                assert shared == extremal._bnb((m, n), slots, masks, {})

    @pytest.mark.parametrize("name", SWEEP_SIGNED)
    def test_flag_is_isomorphism_to_the_side_swap(self, name):
        h = SignedBipartiteGraph(*SWEEP_SIGNED[name])
        swap = extremal._instance((3, 3), [h])[2]
        assert swap == (canonical_form(side_swap(h)) == canonical_form(h))
        assert swap == (name in ("c4", "c6", "h*"))

    def test_flag_of_a_family(self):
        # {s2+, s2-} is its own side swap though neither member is
        family = [signed_star(2), signed_star(2, center_plus=False)]
        assert extremal._instance((3, 3), family)[2]
        assert not extremal._instance((3, 3), family[:1])[2]

    def test_k23_never_shares(self):
        h = SignedBipartiteGraph(*SWEEP_SIGNED["k2,3"])
        slots, masks, swap = extremal._instance((4, 4), [h])
        memo = {}
        extremal._bnb((4, 4), slots, masks, memo, swap)
        assert not swap
        assert (memo[2, 3], memo[3, 2]) == (5, 6)

    def test_fewer_sub_solves(self):
        slots, masks, swap = extremal._instance((5, 5), [signed_cycle(4)])
        calls = []
        for share in (swap, False):
            with mock.patch.object(extremal, "_delete_vertex", wraps=extremal._delete_vertex) as spy:
                assert extremal._bnb((5, 5), slots, masks, {}, share)[0] == 12
            calls.append(spy.call_count)
        # one sub-solve per transposed pair of the 23 sizes reached below (5, 5)
        assert calls == [13, 23]


class TestPinnedPairs:
    """The (value, witness) pairs of the benchmark's queries: the 174 sweep
    queries, the 6 proof jobs and ex(8, H*), each with its inputs, as the
    search returned them when `tests/data/extremal_pairs.json` was written."""

    def test_every_pair(self):
        cases = json.loads((Path(__file__).resolve().parent / "data" / "extremal_pairs.json").read_text())
        assert len(cases) == 181
        for case in cases:
            if case["kind"] == "ex":
                forbidden = [LabeledGraph(k, [tuple(e) for e in edges]) for k, edges in case["forbidden"]]
                rec = exact_turan(case["size"][0], forbidden, method=case["method"])
            else:
                plus, minus, edges = case["pattern"]
                h = SignedBipartiteGraph(plus, minus, [tuple(e) for e in edges])
                rec = exact_zarankiewicz(*case["size"], h, method=case["method"])
            assert (rec.value, rec.witness) == (case["value"], case["witness"]), case


class TestRatioReport:
    def test_c4_rows(self):
        rows = ratio_report(cycle(4), [4, 5])
        assert (rows[0].ex, rows[0].z) == (4, 9)
        assert str(rows[0].ratio) == "4/9"
        assert (rows[1].ex, rows[1].z) == (6, 12)
        assert str(rows[1].ratio) == "1/2"

    def test_forbidden_edge_gives_undefined_ratio(self):
        rows = ratio_report(LabeledGraph(2, [(0, 1)]), [2])
        assert rows[0].ex == 0 and rows[0].z == 0 and rows[0].ratio is None

    def test_oversized_rows_are_skipped(self):
        rows = ratio_report(cycle(4), [4, 50])
        assert not rows[0].skipped and rows[1].skipped

    def test_bipartition_and_signing(self):
        assert bipartition(cycle(4)) == ([0, 2], [1, 3])
        assert bipartition(cycle(3)) is None
        sg = sign_graph(cycle(4))
        assert (sg.plus_count, sg.minus_count, sg.edge_count) == (2, 2, 4)
        with pytest.raises(InfeasibleInput):
            sign_graph(cycle(3))


class TestRecordStore:
    def test_round_trip(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        rec = exact_turan(4, [cycle(4)])
        store_record(path_, rec)
        loaded = load_records(path_, kind="turan")
        assert loaded == [rec]
        hit = lookup(path_, "turan", forbidden_certificates([cycle(4)]), (4,))
        assert hit == rec

    def test_duplicates_keep_earliest(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        first = exact_turan(4, [cycle(4)])
        second = dataclasses.replace(first, timestamp="later")
        store_record(path_, first)
        store_record(path_, second)
        assert load_records(path_) == [first]

    def test_tampered_record_rejected_on_store(self, tmp_path):
        rec = exact_turan(4, [cycle(4)])
        bad = dataclasses.replace(rec, value=rec.value + 1)
        with pytest.raises(InvariantViolation):
            store_record(tmp_path / "r.jsonl", bad)
        # witness containing a forbidden pattern is also rejected
        bad2 = dataclasses.replace(
            exact_turan(4, [cycle(4)]), witness="C]", value=4
        )
        with pytest.raises(InvariantViolation):
            store_record(tmp_path / "r.jsonl", bad2)

    def test_checksum_mismatch(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        store_record(path_, exact_turan(4, [cycle(4)]))
        text = path_.read_text().replace('"value":4', '"value":5')
        path_.write_text(text)
        with pytest.raises(CorruptStore):
            load_records(path_)

    def test_unreadable_line(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        path_.write_text("this is not json\n")
        with pytest.raises(CorruptStore):
            load_records(path_)

    def test_store_line_with_graph6_z_witness_still_hits(self, tmp_path):
        # a line as stores held it before z witnesses switched to sb:
        path_ = tmp_path / "records.jsonl"
        path_.write_text(
            '{"crc32":3799170446,"record":{"forbidden":["sb:2:2:1111"],"kind":"zarankiewicz",'
            '"method":"branch-and-bound","runtime_ms":1,"seed":null,"size":[3,3],'
            '"timestamp":"2026-01-01T00:00:00+00:00","value":6,"witness":"EEh_"}}\n'
        )
        assert len(load_records(path_)) == 1
        hit = lookup(path_, "zarankiewicz", ["sb:2:2:1111"], (3, 3))
        assert hit is not None and hit.value == 6
        w = hit.witness_graph()
        assert (w.plus_count, w.minus_count) == (3, 3)
        assert w == exact_zarankiewicz(3, 3, signed_cycle(4)).witness_graph()
        hit.validate()

    @staticmethod
    def torn_store(path_):
        """A store whose last append was cut short."""
        store_record(path_, exact_turan(4, [cycle(4)]))
        store_record(path_, exact_turan(5, [cycle(4)]))
        text = path_.read_text()
        path_.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])

    def test_torn_last_line_is_skipped(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        self.torn_store(path_)
        assert [r.size for r in load_records(path_)] == [(4,)]
        assert lookup(path_, "turan", forbidden_certificates([cycle(4)]), (5,)) is None

    def test_append_after_a_torn_last_line(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        self.torn_store(path_)
        store_record(path_, exact_turan(6, [cycle(4)]))
        assert [r.size for r in load_records(path_)] == [(4,), (6,)]
        assert path_.read_text().endswith("\n")

    def test_complete_last_line_without_newline_is_kept(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        store_record(path_, exact_turan(4, [cycle(4)]))
        path_.write_text(path_.read_text().rstrip("\n"))
        assert len(load_records(path_)) == 1
        store_record(path_, exact_turan(5, [cycle(4)]))
        assert [r.size for r in load_records(path_)] == [(4,), (5,)]

    def test_bad_line_inside_the_file_is_corruption(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        self.torn_store(path_)
        with path_.open("a") as fh:
            fh.write("\n")
        store_record(path_, exact_turan(6, [cycle(4)]))
        with pytest.raises(CorruptStore):
            load_records(path_)

    def test_empty_store(self, tmp_path):
        assert load_records(tmp_path / "missing.jsonl") == []

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {**exact_turan(4, [cycle(4)]).to_dict(), "size": 4},
            [],
            {**exact_turan(4, [cycle(4)]).to_dict(), "kind": []},
            {**exact_turan(4, [cycle(4)]).to_dict(), "value": "6"},
            {**exact_turan(4, [cycle(4)]).to_dict(), "witness": 7},
            {**exact_turan(4, [cycle(4)]).to_dict(), "kind": 5},
            {**exact_turan(4, [cycle(4)]).to_dict(), "method": None},
            {**exact_turan(4, [cycle(4)]).to_dict(), "forbidden": "abc"},
            {**exact_turan(4, [cycle(4)]).to_dict(), "size": ["5"]},
            {**exact_turan(4, [cycle(4)]).to_dict(), "value": True},
        ],
        ids=[
            "no-fields",
            "size-not-a-list",
            "not-an-object",
            "unhashable-kind",
            "value-a-string",
            "witness-an-int",
            "kind-an-int",
            "method-null",
            "forbidden-a-string",
            "size-of-strings",
            "value-true",
        ],
    )
    def test_malformed_record_is_corruption(self, tmp_path, payload):
        path_ = tmp_path / "records.jsonl"
        store_record(path_, exact_turan(4, [cycle(4)]))
        with path_.open("a") as fh:
            fh.write(stored_line(payload))
        with corrupt_at(path_, "2: malformed record"):
            load_records(path_)
        with corrupt_at(path_, "2: malformed record"):
            lookup(path_, "turan", forbidden_certificates([cycle(4)]), (4,))

    def test_unterminated_last_line_is_still_checked(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        store_record(path_, exact_turan(4, [cycle(4)]))
        line = stored_line(exact_turan(5, [cycle(4)]).to_dict()).rstrip("\n")
        with path_.open("a") as fh:
            fh.write(line.replace('"method":"', '"method":"x', 1))
        with corrupt_at(path_, "2: checksum mismatch"):
            load_records(path_)

    def test_unterminated_duplicate_is_dropped(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        first = exact_turan(4, [cycle(4)])
        store_record(path_, first)
        with path_.open("a") as fh:
            fh.write(stored_line(dataclasses.replace(first, timestamp="later").to_dict()).rstrip("\n"))
        assert load_records(path_) == [first]
        assert lookup(path_, "turan", forbidden_certificates([cycle(4)]), (4,)) == first

    def test_non_utf8_line(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        store_record(path_, exact_turan(4, [cycle(4)]))
        with path_.open("ab") as fh:
            fh.write(b"\xff\xfe")
        assert [r.size for r in load_records(path_)] == [(4,)]  # a torn last line
        with path_.open("ab") as fh:
            fh.write(b"\n")
        with corrupt_at(path_, "2: unreadable line"):
            load_records(path_)

    def test_crlf_line_ends(self, tmp_path):
        path_ = tmp_path / "records.jsonl"
        store_record(path_, exact_turan(4, [cycle(4)]))
        store_record(path_, exact_turan(5, [cycle(4)]))
        path_.write_bytes(path_.read_bytes().replace(b"\n", b"\r\n"))
        assert [r.size for r in load_records(path_)] == [(4,), (5,)]


def corrupt_at(path_, where: str):
    """pytest.raises for a CorruptStore whose message is exactly `path_:where`."""
    return pytest.raises(CorruptStore, match=f"^{re.escape(f'{path_}:{where}')}$")


def stored_line(payload) -> str:
    """A store line for `payload` with a valid checksum, as `store_record`
    writes it."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    line = {"crc32": zlib.crc32(body.encode()), "record": payload}
    return json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"


class TestStoreReload:
    """Load, change the file behind the store's back, load again."""

    C4 = forbidden_certificates([cycle(4)])

    @staticmethod
    def sizes(path_):
        return [r.size for r in load_records(path_)]

    @staticmethod
    def filled(path_, *ns):
        for n in ns:
            store_record(path_, exact_turan(n, [cycle(4)]))
        return path_

    def test_unchanged_lines_are_parsed_once(self, tmp_path):
        path_ = self.filled(tmp_path / "records.jsonl", 3, 4, 5)
        with mock.patch.object(
            ExtremalRecord, "from_dict", side_effect=ExtremalRecord.from_dict
        ) as from_dict:
            for _ in range(3):
                assert self.sizes(path_) == [(3,), (4,), (5,)]
                assert lookup(path_, "turan", self.C4, (4,)).size == (4,)
            assert from_dict.call_count == 3
            self.filled(path_, 6)
            assert self.sizes(path_) == [(3,), (4,), (5,), (6,)]
            assert from_dict.call_count == 4

    def test_raw_append_by_another_writer_is_seen(self, tmp_path):
        path_ = self.filled(tmp_path / "records.jsonl", 4)
        assert lookup(path_, "turan", self.C4, (5,)) is None
        with path_.open("a") as fh:
            fh.write(stored_line(exact_turan(5, [cycle(4)]).to_dict()))
        assert lookup(path_, "turan", self.C4, (5,)).value == exact_turan(5, [cycle(4)]).value
        assert self.sizes(path_) == [(4,), (5,)]

    def test_same_size_checksum_edit_in_place(self, tmp_path, monkeypatch):
        path_ = self.filled(tmp_path / "records.jsonl", 3, 4, 5)
        assert self.sizes(path_) == [(3,), (4,), (5,)]
        lines = [bytearray(x) for x in path_.read_bytes().split(b"\n")]
        at = lines[1].index(b',"record":') - 1  # last digit of the checksum
        lines[1][at] ^= 1  # '0' <-> '1', '2' <-> '3', ...
        before = os.stat(path_)
        with path_.open("r+b") as fh:
            fh.write(b"\n".join(lines))
        assert os.stat(path_).st_size == before.st_size
        os.utime(path_, ns=(before.st_atime_ns, before.st_mtime_ns))  # same mtime tick
        with pytest.raises(CorruptStore) as cached:
            load_records(path_)
        monkeypatch.setattr(store, "_INDEX", {})
        with pytest.raises(CorruptStore) as fresh:
            load_records(path_)
        assert str(cached.value) == str(fresh.value) == f"{path_}:2: checksum mismatch"

    def test_truncation_to_a_torn_line(self, tmp_path):
        path_ = self.filled(tmp_path / "records.jsonl", 3, 4, 5)
        assert self.sizes(path_) == [(3,), (4,), (5,)]
        text = path_.read_bytes()
        path_.write_bytes(text[: text.rindex(b"\n", 0, -1) - 10])
        assert self.sizes(path_) == [(3,)]
        assert lookup(path_, "turan", self.C4, (4,)) is None

    def test_delete_and_recreate(self, tmp_path):
        path_ = self.filled(tmp_path / "records.jsonl", 3, 4)
        assert self.sizes(path_) == [(3,), (4,)]
        path_.unlink()
        assert self.sizes(path_) == []
        self.filled(path_, 5)
        assert self.sizes(path_) == [(5,)]
        assert lookup(path_, "turan", self.C4, (3,)) is None

    def test_replaced_by_a_shorter_file(self, tmp_path):
        path_ = self.filled(tmp_path / "records.jsonl", 3, 4, 5)
        assert self.sizes(path_) == [(3,), (4,), (5,)]
        other = self.filled(tmp_path / "other.jsonl", 6)
        os.replace(other, path_)
        assert self.sizes(path_) == [(6,)]
        assert lookup(path_, "turan", self.C4, (3,)) is None

    def test_failed_parse_leaves_the_index_as_it_was(self, tmp_path):
        path_ = self.filled(tmp_path / "records.jsonl", 3)
        assert self.sizes(path_) == [(3,)]
        indexed = path_.read_bytes()
        with path_.open("a") as fh:  # a good line, then a bad one
            fh.write(stored_line(exact_turan(4, [cycle(4)]).to_dict()) + "garbage\n")
        with corrupt_at(path_, "3: unreadable line"):
            load_records(path_)
        path_.write_bytes(indexed)  # the good line goes too; the indexed lines stay
        self.filled(path_, 5)
        assert self.sizes(path_) == [(3,), (5,)]
        assert lookup(path_, "turan", self.C4, (4,)) is None

    def test_corrupt_file_raises_on_every_call(self, tmp_path):
        path_ = self.filled(tmp_path / "records.jsonl", 3)
        assert self.sizes(path_) == [(3,)]
        with path_.open("a") as fh:
            fh.write("garbage\n")
        self.filled(path_, 4)
        for _ in range(3):
            with corrupt_at(path_, "2: unreadable line"):
                load_records(path_)
            with corrupt_at(path_, "2: unreadable line"):
                lookup(path_, "turan", self.C4, (3,))
        path_.write_text(path_.read_text().replace("garbage\n", ""))
        assert self.sizes(path_) == [(3,), (4,)]


def reference_load(path_) -> list[ExtremalRecord]:
    """The store's reading rules, parsed the plain way: the whole file in text
    mode, line by line, on every call."""
    if not os.path.exists(path_):
        return []
    out, seen = [], set()
    with open(path_, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                payload, crc = obj["record"], obj["crc32"]
            except (ValueError, KeyError, TypeError) as exc:
                if not raw.endswith("\n"):
                    break  # torn last line
                raise CorruptStore(f"{path_}:{lineno}: unreadable line") from exc
            body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            if zlib.crc32(body.encode()) != crc:
                raise CorruptStore(f"{path_}:{lineno}: checksum mismatch")
            try:
                rec = ExtremalRecord.from_dict(payload)
                new = rec.key() not in seen
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptStore(f"{path_}:{lineno}: malformed record") from exc
            if new:
                seen.add(rec.key())
                out.append(rec)
    return out


def _outcome(load, path_):
    try:
        return load(path_)
    except CorruptStore as exc:
        return str(exc)


STORE_RECORDS = [exact_turan(n, [cycle(4)]) for n in (3, 4, 5)] + [
    exact_zarankiewicz(2, 3, signed_cycle(4)),
    dataclasses.replace(exact_turan(4, [cycle(4)]), timestamp="later"),
]
RAW_LINES = [stored_line(r.to_dict()).encode() for r in STORE_RECORDS] + [
    stored_line({}).encode(),
    stored_line({**STORE_RECORDS[0].to_dict(), "kind": []}).encode(),
    b"garbage\n",
    b"\n",
    b" \t\n",
]
# ASCII only: text mode would also break a line at a bare "\r" and fail on
# bytes that are not UTF-8, where the store reads lines ending at "\n"
# (test_crlf_line_ends, test_non_utf8_line)
FLIP_BYTES = [b for b in range(0x20, 0x7F)] + [0x0A]
POSITIONS = st.integers(-300, -1) | st.integers(0, 10**4)
STORE_STEPS = st.one_of(
    st.tuples(st.just("store"), st.integers(0, len(STORE_RECORDS) - 1)),
    # raw lines by another writer, the last one cut at `cut` (-1: no newline)
    st.tuples(
        st.just("append"),
        st.lists(st.sampled_from(RAW_LINES), min_size=1, max_size=3),
        st.none() | st.just(-1) | st.integers(0, 300),
    ),
    st.tuples(st.just("tear"), st.integers(0, 300)),
    # at any byte, or near the end: a negative position counts from there
    st.tuples(st.just("flip"), POSITIONS, st.sampled_from(FLIP_BYTES)),
    st.tuples(st.just("truncate"), POSITIONS),
    st.tuples(st.just("delete")),
)


def apply_step(path_, step):
    op, *args = step
    data = bytearray(path_.read_bytes()) if path_.exists() else bytearray()
    if op == "store":
        store_record(path_, STORE_RECORDS[args[0]])
        return
    if op == "delete":
        if path_.exists():
            path_.unlink()
        return
    if op == "append":
        lines, cut = args
        data += b"".join(lines[:-1]) + lines[-1][:cut]
    elif op == "tear":  # cut the last line short
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        del data[start + args[0] % max(1, len(data) - start) :]
    elif op == "flip" and data:
        data[args[0] % len(data)] = args[1]
    elif op == "truncate":
        del data[args[0] % (len(data) + 1) :]
    path_.write_bytes(data)


class TestStoreAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(STORE_STEPS, max_size=20))
    def test_every_step_matches_a_full_text_parse(self, steps):
        with tempfile.TemporaryDirectory() as d:
            path_ = Path(d) / "records.jsonl"
            for step in steps:
                apply_step(path_, step)
                expected = _outcome(reference_load, path_)
                assert _outcome(load_records, path_) == expected, step
                for rec in STORE_RECORDS:
                    hit = _outcome(lambda p: lookup(p, rec.kind, rec.forbidden, rec.size), path_)
                    if isinstance(expected, str):
                        assert hit == expected, step
                    else:
                        assert hit == next((r for r in expected if r.key() == rec.key()), None), step
