"""Command-line surface: dispatch, exit codes, caching, and determinism."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeglue.cli import main


# a store line whose checksum is valid but whose record has no fields
MALFORMED_STORE = '{"crc32":2745614147,"record":{}}\n'
# 10^400, past the float range, and a threshold query short of its rationals
HUGE = "1" + "0" * 400
THRESHOLD = ("threshold", "--n", "5", "--pattern", "c4", "--root-edge", "0")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    def test_ex_subcommand(self, capsys):
        code, out, _ = run(capsys, "ex", "--n", "4", "--forbid", "c4")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 4
        assert payload["witness"]

    def test_zex_subcommand(self, capsys):
        code, out, _ = run(capsys, "zex", "--m", "3", "--n", "3", "--pattern", "c4")
        assert code == 0
        assert json.loads(out)["value"] == 6

    def test_zex_seven_by_seven(self, capsys):
        # z(7, 7; C4) = 21 (OEIS A001197), with the first optimum in
        # include-first order as its witness
        code, out, _ = run(capsys, "zex", "--m", "7", "--n", "7", "--pattern", "c4")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 21
        assert payload["witness"] == "sb:7:7:1110000100110010000110101010010010100110010010110"

    def test_glue_c4_c4_single_line(self, capsys):
        code, out, _ = run(capsys, "glue", "--a", "c4", "--ea", "0", "--b", "c4", "--eb", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_count_subcommand(self, capsys):
        code, out, _ = run(capsys, "count", "--pattern", "c4", "--host", "k2,3")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"embeddings": 24, "copies": 3}

    def test_exponent_prints_rational_string(self, capsys):
        code, out, _ = run(
            capsys, "exponent", "--alpha", "1/2", "--pattern", "c4", "--root-edge", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"alpha_prime": "1/2", "branch": 2}

    def test_threshold_reports_branches(self, capsys):
        code, out, _ = run(
            capsys,
            "threshold", "--n", "100", "--alpha", "1/2", "--gamma", "1",
            "--pattern", "c4", "--root-edge", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dominating_branch"] == 2
        assert payload["branch1_n_exponent"] == "-2/3"
        assert payload["branch2_n_exponent"] == "-1/2"


class TestExitCodes:
    def test_domain_error_is_exit_1_with_json_stderr(self, capsys):
        code, _, err = run(capsys, "ex", "--n", "99", "--forbid", "c4")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "SizeExceeded"

    @pytest.mark.parametrize("method", ["oracle", "branch-and-bound"])
    @pytest.mark.parametrize("with_store", [False, True])
    def test_host_past_the_vertex_limit_is_exit_1(self, capsys, tmp_path, method, with_store):
        # K_{0,100} has no slots and passes the m*n cap; it used to print 0, or,
        # with a store, fail only when the record's witness was checked
        argv = ["zex", "--m", "0", "--n", "100", "--pattern", "c4", "--method", method]
        if with_store:
            argv += ["--store", str(tmp_path / "store.jsonl")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "SizeExceeded"

    def test_store_takes_a_pattern_too_large_to_fit(self, capsys, tmp_path):
        # without --store this printed 10; with it, checking the record failed
        argv = ("ex", "--n", "5", "--forbid", "c14", "--store", str(tmp_path / "store.jsonl"))
        assert [json.loads(run(capsys, *argv)[1])["method"] for _ in range(2)] == ["branch-and-bound", "cached"]

    @pytest.mark.parametrize("c", ["-1", "0"])
    def test_threshold_constant_must_be_positive(self, capsys, c):
        code, out, err = run(
            capsys,
            "threshold", "--n", "10", "--alpha", "1/2", "--gamma", "1/2", "--c", c,
            "--pattern", "c4", "--root-edge", "0",
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "PreconditionViolated"

    def test_parse_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, "count", "--pattern", "??bogus??", "--host", "c4")
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    def test_usage_error_is_exit_2(self, capsys):
        assert run(capsys, "count", "--pattern", "c4")[0] == 2
        assert run(capsys, "no-such-command")[0] == 2
        # the retired ex/z ratio table
        code, out, err = run(capsys, "ratio", "--pattern", "c4", "--sizes", "4,5")
        assert (code, out) == (2, "") and "invalid choice: 'ratio'" in err

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("verify", "--family", "MISSING"), "EdgeGlueError"),
            (("glue", "--a", "c4", "--ea", "9", "--b", "c4", "--eb", "0"), "EdgeNotInGraph"),
            (("construct", "--kind", "gnp", "--n", "5", "--seed", "1"), "EdgeGlueError"),
            (("zex", "--m", "2", "--n", "2", "--pattern", "c3"), "ParseError"),
            (("verify", "--family", "NOHOST"), "ParseError"),
            (("verify", "--family", "LIST"), "ParseError"),
            (("construct", "--kind", "deletion", "--n", "0", "--forbid", "c4", "--seed", "0"),
             "PreconditionViolated"),
            (("exponent", "--alpha", "0", "--pattern", "k0,2", "--root-vertices", "0"),
             "InvalidRootedPattern"),
            (("ex", "--n", "3", "--forbid", "c4", "--store", "DIR"), "IsADirectoryError"),
            (("ex", "--n", "3", "--forbid", "c4", "--store", "MISSING/x"), "FileNotFoundError"),
            (("cache", "--store", "MALFORMED"), "CorruptStore"),
            (("ex", "--n", "4", "--forbid", "c4", "--store", "MALFORMED"), "CorruptStore"),
            (("cache", "--store", "NONUTF8"), "CorruptStore"),
            # a JSON number that is not an int, or a JSON true, where a graph needs an int
            (("ex", "--n", "4", "--forbid", '{"v":2.5,"edges":[[0,1]]}'), "ParseError"),
            (("count", "--pattern", "c4", "--host", '{"v":3,"edges":[[0,1.0]]}'), "ParseError"),
            (("count", "--pattern", "c4", "--host", '{"v":true,"edges":[]}'), "ParseError"),
            (("zex", "--m", "2", "--n", "2", "--pattern", '{"plus":1.5,"minus":1,"edges":[[0,0]]}'),
             "ParseError"),
            (("zex", "--m", "2", "--n", "2", "--pattern", '{"plus":1,"minus":1,"edges":[[0,0.0]]}'),
             "ParseError"),
            # a rational, or the threshold, past the float range
            ((*THRESHOLD, "--alpha", HUGE, "--gamma", "1/2"), "PreconditionViolated"),
            ((*THRESHOLD, "--alpha", "-" + HUGE, "--gamma", "1/2"), "PreconditionViolated"),
            ((*THRESHOLD, "--alpha", "1/2", "--gamma", "1/" + HUGE), "PreconditionViolated"),
            ((*THRESHOLD, "--alpha", "1/2", "--gamma", "1/2", "--c", HUGE), "PreconditionViolated"),
            # an --n whose graph6 output would pass 62 vertices, refused before sampling
            (("construct", "--kind", "deletion", "--n", "1" + "0" * 400, "--forbid", "c4", "--seed", "0"),
             "SizeExceeded"),
            (("construct", "--kind", "gnp", "--n", "100", "--p", "1/2", "--seed", "0"), "SizeExceeded"),
        ],
    )
    def test_bad_input_is_exit_1_without_traceback(self, capsys, tmp_path, argv, error):
        (tmp_path / "nohost.json").write_text(json.dumps({"pattern": "Cr"}))
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "malformed.jsonl").write_text(MALFORMED_STORE)
        (tmp_path / "nonutf8.jsonl").write_bytes(b"\xff\xfe\n")
        files = {"MISSING": "missing.json", "NOHOST": "nohost.json", "LIST": "list.json", "DIR": "",
                 "MISSING/x": "missing/x", "MALFORMED": "malformed.jsonl", "NONUTF8": "nonutf8.jsonl"}
        argv = [str(tmp_path / files[a]) if a in files else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == error
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("ex", "--n", "-1", "--forbid", "c4"),
            ("zex", "--m", "-1", "--n", "2", "--pattern", "c4"),
            ("construct", "--kind", "gnp", "--n", "-3", "--p", "1/2", "--seed", "0"),
            ("construct", "--kind", "gnp", "--n", "3", "--p", "3/2", "--seed", "0"),
            ("construct", "--kind", "gnp", "--n", "3", "--p", "1/2", "--seed", "-1"),
            (*THRESHOLD, "--alpha", "1/0", "--gamma", "1/2"),
            ("exponent", "--alpha", "1/2", "--pattern", "c4", "--root-vertices", "x"),
            ("exponent", "--alpha", "1/2", "--pattern", "c4", "--root-vertices", "0,1",
             "--root-edges", "a-b"),
            ("exponent", "--alpha", "1/2", "--pattern", "c4"),
            ("supersat", "--host", "c4", "--pattern", "c4", "--root-edge", "0", "--seed", "0",
             "--per-edge-cap", "-1"),
            ("glue", "--a", "c4", "--ea", "-1", "--b", "c4", "--eb", "0"),
            ("cache", "--store", "x", "--kind", "turn"),
        ],
    )
    def test_malformed_flag_value_is_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error: argument" in err or "error: one of the arguments" in err

    def test_seed_is_required_for_randomized_commands(self, capsys):
        code, _, _ = run(capsys, "construct", "--kind", "gnp", "--n", "5", "--p", "1/2")
        assert code == 2


class TestSeededCommands:
    def test_construct_echoes_seed_and_is_deterministic(self, capsys):
        args = ("construct", "--kind", "gnp", "--n", "10", "--p", "1/2", "--seed", "11")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        header = json.loads(out1.splitlines()[0])
        assert header["seed"] == 11 and header["n"] == 10
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_deletion_construct_provenance(self, capsys):
        code, out, _ = run(
            capsys,
            "construct", "--kind", "deletion", "--n", "12",
            "--forbid", "c4", "--seed", "3",
        )
        assert code == 0
        header = json.loads(out.splitlines()[0])
        assert header["forbidden"] == "c4" and header["seed"] == 3
        assert 0 < header["p"] < 1

    def test_supersat_round_trips_through_verify(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "supersat", "--host", "k3,3", "--pattern", "c4", "--root-edge", "0",
            "--per-edge-cap", "2", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["seed"] == 1
        fam_file = tmp_path / "family.json"
        fam_file.write_text(out.splitlines()[1])
        code, out2, _ = run(
            capsys, "verify", "--family", str(fam_file), "--per-edge-cap", "2"
        )
        assert code == 0
        report = json.loads(out2)
        assert report["edge_violations"] == 0 and report["pair_violations"] == 0
        assert report["invalid_members"] == 0 and report["repeated_members"] == 0

    @staticmethod
    def _k33_family(capsys):
        _, out, _ = run(
            capsys, "supersat", "--host", "k3,3", "--pattern", "c4", "--root-edge", "0",
            "--seed", "0",
        )
        return json.loads(out.splitlines()[1])

    @pytest.mark.parametrize(
        "member, field",
        [
            ([0, 3], "invalid_members"),  # short map
            ([0, 3, 1, 99], "invalid_members"),  # vertex out of range
            ([0, 3, 0, 4], "invalid_members"),  # not injective
            ([0, 1, 2, 3], "invalid_members"),  # edge (0, 1) lands on a non-edge
            ("repeat", "repeated_members"),
        ],
    )
    def test_verify_counts_members_that_are_not_distinct_embeddings(
        self, capsys, tmp_path, member, field
    ):
        family = self._k33_family(capsys)
        family["members"][1] = family["members"][0] if member == "repeat" else member
        fam_file = tmp_path / "family.json"
        fam_file.write_text(json.dumps(family))
        code, out, _ = run(capsys, "verify", "--family", str(fam_file))
        assert code == 0
        report = json.loads(out)
        assert report[field] == 1
        assert report["size"] == len(family["members"])

    def test_verify_checks_sides_of_a_signed_family(self, capsys, tmp_path):
        from edgeglue.graphs import signed_complete_bipartite, signed_cycle
        from edgeglue.supersat import FamilyConstraints, build_signed_balanced_family

        fam = build_signed_balanced_family(
            signed_complete_bipartite(3, 3), signed_cycle(4), (0, 0), FamilyConstraints()
        )
        family = json.loads(fam.to_json())
        fam_file = tmp_path / "family.json"
        fam_file.write_text(json.dumps(family))
        code, out, _ = run(capsys, "verify", "--family", str(fam_file))
        assert code == 0 and json.loads(out)["invalid_members"] == 0
        family["members"][0] = [3, 4, 0, 1]  # the flat C4, + side sent to -
        fam_file.write_text(json.dumps(family))
        code, out, _ = run(capsys, "verify", "--family", str(fam_file))
        assert code == 0 and json.loads(out)["invalid_members"] == 1

    @pytest.mark.parametrize("member", ["abcd", [0, 3, 1, True], [0, 3, 1, 4.0], 7])
    def test_verify_rejects_a_member_that_is_not_a_list_of_ints(self, capsys, tmp_path, member):
        family = self._k33_family(capsys)
        family["members"][0] = member
        fam_file = tmp_path / "family.json"
        fam_file.write_text(json.dumps(family))
        code, _, err = run(capsys, "verify", "--family", str(fam_file))
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("roots", [0, 1.0]),
            ("roots", [0, True]),
            ("root_edges", [[0, 1.0]]),
            ("distinguished_edge", [0, 1.0]),
        ],
    )
    def test_verify_rejects_a_pattern_vertex_that_is_not_an_int(
        self, capsys, tmp_path, field, value
    ):
        family = self._k33_family(capsys)
        family[field] = value
        fam_file = tmp_path / "family.json"
        fam_file.write_text(json.dumps(family))
        code, out, err = run(capsys, "verify", "--family", str(fam_file))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "ParseError"
        assert "Traceback" not in err


class TestCache:
    @pytest.mark.parametrize(
        "query, value",
        [(("ex", "--n", "5", "--forbid", "c4"), 6), (("zex", "--m", "4", "--n", "4", "--pattern", "c4"), 9)],
        ids=["ex", "zex"],
    )
    def test_compute_store_recompute_hits_cache(self, capsys, tmp_path, query, value):
        store = str(tmp_path / "records.jsonl")
        args = (*query, "--store", store)
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        first, second = json.loads(out1), json.loads(out2)
        assert first["method"] == "branch-and-bound"
        assert second["method"] == "cached"
        assert first["value"] == second["value"] == value
        assert first["witness"] == second["witness"]

    def test_cache_listing(self, capsys, tmp_path):
        store = str(tmp_path / "records.jsonl")
        run(capsys, "ex", "--n", "4", "--forbid", "c4", "--store", store)
        run(capsys, "zex", "--m", "2", "--n", "2", "--pattern", "c4", "--store", store)
        code, out, _ = run(capsys, "cache", "--store", store)
        assert code == 0
        kinds = [json.loads(line)["kind"] for line in out.strip().splitlines()]
        assert kinds == ["turan", "zarankiewicz"]
        code, out, _ = run(capsys, "cache", "--store", store, "--kind", "turan")
        assert [json.loads(l)["kind"] for l in out.strip().splitlines()] == ["turan"]

    def test_store_env_variable(self, capsys, tmp_path, monkeypatch):
        store = str(tmp_path / "records.jsonl")
        monkeypatch.setenv("EDGEGLUE_STORE", store)
        run(capsys, "ex", "--n", "4", "--forbid", "c4")
        _, out, _ = run(capsys, "ex", "--n", "4", "--forbid", "c4")
        assert json.loads(out)["method"] == "cached"

    def test_cache_without_store_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.delenv("EDGEGLUE_STORE", raising=False)
        code, _, err = run(capsys, "cache")
        assert code == 1 and json.loads(err)["error"] == "EdgeGlueError"


# Flag values for the argv fuzz: small sizes, malformed numbers and names.
NUMBERS = ["0", "1", "2", "3", "4", "5", "-1", "x", "", "1/0", "0.5", "2,3", "0-1", "nan"]
GRAPHS = ["c4", "p3", "k2,3", "s3", "c3", "c6", "s2+", "s2-", "Cr", "?", "", "zz", "c5", "k0,2"]
METHODS = ["oracle", "branch-and-bound", "x"]
ROOTS = {"--root-edge": NUMBERS, "--root-vertices": NUMBERS, "--root-edges": NUMBERS,
         "--marked-edge": NUMBERS}
# command -> (required flags, optional flags); a flag maps to its value pool,
# None for a switch, or the name of a pool of file paths
FLAGS = {
    "glue": ({"--a": GRAPHS, "--ea": NUMBERS, "--b": GRAPHS, "--eb": NUMBERS}, {}),
    "count": ({"--pattern": GRAPHS, "--host": GRAPHS}, {"--signed": None}),
    "ex": ({"--n": NUMBERS, "--forbid": GRAPHS}, {"--method": METHODS, "--store": "STORE"}),
    "zex": ({"--m": NUMBERS, "--n": NUMBERS, "--pattern": GRAPHS},
            {"--method": METHODS, "--store": "STORE"}),
    "exponent": ({"--alpha": NUMBERS, "--pattern": GRAPHS}, ROOTS),
    "threshold": ({"--n": NUMBERS, "--alpha": NUMBERS, "--gamma": NUMBERS, "--pattern": GRAPHS},
                  {"--c": NUMBERS, **ROOTS}),
    "construct": ({"--kind": ["gnp", "deletion", "sign-split", "x"], "--seed": NUMBERS},
                  {"--n": NUMBERS, "--p": NUMBERS, "--forbid": GRAPHS, "--host": GRAPHS}),
    "supersat": ({"--host": GRAPHS, "--pattern": GRAPHS, "--seed": NUMBERS},
                 {"--per-edge-cap": NUMBERS, "--per-pair-cap": NUMBERS, "--target-size": NUMBERS,
                  "--shuffle": None, **ROOTS}),
    "verify": ({"--family": "FAMILY"}, {"--per-edge-cap": NUMBERS, "--per-pair-cap": NUMBERS}),
    "cache": ({}, {"--store": "STORE", "--kind": ["turan", "zarankiewicz", "x"]}),
}


@st.composite
def argvs(draw, files):
    command = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[command]
    flags = list(required) + [f for f in sorted(optional) if draw(st.booleans())]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        pool = {**required, **optional}[flag]
        argv.append(flag)
        if pool is not None:
            argv.append(draw(st.sampled_from(files[pool] if isinstance(pool, str) else pool)))
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "garbage.json").write_text("{not json")
    (d / "list.json").write_text("[1, 2]")
    (d / "torn.jsonl").write_text('{"crc32": 1, "rec')
    (d / "malformed.jsonl").write_text(MALFORMED_STORE)
    # a C4 family in K3,3, then copies with one field or member broken
    family = {"distinguished_edge": [0, 1], "host": "EFz_", "members": [[0, 3, 1, 4]],
              "pattern": "Cr", "root_edges": [[0, 1]], "roots": [0, 1]}
    changes = [{}, {"host": 5}, {"members": [[0, 3]]}, {"members": ["abcd"]},
               {"members": [[0, 1, 2, 3], [0, 3, 1, 4]]}, {"distinguished_edge": None},
               {"signed_host": {"plus": 3, "minus": 3, "edges": [[0, 0]]}}]
    families = []
    for i, change in enumerate(changes):
        (d / f"family{i}.json").write_text(json.dumps({**family, **change}))
        families.append(str(d / f"family{i}.json"))
    bad = [str(d), str(d / "missing" / "x.json"), str(d / "garbage.json")]
    return {
        "STORE": [str(d / "store.jsonl"), str(d / "torn.jsonl"), str(d / "malformed.jsonl"), ""] + bad,
        "FAMILY": [str(d / "list.json")] + families + bad,
    }


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract(self, fuzz_files, data):
        argv = data.draw(argvs(fuzz_files))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
            os.environ.pop("EDGEGLUE_STORE", None)
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 1:
            assert set(json.loads(err.getvalue())) == {"error", "message"}, argv
