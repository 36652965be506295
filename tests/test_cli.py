import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plrs
from plrs import analytic, brown, cli, families, oracle, validate
from helpers import (
    brute_gaps,
    reference_max_last,
    reference_min_root,
    reference_report,
    reference_root,
    reference_scan_2l1,
    reference_terms,
    respelled,
    vectors_by_sum,
)

CONTRACT_KEYS = {"coefficients", "kind", "certificate", "index", "conjectural", "horizon_used"}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestGen:
    def test_plain_listing(self, capsys):
        code, out, _ = run(capsys, "gen", "1,3", "--n", "4")
        assert code == 0
        assert out.strip() == "1 2 5 11"

    def test_doubling(self, capsys):
        code, out, _ = run(capsys, "gen", "2", "--n", "5")
        assert code == 0
        assert out.strip() == "1 2 4 8 16"

    def test_leading_zero_exits_two(self, capsys):
        code, _, err = run(capsys, "gen", "0,1", "--n", "3")
        assert code == 2
        assert "positive" in err

    def test_whitespace_tolerated(self, capsys):
        code, out, _ = run(capsys, "gen", "1, 3", "--n", "3")
        assert code == 0
        assert out.strip() == "1 2 5"

    def test_malformed_exits_two(self, capsys):
        code, _, err = run(capsys, "gen", "1,x", "--n", "3")
        assert code == 2

    def test_json_format_echoes_config(self, capsys):
        code, payload, _ = run_json(capsys, "gen", "1,1", "--n", "4", "--format", "json")
        assert code == 0
        assert payload["terms"] == [1, 2, 3, 5]
        assert payload["config"]["command"] == "gen"


@pytest.mark.parametrize("command", [["check"], ["oracle-check"], ["gen", "--n", "3"]])
@pytest.mark.parametrize("text", ["1,,1", ",1", "1,1,", ",", "1, ,1", "1,x,,1"])
def test_empty_coefficient_field_is_input_error(capsys, command, text):
    # An empty field is an error, not dropped: "1,,1" is not [1, 1].  A
    # blank field is empty too, and it is named before a field that is not
    # an integer.
    code, out, err = run(capsys, command[0], text, *command[1:])
    assert (code, out) == (2, "")
    assert f"error: empty field in coefficients {text!r}" in err


@pytest.mark.parametrize("text", ["1,x", "1,2.5", "1,0x3"])
def test_non_integer_coefficient_field_is_input_error(capsys, text):
    code, out, err = run(capsys, "check", text)
    assert (code, out) == (2, "")
    assert f"error: coefficients must be comma-separated integers, got {text!r}" in err


@pytest.mark.parametrize("text,message", [
    ("0,1", "c_1 must be positive, got [0, 1]"),
    ("1,0", "c_L must be positive, got [1, 0]"),
    ("1,-2", "negative coefficient in [1, -2]"),
    ("0,x", "coefficients must be comma-separated integers, got '0,x'"),
])
def test_shape_errors_keep_their_own_message(capsys, text, message):
    # A vector of the wrong shape is reported as validate() words it; a
    # field that is not an integer is named before the shape.
    code, out, err = run(capsys, "check", text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_blanks_around_the_coefficients_are_tolerated(capsys):
    code, payload, _ = run_json(capsys, "check", " 1,2 ")
    assert code == 0
    assert payload["coefficients"] == [1, 2]


class TestCheck:
    def test_json_contract_fields(self, capsys):
        code, payload, _ = run_json(capsys, "check", "1,3")
        assert code == 0
        assert CONTRACT_KEYS <= set(payload)
        assert payload["kind"] == "incomplete"
        assert payload["certificate"] == "failure"
        assert payload["index"] == 3
        assert payload["conjectural"] is False

    @pytest.mark.parametrize(
        "coeffs,kind",
        [
            ("1,0,0,0,0,0,15", "incomplete"),
            ("1,1,0,0,0,0,15", "complete"),
            ("1,2,0,0,0,0,15", "incomplete"),
        ],
    )
    def test_neighbouring_family_members(self, capsys, coeffs, kind):
        code, payload, _ = run_json(capsys, "check", coeffs)
        assert code == 0
        assert payload["kind"] == kind

    def test_verify_revalidates(self, capsys):
        code, payload, _ = run_json(capsys, "check", "1,1", "--verify")
        assert code == 0
        assert payload["config"]["verified"] is True

    def test_require_definite_exits_three_on_unknown(self, capsys):
        code, payload, _ = run_json(capsys, "check", "1,1,2", "--horizon", "5",
                                    "--require-definite")
        assert code == 3
        assert payload["kind"] == "unknown"

    def test_assume_2l1_flags_conjectural(self, capsys):
        code, payload, _ = run_json(capsys, "check", "1,1,2", "--horizon", "5", "--assume-2l1")
        assert code == 0
        assert payload["kind"] == "complete"
        assert payload["conjectural"] is True
        assert payload["certificate"] == "family:2l-1"

    def test_triage_first_records_path(self, capsys):
        code, payload, _ = run_json(capsys, "check", "1,3", "--triage-first", "--verify")
        assert code == 0
        assert payload["config"]["path"] == ["triage"]
        assert payload["certificate"] == "root:p2_negative"
        assert payload["config"]["verified"] is True

    def test_triage_first_falls_through_on_band(self, capsys):
        code, payload, _ = run_json(capsys, "check", "1,1,1,0,4", "--triage-first")
        assert code == 0
        assert payload["config"]["path"] == ["triage", "brown"]
        assert payload["kind"] == "incomplete"

    def test_horizon_too_small_is_input_error(self, capsys):
        code, _, err = run(capsys, "check", "1,0,0,2", "--horizon", "3")
        assert code == 2

    def test_default_horizon_grows_past_length_512(self, capsys):
        # L = 602: the adaptive cap is 4L = 2408, past the strict window at 1203.
        code, payload, _ = run_json(capsys, "check", ",".join(["1"] + ["0"] * 600 + ["5"]),
                                    "--verify")
        assert code == 0
        assert payload["kind"] == "complete"
        assert payload["certificate"] == "strict_window"
        assert payload["index"] == 1203
        assert payload["config"]["verified"] is True


class TestOracleCheck:
    def test_witness_surfaces(self, capsys):
        code, payload, _ = run_json(capsys, "oracle-check", "1,3")
        assert code == 0
        assert payload["kind"] == "incomplete"
        assert payload["witness"] == 4

    def test_complete_vector(self, capsys):
        code, payload, _ = run_json(capsys, "oracle-check", "1,1", "--max-prefix", "12")
        assert code == 0
        assert payload["kind"] == "complete"

    def test_verify_round_trip(self, capsys):
        code, payload, _ = run_json(capsys, "oracle-check", "1,3", "--verify")
        assert code == 0
        assert payload["config"]["verified"] is True

    def test_unknown_with_require_definite_exits_three(self, capsys):
        code, payload, _ = run_json(capsys, "oracle-check", "2", "--max-prefix", "1",
                                    "--require-definite")
        assert code == 3
        assert payload["kind"] == "unknown"
        assert payload["certificate"] == "horizon"
        assert payload["index"] == payload["horizon_used"] == 1

    def test_witness_past_the_bit_budget_of_a_mask(self, capsys):
        # The first 38 terms sum to 370248372, past 2^28: the witness is
        # their sum plus one, and no mask of them is built.
        vector = ",".join(["1", "1"] + ["0"] * 33 + ["25583530"])
        code, payload, _ = run_json(capsys, "oracle-check", vector, "--verify")
        assert code == 0
        assert payload["kind"] == "incomplete"
        assert payload["certificate"] == "failure"
        assert payload["index"] == 38
        assert payload["witness"] == 370248373
        assert payload["config"]["verified"] is True
        assert "budget_bits" not in payload["config"]

    def test_max_prefix_zero_is_input_error(self, capsys):
        code, out, err = run(capsys, "oracle-check", "2", "--max-prefix", "0")
        assert code == 2
        assert out == ""
        assert "max_prefix 0 < 2L-1" in err

    def test_doubling_sequence_certified_without_a_mask(self, capsys):
        # The sums of [2] pass 2^28 by prefix 29; the certificate sits at 3.
        code, payload, _ = run_json(capsys, "oracle-check", "2", "--verify")
        assert code == 0
        assert payload["kind"] == "complete"
        assert payload["certificate"] == "doubling_window"
        assert payload["index"] == payload["horizon_used"] == 3
        assert "note" not in payload
        assert payload["config"]["verified"] is True

    def test_growth_near_two_is_complete(self, capsys):
        code, payload, _ = run_json(capsys, "oracle-check", "1,1,1", "--require-definite")
        assert code == 0
        assert payload["kind"] == "complete"


class TestHugeTerms:
    # c_2 = 10^100000 - 1 has 100,000 digits; so do H_3 and every later term.
    C2 = 10**100000 - 1
    VECTOR = "1," + "9" * 100000

    def test_check_fails_at_the_first_term_past_c2(self, capsys):
        code, payload, _ = run_json(capsys, "check", self.VECTOR, "--verify")
        assert code == 0
        assert payload["coefficients"] == [1, self.C2]
        assert (payload["kind"], payload["certificate"], payload["index"]) \
            == ("incomplete", "failure", 3)
        assert payload["witness"] == 2 - self.C2  # B_3 = 1 + H_1 + H_2 - H_3
        assert payload["config"]["verified"] is True

    def test_oracle_check_names_the_missing_sum(self, capsys):
        code, payload, _ = run_json(capsys, "oracle-check", self.VECTOR, "--verify")
        assert code == 0
        assert payload["coefficients"] == [1, self.C2]
        assert (payload["kind"], payload["certificate"], payload["index"]) \
            == ("incomplete", "failure", 2)
        assert payload["witness"] == 4  # H_1 + H_2 + 1
        assert payload["config"]["verified"] is True


class TestFamilyTable:
    def test_one_zeros_column(self, capsys):
        code, out, _ = run(capsys, "family-table", "--family", "one-zeros", "--k", "0..6")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "family,g,k,L,m,max_n_rule,proven,max_n_search,agree"
        bounds = [int(l.split(",")[5]) for l in lines[1:]]
        assert bounds == [2, 3, 5, 8, 11, 14, 18]
        assert all(l.endswith("true") for l in lines[1:])

    def test_ones_zeros_marks_unproven_region(self, capsys):
        code, out, _ = run(capsys, "family-table", "--family", "ones-zeros",
                           "--g", "1..3", "--k", "1..3")
        assert code == 0
        rows = {}
        for line in out.splitlines():
            if line.startswith("ones-zeros"):
                parts = line.split(",")
                rows[(int(parts[1]), int(parts[2]))] = parts
        # g < k (and g > 1) has no proven rule, but the search still reports
        assert rows[(2, 3)][5] == ""
        assert rows[(2, 3)][7] != "?"
        # proven cells agree
        assert rows[(3, 2)][8] == "true"

    def test_two_ones_zeros_flagged_conjectural(self, capsys):
        code, out, _ = run(capsys, "family-table", "--family", "two-ones-zeros", "--k", "0..3")
        assert code == 0
        for line in out.splitlines():
            if line.startswith("two-ones-zeros"):
                assert line.split(",")[1] == "2"  # g column
                assert line.split(",")[6] == "false"  # proven column
                assert line.split(",")[8] == "true"  # still matches the search

    def test_one_zeros_ones_table(self, capsys):
        code, out, _ = run(capsys, "family-table", "--family", "one-zeros-ones",
                           "--L", "6..8", "--m", "0..2")
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("one-zeros-ones")]
        assert rows, out
        for line in rows:
            assert line.split(",")[8] == "true"

    def test_ones_zeros_outside_the_family_is_input_error(self, capsys):
        # k = 0 with g > 1, and g = 0, have no ones-zeros bound.
        for g, k in (("2..3", "0..2"), ("0", "0")):
            code, out, err = run(capsys, "family-table", "--family", "ones-zeros",
                                 "--g", g, "--k", k)
            assert code == 2
            assert out == ""
            assert "need g >= 1 and k >= 1" in err

    def test_undecided_row_with_require_definite_exits_three(self, capsys):
        # At horizon 13 the engine cannot decide [1, 1, 0^4, N]: max_n_search is "?".
        argv = ["family-table", "--family", "ones-zeros", "--g", "2", "--k", "4",
                "--horizon", "13"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == "ones-zeros,2,4,7,,,,?,"
        code, definite_out, _ = run(capsys, *argv, "--require-definite")
        assert code == 3
        assert definite_out == out

    def test_discrepancy_outranks_undecided_row(self, capsys, monkeypatch):
        # One row undecided, one wrong: the discrepancy's exit 4 wins.
        answers = iter([None, 100])
        monkeypatch.setattr(families, "max_last", lambda prefix, horizon: next(answers))
        code, out, _ = run(capsys, "family-table", "--family", "one-zeros", "--k", "1..2",
                           "--require-definite")
        assert code == 4
        assert out.splitlines()[-1] == "# discrepancies: 1"

    @pytest.mark.parametrize("flag,text", [("--k", "3..1"), ("--k", "1..0"), ("--g", "2..1")])
    def test_reversed_range_is_usage_error(self, capsys, flag, text):
        with pytest.raises(SystemExit) as exc:
            cli.main(["family-table", "--family", "ones-zeros", "--g", "1", "--k", "1", flag, text])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert f"argument {flag}: expected A..B with A <= B, got '{text}'" in err

    @pytest.mark.parametrize("text", ["x", "1..y", "2.5"])
    def test_malformed_range_is_usage_error(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            cli.main(["family-table", "--family", "one-zeros", "--k", text])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert f"argument --k: expected N or A..B, got '{text}'" in err

    def test_horizon_below_the_window_is_input_error(self, capsys):
        # k = 1 gives L = 3; no row needs the engine, yet the horizon is refused.
        code, out, err = run(capsys, "family-table", "--family", "one-zeros", "--k", "1..3",
                             "--horizon", "3")
        assert code == 2
        assert out == ""
        assert "horizon 3 < 2L-1 = 5" in err

    @pytest.mark.parametrize("ranges,message", [
        (("--g", "0", "--k", "1"), "c_1 must be positive, got [0, 1]"),
        (("--g", "2", "--k", "0"), "need g >= 1 and k >= 1, got g=2, k=0"),
    ], ids=["invalid-vector", "no-bound"])
    def test_row_errors_come_before_the_horizon(self, capsys, ranges, message):
        # A row's invalid vector is named first, then a bound the family
        # lacks, and only then a horizon below 2L-1.
        code, out, err = run(capsys, "family-table", "--family", "ones-zeros", *ranges,
                             "--horizon", "1")
        assert code == 2
        assert out == ""
        assert message in err

    # The four family-table jobs of the benchmark's sweep workload.
    @pytest.mark.parametrize("ranges", [
        ("one-zeros", "--k", "1..60"),
        ("ones-zeros", "--g", "1..6", "--k", "1..6"),
        ("two-ones-zeros", "--k", "1..30"),
        ("one-zeros-ones", "--L", "3..10", "--m", "1..8"),
    ], ids=lambda ranges: ranges[0])
    def test_table_matches_probing_every_member(self, capsys, monkeypatch, ranges):
        expected = run(capsys, "family-table", "--family", *ranges)
        monkeypatch.setattr(families, "max_last", reference_max_last)
        assert run(capsys, "family-table", "--family", *ranges) == expected

    def test_long_one_zeros_column_within_a_second(self, capsys, monkeypatch):
        # Probing every member takes about a second and 4,458 engine runs here;
        # the gap bracket leaves 100 runs.
        runs = []
        real = brown.check_completeness
        monkeypatch.setattr(brown, "check_completeness",
                            lambda *args, **kwargs: runs.append(args) or real(*args, **kwargs))
        start = time.perf_counter()
        code, out, _ = run(capsys, "family-table", "--family", "one-zeros", "--k", "1..200")
        elapsed = time.perf_counter() - start
        rows = [l for l in out.splitlines() if l.startswith("one-zeros")]
        assert code == 0
        assert len(rows) == 200 and all(l.endswith(",true") for l in rows)
        assert len(runs) <= len(rows)
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    def test_missing_range_is_input_error(self, capsys):
        code, _, err = run(capsys, "family-table", "--family", "one-zeros")
        assert code == 2
        assert "--k" in err
        code, _, err = run(capsys, "family-table", "--family", "one-zeros-ones", "--L", "6..7")
        assert code == 2
        assert "--m" in err


def _names(code) -> set[str]:
    # The globals and attributes a function's code names, nested code included.
    return set(code.co_names).union(*(_names(k) for k in code.co_consts
                                      if hasattr(k, "co_names")))


class TestScan2L1:
    def test_no_counterexamples_at_full_window(self, capsys):
        code, payload, _ = run_json(capsys, "scan-2l1", "--L", "3", "--coeff-cap", "3",
                                    "--jobs", "1")
        assert code == 0
        assert payload["counterexamples"] == []
        assert payload["candidates"] == 36  # 3 * 4 * 3 valid vectors

    def test_weakened_window_finds_near_misses(self, capsys):
        code, payload, err = run_json(capsys, "scan-2l1", "--L", "2", "--coeff-cap", "4",
                                      "--jobs", "1", "--window", "2")
        assert code == 4
        assert [1, 3] in [r["coefficients"] for r in payload["counterexamples"]]
        assert "counterexample" in err

    def test_parallel_output_matches_serial(self, capsys, monkeypatch):
        # --jobs is echoed, but scan-2l1 never starts a worker pool.
        _, serial, _ = run(capsys, "scan-2l1", "--L", "5", "--coeff-cap", "4", "--jobs", "1")

        def no_pool(*args, **kwargs):
            raise AssertionError("scan-2l1 started a process pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        _, parallel, _ = run(capsys, "scan-2l1", "--L", "5", "--coeff-cap", "4", "--jobs", "2")
        serial = json.loads(serial)
        parallel = json.loads(parallel)
        serial["config"].pop("jobs")
        parallel["config"].pop("jobs")
        assert serial == parallel

    @pytest.mark.parametrize("horizon", [[], ["--horizon", "1"]])
    def test_first_failure_is_the_gap_index(self, capsys, horizon):
        # [3] and [4] first fail at B_2 whether or not the horizon reaches it.
        code, payload, _ = run_json(capsys, "scan-2l1", "--L", "1", "--coeff-cap", "4",
                                    "--jobs", "1", *horizon)
        assert code == 4
        assert [(r["coefficients"], r["first_failure"]) for r in payload["counterexamples"]] \
            == [([3], 2), ([4], 2)]
        assert payload["undecided"] == []
        assert payload["config"]["horizon"] == (int(horizon[1]) if horizon else None)

    def test_window_defaults_to_two_l_minus_one(self, capsys):
        code, payload, _ = run_json(capsys, "scan-2l1", "--L", "3", "--coeff-cap", "2",
                                    "--jobs", "1")
        assert code == 0
        assert payload["window"] == payload["config"]["window"] == 5

    def test_engine_runs_only_on_unproven_survivors(self, capsys, monkeypatch):
        # Of the 6,898 survivors at L=8, cap 4, the walk proves 6,775 complete
        # by the strict window; the other 123 get one engine run each.
        runs = []
        real = brown.check_completeness
        monkeypatch.setattr(brown, "check_completeness",
                            lambda *args, **kwargs: runs.append(args) or real(*args, **kwargs))
        code, payload, _ = run_json(capsys, "scan-2l1", "--L", "8", "--coeff-cap", "4",
                                    "--jobs", "1")
        assert code == 0
        assert payload["undecided"] == [{"coefficients": [1, 0, 2, 2, 2, 3, 1, 2],
                                         "status": "undecided"}]
        assert len(runs) == 123
        assert len({c.values for c, *_ in runs}) == 123

    def test_the_command_leaves_walk_reads_and_engine_to_the_scan(self):
        # _cmd_scan_2l1 validates, calls brown.window_scan and formats: it
        # walks no prefix, reads no level, builds no vector, runs no engine.
        names = _names(cli._cmd_scan_2l1.__code__)
        assert "window_scan" in names
        assert not names & {"_prefix_walk", "_read_level", "_settle_level", "check_completeness",
                            "Coefficients", "validate"}

    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_window_below_one_is_input_error(self, capsys, window):
        code, out, err = run(capsys, "scan-2l1", "--L", "3", "--coeff-cap", "2",
                             "--jobs", "1", f"--window={window}")
        assert code == 2
        assert out == ""
        assert "--window" in err


# --jobs is checked before any work, on a small box and on a larger one.
@pytest.mark.parametrize("command", [
    ["scan-2l1", "--L", "2", "--coeff-cap", "2"],
    ["scan-2l1", "--L", "5", "--coeff-cap", "4"],
    ["min-root", "--L", "3", "--sum-cap", "4"],
    ["min-root", "--L", "4", "--sum-cap", "8"],
])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_input_error(capsys, command, jobs):
    code, out, err = run(capsys, *command, f"--jobs={jobs}")
    assert code == 2
    assert out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("command", [
    ["scan-2l1", "--L", "3", "--coeff-cap", "2"],
    ["min-root", "--L", "3", "--sum-cap", "4"],
])
def test_jobs_defaults_to_one(capsys, command):
    # The same command writes the same bytes on every machine.
    code, payload, _ = run_json(capsys, *command)
    assert code == 0
    assert payload["config"]["jobs"] == 1


class TestMinRoot:
    def test_base_case_frontier(self, capsys):
        code, payload, _ = run_json(capsys, "min-root", "--L", "2", "--sum-cap", "4",
                                    "--jobs", "1")
        assert code == 0
        assert payload["frontier"] == [1, 3]
        assert payload["incomplete"] == 4
        assert abs(payload["margin"]) < 1e-9
        assert payload["conjecture_violated"] is False

    def test_length_three(self, capsys):
        code, payload, _ = run_json(capsys, "min-root", "--L", "3", "--sum-cap", "6",
                                    "--jobs", "1")
        assert code == 0
        assert payload["frontier"] == [1, 0, 4]
        assert payload["frontier_root"] == 2.0

    def test_a_frontier_below_lambda_exits_four_and_keeps_the_report(self, capsys, monkeypatch,
                                                                     tmp_path):
        # With lambda_3 moved up to the root of [1, 0, 5], the frontier
        # [1, 0, 4] (root 2) lies below it: a counterexample to the
        # conjecture, reported and written in full.
        raised = analytic.LambdaThreshold(3, 4, analytic.principal_root(validate([1, 0, 5])))
        monkeypatch.setattr(analytic, "lambda_threshold", lambda L, tol: raised)
        target = tmp_path / "min-root.json"
        code, out, err = run(capsys, "min-root", "--L", "3", "--sum-cap", "6", "--jobs", "1",
                             "--out", str(target))
        assert code == 4
        assert out == ""
        assert err == ("frontier root lies below the lambda threshold: conjecture "
                       "counterexample; report retained\n")
        payload = json.loads(target.read_text())
        assert payload["conjecture_violated"] is True
        assert payload["frontier"] == [1, 0, 4]
        assert payload["margin"] < 0

    @pytest.mark.parametrize("L,cap", [(2, 4), (2, 9), (3, 6), (3, 14), (4, 8), (4, 10), (5, 7)])
    def test_frontier_is_least_root_of_every_incomplete_vector(self, capsys, monkeypatch, L, cap):
        # least_root is offered incomplete vectors only, in lexicographic
        # order, and no prefix c_1..c_{L-1} twice.
        least_root, given = analytic.least_root, []

        def recorded(vectors, tol):
            given.extend(vectors)
            return least_root(given, tol)

        monkeypatch.setattr(analytic, "least_root", recorded)
        _, payload, _ = run_json(capsys, "min-root", "--L", str(L), "--sum-cap", str(cap),
                                 "--jobs", "1")
        incomplete = sorted((c for c in vectors_by_sum(L, cap)
                             if brown.check_completeness(c).kind == brown.INCOMPLETE),
                            key=lambda c: c.values)
        best, bracket = least_root(incomplete)
        assert (payload["frontier"], payload["frontier_root"]) == (list(best.values),
                                                                   bracket.approx)
        assert payload["incomplete"] == len(incomplete)
        assert set(given) <= set(incomplete)
        assert [c.values for c in given] == sorted(c.values for c in given)
        assert len({c.values[:-1] for c in given}) == len(given)

    def test_plain_report_names_every_undecided_vector(self, capsys):
        argv = ["min-root", "--L", "8", "--sum-cap", "13", "--jobs", "1"]
        _, payload, _ = run_json(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--format", "plain")
        summary, *rest = out.splitlines()
        assert code == 0 and payload["undecided"]
        assert f" of {payload['candidates']}, {len(payload['undecided'])} undecided;" in summary
        assert rest == [f"  undecided: {v}" for v in payload["undecided"]]

    def test_undecided_are_listed_by_sum_then_lexicographically(self, capsys, monkeypatch):
        # Small caps leave no vector unknown, so the verdicts of odd sums that
        # the engine reaches past B_{2L-1} are made unknown: only the leaves
        # the window leaves open get an engine run.  The report must still be
        # the brute force's.
        check = brown.check_completeness

        def unsure(c, *args, **kwargs):
            verdict = check(c, *args, **kwargs)
            if verdict.certificate.index > 2 * c.L - 1 and sum(c.values) % 2:
                return brown.Verdict(c, brown.UNKNOWN, brown.horizon_exhausted(1), False, 1)
            return verdict

        monkeypatch.setattr(brown, "check_completeness", unsure)
        _, payload, _ = run_json(capsys, "min-root", "--L", "5", "--sum-cap", "9")
        del payload["config"]
        assert payload == reference_min_root(5, 9, analytic.DEFAULT_TOL)
        assert payload["undecided"] != sorted(payload["undecided"])

    @pytest.mark.parametrize("L,cap,runs", [(4, 10, 4), (8, 13, 135)])
    def test_engine_runs_once_per_open_leaf(self, capsys, monkeypatch, L, cap, runs):
        # An open leaf has B_1..B_{2L-1} >= 0 with a zero from B_L on: neither
        # a failure nor the strict window.  Only those reach the engine, once
        # each, in the walk's lexicographic order.
        check, given = brown.check_completeness, []

        def counted(c, *args, **kwargs):
            given.append(c.values)
            return check(c, *args, **kwargs)

        def is_open(values):
            gaps = brute_gaps(reference_terms(values, 2 * L - 1))
            return min(gaps) >= 0 and min(gaps[L - 1:]) == 0

        monkeypatch.setattr(brown, "check_completeness", counted)
        run_json(capsys, "min-root", "--L", str(L), "--sum-cap", str(cap))
        assert len(given) == runs
        assert given == sorted(set(given))
        assert all(sum(v) <= cap and is_open(v) for v in given)
        if L == 4:  # every open vector of the sum class, by brute force
            assert given == sorted(c.values for c in vectors_by_sum(L, cap) if is_open(c.values))

    def test_runs_serially_at_any_jobs(self, capsys, monkeypatch):
        # --jobs is echoed, but min-root never starts a worker pool.
        _, serial, _ = run_json(capsys, "min-root", "--L", "4", "--sum-cap", "8", "--jobs", "1")

        def no_pool(*args, **kwargs):
            raise AssertionError("min-root started a process pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        code, parallel, _ = run_json(capsys, "min-root", "--L", "4", "--sum-cap", "8",
                                     "--jobs", "2")
        assert code == 0
        assert (serial["config"].pop("jobs"), parallel["config"].pop("jobs")) == (1, 2)
        assert serial == parallel


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")
with open(os.path.join(GOLDEN_DIR, "golden_jobs.txt")) as fh:
    GOLDEN_JOBS = {name: argv for name, *argv in map(str.split, fh)}


@pytest.mark.parametrize("name", GOLDEN_JOBS)
def test_root_reports_match_goldens(capsys, monkeypatch, name):
    # Byte for byte: the reports of the benchmark's root jobs, as written by
    # the implementation that refined every candidate root to tol; of
    # check with and without --triage-first on long sparse vectors, as
    # written by the dense sign evaluation over all L coefficients; and of
    # the benchmark's sweep jobs and oracle-check, as written by the engine
    # that built its whole 2L+1-term prefix before reading a gap; of
    # scan-2l1 boxes, as written when every survivor went to the engine; and
    # of check --verify on each gap certificate kind and gen on a long sparse
    # vector, as written when recheck grew its terms with the engine's kernel;
    # and of dense at tol 1/10 with epsilon and at tol 4, as written when
    # roots the grid of tol left unseparated were refined as brackets; and
    # of dense at tol 1e-300, as written when float Newton steps proposed
    # each root and an exact gallop and bisection replaced a wrong one; and
    # of dense at L 16 and at tol 1e-60, as written when every root took
    # integer Newton steps from above it until the floor of the step was 0.
    # The usage errors, stderr included, are as written when every call went
    # through the top-level parser, and so are the argument lists that
    # cli._read leaves to argparse (--opt=value, abbreviations, a negative
    # value, a missing one); argparse wraps usage to COLUMNS, which is 80
    # on a stdout that is not a terminal.  out_empty is as written once an
    # empty --out became an input error.  scan-2l1 at L 6 with windows 7,
    # 12 and 13, and min-root at L 6, are as written when each vector was
    # read on from its own leaf of the walk.  check --triage-first at n_L
    # and n_L + 1 of L 300 is as written when triage compared the root with
    # lambda_L's 40-bit cell alone.  scan-2l1 at L 8 with window 40 and
    # horizon 15 is as written when the scan built a vector for every
    # survivor of the window; min-root --format plain at L 8 cap 13 is as
    # written once the plain report listed its undecided vectors.  check
    # --verify at a failure just past the head's first stretch and at c_1
    # = 2 is as written when the engine and generate_terms grew that
    # stretch term by term.  gen --n 0, scan-2l1 --L 0, min-root --L 1 and
    # dense --L 1 pin each command's own check of its sizes.
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code, out, err = run(capsys, *GOLDEN_JOBS[name])
    except SystemExit as exc:
        captured = capsys.readouterr()
        code, out, err = exc.code, captured.out, captured.err
    with open(os.path.join(GOLDEN_DIR, f"{name}.stdout")) as fh:
        assert out == fh.read()
    with open(os.path.join(GOLDEN_DIR, f"{name}.exit")) as fh:
        assert code == int(fh.read())
    if os.path.exists(stderr := os.path.join(GOLDEN_DIR, f"{name}.stderr")):
        with open(stderr) as fh:
            assert err == fh.read()


@pytest.mark.parametrize("name", ["usage_unknown_command", "usage_bad_family"])
def test_invalid_choice_goldens_hold_under_later_argparse(capsys, monkeypatch, name):
    # argparse after 3.13.0 lists the choices of an invalid-choice error
    # unquoted; the goldens hold the quoted text, which the CLI writes on
    # every version.
    def unquoted(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(str, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")

    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", unquoted)
    test_root_reports_match_goldens(capsys, monkeypatch, name)


def test_every_golden_file_belongs_to_a_job():
    # CI diffs only the files its jobs name, so an orphan would never be
    # read, and a job missing its .stdout or .exit fails only there.
    with open(os.path.join(GOLDEN_DIR, "golden_jobs.txt")) as fh:
        names = [line.split()[0] for line in fh]
    assert len(names) == len(set(names)) == len(GOLDEN_JOBS)
    files = set(os.listdir(GOLDEN_DIR)) - {"golden_jobs.txt", "root_order_gap_pins.json"}
    assert files <= {name + ext for name in names for ext in (".stdout", ".exit", ".stderr")}
    assert all({name + ".stdout", name + ".exit"} <= files for name in names)


@pytest.mark.parametrize("command", [["min-root", "--L", "3", "--sum-cap", "5", "--jobs", "1"],
                                     ["dense", "--L", "5"]])
@pytest.mark.parametrize("tol", ["0", "1e-400", "-1e-3", "nan"])
def test_nonpositive_tolerance_is_input_error(capsys, command, tol):
    # 1e-400 parses to 0.0.
    code, out, err = run(capsys, *command, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "tolerance must be positive" in err


class TestDense:
    def test_rows_match_reference_midpoints(self, capsys):
        # [1, 0^7, k] for k from ceil(9*10/4) + 1 = 24 to 2^8, each root the
        # midpoint of a plain Fraction bisection to width 1e-12.
        code, out, _ = run(capsys, "dense", "--L", "9")
        assert code == 0
        rows = [l for l in out.splitlines()[2:] if not l.startswith("#")]
        expected = []
        for k in range(24, 257):
            lo, hi = reference_root(validate([1] + [0] * 7 + [k]), Fraction(1, 10**12))
            expected.append(f"{k},{float((lo + hi) / 2):.12f}")
        assert rows == expected

    def test_csv_with_certified_footer(self, capsys):
        code, out, _ = run(capsys, "dense", "--L", "6", "--epsilon", "0.05")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "k,root"
        assert "# increasing_certified: True" in out
        assert "# gaps_decreasing_certified: True" in out
        assert "# terminal_root_exact_two: True" in out
        last_row = [l for l in lines if "," in l and not l.startswith("#")][-1]
        assert last_row == "32,2.000000000000"

    def test_coarse_tolerance_leaves_the_exact_root_two_alone(self, capsys):
        # The last triple ends at the exact root 2, which needs no refining.
        code, out, _ = run(capsys, "dense", "--L", "6", "--tol", "0.1")
        assert code == 0
        assert "# gaps_decreasing_certified: True" in out.splitlines()

    def test_coarse_tolerance_keeps_the_epsilon_verdict(self, capsys):
        # Cells of width 1/16 cannot show gaps near 0.0034; the first gap is
        # the largest, and its exact cell ends decide epsilon.
        code, out, _ = run(capsys, "dense", "--L", "11", "--tol", "0.1", "--epsilon", "0.01")
        assert code == 0
        lines = out.splitlines()
        assert "# epsilon_met: True" in lines
        assert [l for l in lines if l.startswith("# max_gap: ")][0].endswith(" at k=34")
        _, fine, _ = run(capsys, "dense", "--L", "11", "--epsilon", "0.01")
        assert "# max_gap: 0.003412394082 at k=34" in fine.splitlines()
        assert "# epsilon_met: True" in fine.splitlines()

    def test_length_two_has_no_roots(self, capsys):
        code, out, _ = run(capsys, "dense", "--L", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1:4] == ["k,root", "# max_gap: none", "# covered: none"]
        assert "# terminal_root_exact_two: False" in lines

    def test_length_three_has_the_single_root_two(self, capsys):
        code, out, _ = run(capsys, "dense", "--L", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[1:5] == ["k,root", "4,2.000000000000", "# max_gap: none",
                              "# covered: [2.000000000000, 2.000000000000]"]
        assert "# terminal_root_exact_two: True" in lines

    def test_cost_cap_writes_a_report(self, capsys):
        # L = 18 has 130,986 incomplete roots, over the 65,536 budget.
        code, out, err = run(capsys, "dense", "--L", "18")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0].startswith("# config: ") and '"L": 18' in lines[0]
        assert lines[1:] == ["k,root", "# cost_cap: 130986 roots exceed budget 65536"]
        code, out, _ = run(capsys, "dense", "--L", "18", "--require-definite")
        assert code == 3
        assert out.splitlines()[1:] == lines[1:]


class TestOutput:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "terms.txt"
        code, out, _ = run(capsys, "gen", "1,1", "--n", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "1 2 3 5 8"

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "check", "1,3", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir", "not-a-dir"])
    def test_unwritable_out_is_rejected_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                        where):
        def no_scan(L, cap, window, horizon=None):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(brown, "window_scan", no_scan)
        (tmp_path / "file").write_text("")
        target = {"missing-dir": tmp_path / "missing" / "x.json", "a-dir": tmp_path,
                  "not-a-dir": tmp_path / "file" / "x.json"}[where]
        code, out, err = run(capsys, "scan-2l1", "--L", "6", "--coeff-cap", "5", "--jobs", "1",
                             "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    @pytest.mark.parametrize("argv", [["--out", ""], ["--out="]], ids=["read", "argparse"])
    def test_empty_out_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, "oracle-check", "1,3", *argv)
        assert (code, out, err) == (2, "", "error: --out: empty path\n")
        with pytest.raises(ValueError, match="empty path"):
            cli._check_out("")

    def test_out_without_write_permission_is_rejected(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "x.json"
        target.write_text("keep\n")
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        code, out, err = run(capsys, "check", "1,3", "--out", str(target))
        assert code == 2
        assert err == f"error: --out {target}: permission denied\n"
        assert target.read_text() == "keep\n"

    def test_input_error_neither_creates_nor_truncates_out(self, capsys, tmp_path):
        kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
        kept.write_text("keep\n")
        for target in (kept, absent):
            code, out, _ = run(capsys, "check", "0,1", "--out", str(target))
            assert (code, out) == (2, "")
        assert kept.read_text() == "keep\n"
        assert not absent.exists()
        code, _, _ = run(capsys, "check", "1,3", "--out", str(kept))
        assert code == 0
        assert json.loads(kept.read_text())["kind"] == "incomplete"

    def test_plain_scan_goes_entirely_to_out(self, capsys, tmp_path):
        target = tmp_path / "scan.txt"
        code, out, err = run(capsys, "scan-2l1", "--L", "2", "--coeff-cap", "4", "--jobs", "1",
                             "--window", "2", "--format", "plain", "--out", str(target))
        assert code == 4
        assert out == ""
        lines = target.read_text().splitlines()
        assert lines[0].startswith("scanned 16 vectors")
        assert lines[1:] == ["  fails at 3: [1, 3]", "  fails at 3: [1, 4]"]
        assert "counterexample" in err

    def test_plain_verdict_is_coloured_on_a_terminal_only(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        code, out, _ = run(capsys, "check", "1,3", "--format", "plain")
        assert code == 0
        assert "\x1b[31mincomplete\x1b[0m" in out
        target = tmp_path / "verdict.txt"
        code, out, _ = run(capsys, "check", "1,3", "--format", "plain", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "[1,3] incomplete certificate=failure index=3\n"

    def test_gen_has_no_require_definite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "1,1", "--n", "3", "--require-definite"])
        assert exc.value.code == 2
        assert "--require-definite" in capsys.readouterr().err


# Every subcommand in every format it accepts echoes its config.
@pytest.mark.parametrize("fmt,argv", [
    pytest.param(fmt, argv, id=f"{argv[0]}-{fmt}")
    for argv, formats in [
        (["gen", "1,1", "--n", "4"], ("json", "csv", "plain")),
        (["check", "1,3"], ("json", "csv", "plain")),
        (["oracle-check", "1,3"], ("json", "csv", "plain")),
        (["family-table", "--family", "one-zeros", "--k", "0..2"], ("csv",)),
        (["scan-2l1", "--L", "2", "--coeff-cap", "2", "--jobs", "1"], ("json", "plain")),
        (["min-root", "--L", "2", "--sum-cap", "4", "--jobs", "1"], ("json", "plain")),
        (["dense", "--L", "5"], ("csv",)),
    ]
    for fmt in formats
])
def test_every_report_echoes_its_config(capsys, fmt, argv):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["config"]["command"] == argv[0]
    elif fmt == "csv":
        assert out.startswith("# config: ")
        assert json.loads(out.splitlines()[0][len("# config: "):])["command"] == argv[0]
    else:
        echo = err.splitlines()[-1]
        assert echo.startswith("# config: ")
        assert json.loads(echo[len("# config: "):])["command"] == argv[0]


LAZY_LAYERS = ("analytic", "brown", "families", "oracle", "transforms")
# Prints the layers in LAZY_LAYERS that have not run: their module dicts, read
# without the attribute access that runs them, hold none of their exports.
UNRUN_PROBE = (
    f"import types; LAZY = {LAZY_LAYERS!r}; "
    "raw = lambda m: types.ModuleType.__getattribute__(sys.modules[f'plrs.{m}'], '__dict__'); "
    "print([m for m in LAZY if not set(plrs._EXPORTS[m]) & set(raw(m))])"
)


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_import_builds_no_parser(self):
        # Nor does it load the process-pool machinery, which no command uses.
        src = os.path.dirname(os.path.dirname(plrs.__file__))
        probe = (f"import sys; sys.path.insert(0, {src!r}); import plrs.cli; "
                 "print(plrs.cli._build_parser.cache_info().currsize, "
                 "'concurrent.futures' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0 False\n"

    def test_import_loads_every_layer_and_no_dataclasses(self):
        # perfbench's tracer reads the six layers from sys.modules right
        # after this import; dataclasses would load inspect, ast and dis.
        # Without site, nothing but plrs would load typing.  Every layer but
        # core is registered and not yet run, and the vars() the tracer reads
        # runs it; fractions, decimal and json wait for a command that needs
        # them.
        src = os.path.dirname(os.path.dirname(plrs.__file__))
        probe = (f"import sys; sys.path.insert(0, {src!r}); import plrs.cli; "
                 "layers = ('cli', 'core', 'brown', 'oracle', 'analytic', 'families'); "
                 "print(all(f'plrs.{m}' in sys.modules for m in layers), "
                 "[m for m in ('dataclasses', 'inspect', 'ast', 'typing') if m in sys.modules]); "
                 f"{UNRUN_PROBE}; "
                 "print([m for m in ('fractions', 'decimal', 'json') if m in sys.modules]); "
                 "print(all(set(plrs._EXPORTS[m]) <= set(vars(sys.modules[f'plrs.{m}']))"
                 " for m in LAZY))")
        done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["True []", str(list(LAZY_LAYERS)), "[]", "True"]

    def test_check_runs_no_layer_but_brown(self):
        # A fresh `plrs check` compiles neither analytic, families nor oracle.
        src = os.path.dirname(os.path.dirname(plrs.__file__))
        probe = (f"import sys; sys.path.insert(0, {src!r}); import plrs.cli; "
                 f"plrs.cli.main(['check', '1,3']); {UNRUN_PROBE}")
        done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[1:] == ["['analytic', 'families', 'oracle', 'transforms']"]

    def test_a_hand_made_witness_is_rechecked_without_the_oracle(self):
        # A subset-sum witness is compared with S_m and H_{m+1}; no bitset.
        src = os.path.dirname(os.path.dirname(plrs.__file__))
        probe = (f"import sys; sys.path.insert(0, {src!r}); import plrs; b = plrs.brown; "
                 "c = plrs.validate([1, 3]); "
                 "print([b.recheck(b.Verdict(c, b.INCOMPLETE, b.failure(m, witness=w), False, m))"
                 " for m, w in ((2, 4), (3, 4), (3, 9))]); "
                 f"{UNRUN_PROBE}")
        done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "[True, False, True]", "['analytic', 'families', 'oracle', 'transforms']"
        ]

    def test_family_names_are_the_families_table(self):
        assert cli._FAMILY_NAMES == tuple(families.FAMILIES)

    def test_option_does_not_carry_over(self, capsys):
        _, first, _ = run_json(capsys, "check", "1,3", "--horizon", "5")
        _, second, _ = run_json(capsys, "check", "1,3")
        assert first["config"]["horizon"] == 5
        assert second["config"]["horizon"] is None

    def test_usage_error_leaves_no_state(self, capsys):
        cli._build_parser.cache_clear()
        expected = run(capsys, "check", "1,3")
        with pytest.raises(SystemExit):
            cli.main(["gen", "1,1", "--n", "3", "--require-definite"])
        capsys.readouterr()
        assert run(capsys, "check", "1,3") == expected

    def test_plain_then_json_gives_clean_json(self, capsys):
        run(capsys, "check", "1,3", "--format", "plain")
        code, out, err = run(capsys, "check", "1,3", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["kind"] == "incomplete"


# Every command, valid and not, with help, unknown commands, leftovers, "--",
# --opt=value, abbreviated options, bad choices, negative and padded numbers,
# an empty --out and repeated options.
PARSE_ARGVS = [
    [], ["-h"], ["--help"], ["--he"], ["frobnicate"], ["frobnicate", "1,3"],
    ["-x", "check", "1,3"], ["--", "check", "1,3"], ["-h", "check", "1,3"],
    ["gen", "1,1", "--n", "5"], ["gen", "1,1"], ["gen", "1,1", "--n", "3", "--require-definite"],
    ["gen", "--n=4", "1,2", "--format", "json"], ["gen", "-h"],
    ["check"], ["check", "1,3"], ["check", "1,3", "extra"], ["check", "-1,3"],
    ["check", "1,3", "--verify", "--horizon", "9", "--format=csv"], ["check", "1,3", "-h"],
    ["check", "--", "1,3"], ["check", "1,3", "--"], ["check", "1,3", "--", "x"],
    ["check", "1,3", "--hor", "5", "--tri", "--assume"], ["check", "1,3", "--horizon=x"],
    ["check", "1,3", "--format", "xml"], ["check", "1,3", "--nope"], ["check", "1,3", "--f", "csv"],
    ["check", "1,3", "dense", "--L", "3"],
    ["oracle-check", "1,2,3,0,1", "--verify"], ["oracle-check", "1,3", "--ver", "--max-p=40"],
    ["oracle-check", "1,3", "--max-prefix", "40", "--out", "x.json", "--require-definite"],
    ["family-table", "--family", "one-zeros", "--k", "1..60"], ["family-table", "--family", "nope"],
    ["family-table", "--family", "one-zeros", "--k", "3..1"],
    ["family-table", "--family", "ones-zeros", "--g", "1..6", "--k", "x"],
    ["family-table", "--family=one-zeros-ones", "--L", "3..10", "--m", "1..8", "--horizon", "50"],
    ["scan-2l1", "--L", "6", "--coeff-cap", "4", "--jobs", "1"], ["scan-2l1", "--L", "6"],
    ["scan-2l1", "--L", "6", "--coeff-cap", "4", "--window", "-1", "--format", "plain"],
    ["min-root", "--L", "4", "--sum-cap", "10", "--jobs", "1", "--tol", "1e-9"],
    ["min-root", "--L", "4", "--sum-cap", "10", "--tol=nan"], ["min-root", "--sum"],
    ["dense", "--L", "12"], ["dense", "--L", "12", "--epsilon", "0.01", "--tol", "0.1"],
    ["dense", "--L"], ["dense", "--L", "x"], ["dense", "-h"], ["dense", "--L", "3", "4"],
    ["check", "1,1", "--horizon", "-5"], ["check", "1,3", "--horizon", " 5"],
    ["dense", "--L", "1e400"], ["dense", "--L", "4", "--tol", "1e400"],
    ["oracle-check", "1,3", "--out", ""], ["oracle-check", "1,3", "--out", "", "--verify"],
    ["check", "1,3", "--verify", "--verify", "--horizon", "5", "--horizon", "7"],
]

COMMANDS = ["gen", "check", "oracle-check", "family-table", "scan-2l1", "min-root", "dense"]
PARSE_TOKENS = [
    *COMMANDS, "-h", "--help", "--", "--n", "--horizon", "--assume-2l1", "--triage-first",
    "--verify", "--format", "--out", "--require-definite", "--max-prefix", "--family", "--g",
    "--k", "--L", "--m", "--coeff-cap", "--window", "--jobs", "--sum-cap", "--tol", "--epsilon",
    "--hor", "--ver", "--fo", "--format=csv", "--L=3", "--tol=nan", "1,3", "1,0,3", "3", "1..4",
    "4..1", "0", "-1", "json", "csv", "plain", "one-zeros", "1e-9", "", "-", "-x", "--nope",
    "frobnicate", "a b", "-5", " 5", "1e400",
]
TOKEN_LISTS = st.lists(st.sampled_from(PARSE_TOKENS), max_size=8)


def _parse_outcome(parse, argv):
    # (namespace or exit code, stdout, stderr); a namespace is compared by the
    # repr of its sorted items, since a nan --tol is unequal to itself.
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = repr(sorted(vars(parse(list(argv))).items()))
    except SystemExit as exc:
        result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParse:
    # cli._parse gives what the top-level parser gives, namespace or exit.

    @pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
    def test_matches_the_top_level_parser(self, argv):
        parser = cli._build_parser()
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(parser.parse_args, argv)

    @settings(deadline=None, max_examples=300)
    @given(argv=TOKEN_LISTS | st.builds(lambda command, rest: [command, *rest],
                                        st.sampled_from(COMMANDS), TOKEN_LISTS))
    def test_matches_the_top_level_parser_on_any_tokens(self, argv):
        parser = cli._build_parser()
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(parser.parse_args, argv)

    @pytest.mark.parametrize("argv", [
        ["gen", "1,1", "--n", "3"], ["check", "1,0,3", "--verify"],
        ["check", "1,0,3", "--triage-first", "--verify"], ["oracle-check", "1,2,3,0,1", "--verify"],
        ["family-table", "--family", "one-zeros", "--k", "1..60"],
        ["family-table", "--family", "ones-zeros", "--g", "1..6", "--k", "1..6"],
        ["family-table", "--family", "two-ones-zeros", "--k", "1..30"],
        ["family-table", "--family", "one-zeros-ones", "--L", "3..10", "--m", "1..8"],
        ["scan-2l1", "--L", "4", "--coeff-cap", "3", "--jobs", "1"],
        ["min-root", "--L", "3", "--sum-cap", "6", "--jobs", "1"], ["dense", "--L", "12"],
    ], ids=["gen", "check", "check --triage-first", "oracle-check", "family-table",
            "family-table ones-zeros", "family-table two-ones-zeros",
            "family-table one-zeros-ones", "scan-2l1", "min-root", "dense"])
    def test_valid_request_skips_the_top_level_parser(self, capsys, monkeypatch, argv):
        # Every request shape of the benchmark's workloads is read by _read,
        # without argparse: parse_args would go through parse_known_args.
        def parse_known_args(*args, **kwargs):
            raise AssertionError("argparse parsed a well-formed request")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse_known_args)
        assert run(capsys, *argv)[0] == 0


def _call(*argv):
    # capsys is function-scoped, so Hypothesis examples capture output themselves.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(values=st.lists(st.integers(0, 4), min_size=1, max_size=6).filter(lambda v: v[0] and v[-1]),
       command=st.sampled_from(["check", "oracle-check"]))
def test_reports_round_trip(values, command):
    text = ",".join(map(str, values))
    code, out, _ = _call(command, text, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    config = payload.pop("config")
    c = validate(values)
    if command == "check":
        verdict = brown.check_completeness(c)
    else:
        verdict = oracle.oracle_verdict(c, config["max_prefix"])
    assert payload == verdict.to_json_dict()

    code, out, _ = _call(command, text, "--format", "csv")
    assert code == 0
    echo, header, row, *rest = out.splitlines()
    assert echo.startswith("# config: ") and rest == []
    fields = dict(zip(header.split(","), row.split(","), strict=True))
    assert {
        "coefficients": [int(v) for v in fields["coefficients"].split(";")],
        "kind": fields["kind"],
        "certificate": fields["certificate"],
        "index": int(fields["index"]) if fields["index"] else None,
        "conjectural": {"true": True, "false": False}[fields["conjectural"]],
        "horizon_used": int(fields["horizon_used"]),
    } == {key: payload[key] for key in CONTRACT_KEYS}

    code, out, _ = _call(command, text, "--format", "plain")
    assert code == 0
    words = out.split()
    assert words[:2] == [str(c), payload["kind"]]
    index = [w for w in words if w.startswith("index=")]
    assert index == ([] if payload["index"] is None else [f"index={payload['index']}"])


def _sparse(L, n, extra):
    # [1, 0^(L-2), n] with the entries of ``extra`` (index: value) set.
    values = [1, *[0] * (L - 2), n]
    for i, ci in extra.items():
        values[i] = ci
    return tuple(values)


# Short vectors with coefficients up to 120 (multi-digit fields), and long
# sparse ones, [1, 0^(L-2), N] with one or two more nonzero entries now and
# then, up to L = 1024.
writer_vectors = st.one_of(
    st.builds(lambda c1, mid, cL: (c1, *mid, cL), st.integers(1, 120),
              st.lists(st.integers(0, 120), max_size=6), st.integers(1, 120)),
    st.integers(2, 1024).flatmap(lambda L: st.builds(
        _sparse, st.just(L), st.integers(1, 2 ** (L - 1)),
        st.dictionaries(st.integers(1, max(L - 2, 1)), st.integers(1, 10**6), max_size=2 * (L > 2)),
    )),
)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), values=writer_vectors,
       command=st.sampled_from(["check", "oracle-check", "gen"]),
       fmt=st.sampled_from(["json", "csv", "plain"]), verify=st.booleans(),
       triage_first=st.booleans())
def test_writer_matches_the_reference_writer(data, values, command, fmt, verify, triage_first):
    # The report text is built once, from the request's own text when it is
    # canonical; every byte of stdout and stderr must be what writing the
    # whole dicts with JSONEncoder(sort_keys=True) gave, for the canonical
    # spelling and for a re-spelled one.
    fields = list(map(str, values))
    canonical = ",".join(fields)
    for i in data.draw(st.sets(st.integers(0, len(values) - 1), max_size=8), label="respelled"):
        fields[i] = data.draw(respelled(values[i]), label=f"c_{i + 1}")
    spelled = ",".join(fields)
    if command == "gen":
        n = data.draw(st.integers(1, len(values) + 5), label="n")
        options, expected = ["--n", str(n)], reference_report("gen", values, fmt, n=n)
    else:
        triage_first &= command == "check"
        options = ["--verify"] * verify + ["--triage-first"] * triage_first
        expected = reference_report(command, values, fmt, verify, triage_first)
    for text in {canonical, spelled}:
        assert _call(command, text, "--format", fmt, *options) == expected


@settings(deadline=None)
@given(data=st.data(), L=st.integers(1, 6), cap=st.integers(1, 4))
def test_scan_matches_brute_force(data, L, cap):
    window = data.draw(st.integers(1, 2 * L + 3), label="window")
    horizon = data.draw(st.none() | st.integers(2 * L - 1, 2 * L + 4), label="horizon")
    argv = ["scan-2l1", "--L", str(L), "--coeff-cap", str(cap), "--window", str(window),
            "--jobs", "1", "--require-definite"]
    if horizon is not None:
        argv += ["--horizon", str(horizon)]
    code, out, _ = _call(*argv)
    payload = json.loads(out)
    candidates, counterexamples, undecided = reference_scan_2l1(L, cap, window, horizon)
    assert payload["candidates"] == candidates
    assert payload["counterexamples"] == counterexamples
    assert payload["undecided"] == undecided
    assert code == (4 if counterexamples else 3 if undecided else 0)


@settings(deadline=None, max_examples=20)
@given(L=st.integers(2, 6), cap=st.integers(2, 10), tol=st.sampled_from([None, 0.1]))
def test_min_root_matches_brute_force(L, cap, tol):
    argv = ["min-root", "--L", str(L), "--sum-cap", str(cap), "--require-definite"]
    code, out, _ = _call(*argv, *([] if tol is None else ["--tol", str(tol)]))
    payload = json.loads(out)
    del payload["config"]
    expected = reference_min_root(L, cap, analytic.DEFAULT_TOL if tol is None else Fraction(tol))
    assert payload == expected
    assert code == (4 if expected["conjecture_violated"] else 3 if expected["undecided"] else 0)
