import json

import numpy as np
import pytest

from nhsdp import (
    Pda,
    conjugate_pda,
    construct_nhsdp,
    group_pda_divisible,
    mn_pda,
    pda_from_nhsdp,
    tradeoff_sweep,
    verify_cdp,
)
from nhsdp import pda as pda_mod
from nhsdp import serialize, simulate
from nhsdp.cli import main
from conftest import EX4_GRID


@pytest.fixture
def ex4_file(tmp_path):
    arr = Pda(np.array(EX4_GRID, dtype=np.int64), Z=2, S=4)
    path = tmp_path / "ex4.txt"
    path.write_text(serialize.pda_to_text(arr))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPipelines:
    def test_construct_then_verify(self, tmp_path, capsys):
        out = tmp_path / "packing.json"
        code, stdout, _ = run(
            capsys, "construct-nhsdp", "--v", 125, "--m", "2,2,2", "--out", out
        )
        assert code == 0 and "(125,8,8) NHSDP: valid" in stdout
        code, stdout, _ = run(capsys, "verify-nhsdp", out)
        assert code == 0 and "(125,8,8) NHSDP: valid" in stdout

    def test_full_chain_to_simulation(self, tmp_path, capsys):
        packing = tmp_path / "p.json"
        arr = tmp_path / "p.txt"
        assert run(capsys, "construct-nhsdp", "--v", 15, "--m", "2", "--out", packing)[0] == 0
        code, stdout, _ = run(capsys, "build-pda", packing, "--out", arr)
        assert code == 0 and "(15,15,11,30) PDA" in stdout
        assert run(capsys, "verify-pda", arr)[0] == 0
        code, stdout, _ = run(
            capsys, "simulate", arr, "--N", 2, "--demands", "sample:40"
        )
        assert code == 0 and "demands decoded" in stdout

    def test_simulate_all_demands_on_worked_array(self, ex4_file, capsys):
        code, stdout, _ = run(capsys, "simulate", ex4_file, "--N", 4, "--demands", "all")
        assert code == 0
        assert "256/256 demands decoded, load = 1" in stdout

    def test_simulate_sample_of_every_demand_is_exhaustive(self, ex4_file, capsys):
        code, stdout, _ = run(capsys, "simulate", ex4_file, "--N", 4, "--demands", "sample:256")
        assert code == 0 and "256/256 demands decoded, load = 1" in stdout

    def test_simulate_explicit_demand_writes_transcript(self, ex4_file, tmp_path, capsys):
        out = tmp_path / "transcript.json"
        code, stdout, _ = run(
            capsys,
            "simulate", ex4_file, "--N", 4, "--demands", "0,1,2,3",
            "--seed", 5, "--out", out,
        )
        assert code == 0 and "4/4 users decoded" in stdout
        doc = json.loads(out.read_text())
        assert doc["seed"] == 5 and len(doc["transmissions"]) == 4

    def test_one_demand_run_builds_the_index_twice(self, ex4_file, tmp_path, capsys, monkeypatch):
        # Once to verify the file and once in deliver; decode reads the
        # transcript's index.  simulate imports symbol_groups by name.
        builds, in_decode = [], []
        real_groups, real_decode = pda_mod.symbol_groups, simulate.decode

        def spy(pda):
            builds.append(pda.params())
            return real_groups(pda)

        def decode(*args):
            before = len(builds)
            try:
                return real_decode(*args)
            finally:
                in_decode.append(len(builds) - before)

        monkeypatch.setattr(pda_mod, "symbol_groups", spy)
        monkeypatch.setattr(simulate, "symbol_groups", spy)
        monkeypatch.setattr(simulate, "decode", decode)
        out = tmp_path / "transcript.json"
        code, stdout, _ = run(
            capsys, "simulate", ex4_file, "--N", 4, "--demands", "0,1,2,3", "--out", out
        )
        assert code == 0 and "4/4 users decoded" in stdout and out.exists()
        assert builds == [(4, 4, 2, 4)] * 2 and in_decode == [0]

    def test_conjugate_and_group(self, ex4_file, tmp_path, capsys):
        conj = tmp_path / "conj.txt"
        code, stdout, _ = run(capsys, "conjugate", ex4_file, "--out", conj)
        assert code == 0 and "(4,4,2,4) PDA" in stdout
        assert run(capsys, "verify-pda", conj)[0] == 0
        grouped = tmp_path / "grouped.txt"
        code, stdout, _ = run(capsys, "group", ex4_file, "--K", 12, "--out", grouped)
        assert code == 0 and "(12,4,2,12) PDA" in stdout
        assert run(capsys, "verify-pda", grouped)[0] == 0

    def test_json_format_flag_round_trips(self, tmp_path, capsys):
        packing = tmp_path / "p.json"
        as_json = tmp_path / "arr.json"
        assert run(capsys, "construct-nhsdp", "--v", 15, "--m", "2", "--out", packing)[0] == 0
        code, _, _ = run(capsys, "build-pda", packing, "--out", as_json)
        assert code == 0
        doc = json.loads(as_json.read_text())
        assert (doc["F"], doc["K"], doc["Z"], doc["S"]) == (15, 15, 11, 30)
        assert run(capsys, "verify-pda", as_json)[0] == 0

    def test_mn_pda_and_solver(self, tmp_path, capsys):
        out = tmp_path / "mn.txt"
        code, stdout, _ = run(capsys, "mn-pda", "--K", 4, "--t", 2, "--out", out)
        assert code == 0 and "(4,6,3,4) PDA" in stdout
        params = tmp_path / "params.json"
        code, stdout, _ = run(
            capsys, "solve-params", "--v", 63, "--n", 2, "--exact", "--out", params
        )
        assert code == 0 and "m=3,4" in stdout and "product=12" in stdout
        assert params.read_text() == (
            '{"v": 63, "n": 2, "solver": "exact", "m": [3, 4], "product": 12, "phi": 31}\n'
        )

    def test_design_chain(self, tmp_path, capsys):
        ntap = tmp_path / "ntap.json"
        phf = tmp_path / "phf.json"
        assert run(capsys, "ntap", "--n", 2, "--out", ntap)[0] == 0
        code, stdout, _ = run(capsys, "phf", ntap, "--out", phf)
        assert code == 0 and "(3;36,9,3) PHF: valid" in stdout
        doc = json.loads(phf.read_text())
        assert doc["m"] == 36 and doc["q"] == 9

    def test_phf_accepts_single_block_packing(self, tmp_path, capsys):
        packing = tmp_path / "ds.json"
        packing.write_text('{"v": 7, "blocks": [[0, 1, 3]]}')
        code, stdout, _ = run(capsys, "phf", packing)
        assert code == 0 and "(3;21,7,3) PHF: valid" in stdout

    def test_ds_search(self, capsys):
        code, stdout, _ = run(capsys, "ds-search", "--q", 3)
        assert code == 0 and "(13,4) DS" in stdout and "0,1,3,9" in stdout
        code, stdout, _ = run(capsys, "ds-search", "--q", 6)
        assert code == 0 and "search space exhausted" in stdout

    @pytest.mark.parametrize("q", [13, 16])
    def test_ds_search_beyond_backtracking(self, tmp_path, capsys, q):
        out = tmp_path / f"ds{q}.json"
        code, stdout, _ = run(capsys, "ds-search", "--q", q, "--out", out)
        v = q * q + q + 1
        assert code == 0 and f"({v},{q + 1}) DS" in stdout
        doc = json.loads(out.read_text())
        assert doc["v"] == v and verify_cdp(v, doc["elements"]).code == "ds"

    def test_compare_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, stdout, _ = run(
            capsys, "compare", "--schemes", "NHSDP,MN", "--K", 25, "--slack", 0, "--out", out
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scheme,params,K,")
        assert any(line.startswith("NHSDP,") for line in lines[1:])
        assert any(line.startswith("MN,") for line in lines[1:])


def _pda_command(name, tmp_path, ex4_file):
    """(argv, the array it builds) for one PDA-writing subcommand."""
    ex4 = serialize.load_pda(ex4_file.read_text())
    if name == "build-pda":
        packing = construct_nhsdp(15, (2,))
        path = tmp_path / "p15.json"
        path.write_text(serialize.nhsdp_to_json(packing))
        return ("build-pda", path), pda_from_nhsdp(packing)
    if name == "conjugate":
        return ("conjugate", ex4_file), conjugate_pda(ex4)
    if name == "group":
        return ("group", ex4_file, "--K", 8), group_pda_divisible(ex4, 8)
    return ("mn-pda", "--K", 5, "--t", 2), mn_pda(5, 2)


class TestOutputFormat:
    @pytest.mark.parametrize("command", ["build-pda", "conjugate", "group", "mn-pda"])
    @pytest.mark.parametrize(
        "name, write",
        [
            ("out.json", serialize.pda_to_json),
            ("OUT.JSON", serialize.pda_to_json),
            ("out.txt", serialize.pda_to_text),
            ("out.json.txt", serialize.pda_to_text),
        ],
        ids=["json", "JSON", "txt", "json_txt"],
    )
    def test_out_name_picks_the_pda_format(self, ex4_file, tmp_path, capsys, command, name, write):
        argv, expected = _pda_command(command, tmp_path, ex4_file)
        out = tmp_path / name
        assert run(capsys, *argv, "--out", out)[0] == 0
        assert out.read_bytes() == write(expected).encode()

    @pytest.mark.parametrize(
        "name, write",
        [
            ("t.json", serialize.scheme_points_to_json),
            ("T.JSON", serialize.scheme_points_to_json),
            ("t.csv", serialize.scheme_points_to_csv),
        ],
        ids=["json", "JSON", "csv"],
    )
    def test_out_name_picks_the_table_format(self, tmp_path, capsys, name, write):
        out = tmp_path / name
        argv = ("compare", "--schemes", "NHSDP,MN", "--K", 25, "--slack", 0, "--out", out)
        assert run(capsys, *argv)[0] == 0
        expected = tradeoff_sweep(25, ["NHSDP", "MN"], slack=0)
        assert expected and out.read_bytes() == write(expected).encode()

    @pytest.mark.parametrize(
        "argv",
        [
            ("build-pda", "p.json", "--format", "json"),
            ("conjugate", "a.txt", "--format", "text"),
            ("group", "a.txt", "--K", 8, "--format", "json"),
            ("mn-pda", "--K", 4, "--t", 2, "--format", "json"),
            ("compare", "--schemes", "MN", "--K", 10, "--format", "json"),
            ("simulate", "a.txt", "--N", 2, "--max-demands", 10),
        ],
        ids=lambda argv: argv[0],
    )
    def test_removed_flags_are_rejected(self, capsys, argv):
        code, _, stderr = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments: --" in stderr


class TestFailures:
    def test_verify_pda_flipped_star_is_c3b(self, ex4_file, tmp_path, capsys):
        lines = ex4_file.read_text().splitlines()
        cells = lines[1].split()
        cells[1] = "3"  # the star at (1,1) becomes a symbol
        mutated = tmp_path / "bad.txt"
        mutated.write_text("\n".join(lines[:1] + [" ".join(cells)] + lines[2:]) + "\n")
        code, stdout, _ = run(capsys, "verify-pda", mutated)
        assert code == 1
        assert "C3b" in stdout and "(0,1)" in stdout and "(1,0)" in stdout

    def test_verify_nhsdp_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"v": 15, "blocks": [[1, 2, 3]]}')
        code, stdout, _ = run(capsys, "verify-nhsdp", bad)
        assert code == 1 and "half-sum" in stdout

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(capsys, "definitely-not-a-command")[0] == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(capsys, "construct-nhsdp", "--v", 15)[0] == 2

    def test_unreadable_file_is_usage_error(self, capsys):
        code, _, stderr = run(capsys, "verify-pda", "/no/such/file.txt")
        assert code == 2 and "cannot read" in stderr

    def test_infeasible_construction_reports_error(self, capsys):
        code, _, stderr = run(capsys, "construct-nhsdp", "--v", 9, "--m", "2,2,2")
        assert code == 2 and stderr.startswith("error: --v: ") and "admissible minimum" in stderr

    def test_simulate_all_over_budget_is_usage_error(self, ex4_file, capsys):
        code, _, stderr = run(capsys, "simulate", ex4_file, "--N", 32, "--demands", "all")
        assert code == 2 and "sample:COUNT" in stderr

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (("--N", 4, "--demands", "0,1,2"), "--demands"),
            (("--N", 2, "--demands", "0,1,2,1"), "--demands"),
            (("--N", 0), "--N"),
            (("--N", 2, "--packet-len", 0), "--packet-len"),
            (("--N", 2, "--demands", "sample:-5"), "--demands"),
            (("--N", 2, "--demands", "sample:abc"), "--demands"),
            (("--N", 2, "--demands", "sample:"), "--demands"),
            (("--N", 2, "--demands", "sample:1e3"), "--demands"),
        ],
        ids=["demand_length", "demand_index", "zero_files", "zero_packet_len", "negative_sample",
             "word_sample", "empty_sample", "float_sample"],
    )
    def test_simulate_bad_values_are_usage_errors(
        self, ex4_file, capsys, monkeypatch, flags, flag
    ):
        built = []
        real = simulate.FileLibrary.random
        monkeypatch.setattr(
            simulate.FileLibrary, "random", staticmethod(lambda *a: built.append(a) or real(*a))
        )
        code, _, stderr = run(capsys, "simulate", ex4_file, *flags)
        assert code == 2 and flag in stderr
        assert built == []  # refused before the library is built

    @pytest.mark.parametrize("count", ["abc", "", "1e3"])
    def test_bad_sample_count_is_refused_before_the_file_is_read(self, capsys, count):
        code, stdout, stderr = run(
            capsys, "simulate", "/no/such/file.txt", "--N", 2, "--demands", f"sample:{count}"
        )
        assert code == 2 and stdout == ""
        assert stderr == f"error: --demands: bad sample count in 'sample:{count}'\n"

    @pytest.mark.parametrize("command", ["verify-nhsdp", "build-pda", "phf"])
    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"v": 7}', "'blocks'"),
            ('{"v": 7, "blocks": "1,2"}', "'blocks'"),
            ('{"v": "7", "blocks": [[1, 6]]}', "'v'"),
            ('{"v": 7, "g": [2], "blocks": [[1, 6]]}', "'g'"),
            ("v = 7", "not JSON"),
        ],
        ids=["missing_blocks", "blocks_type", "v_type", "g_type", "not_json"],
    )
    def test_bad_packing_file_is_usage_error(self, tmp_path, capsys, command, text, field):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, stderr = run(capsys, command, bad)
        assert code == 2 and str(bad) in stderr and field in stderr

    def test_phf_reads_ntap_file(self, tmp_path, capsys):
        ntap = tmp_path / "ntap.json"
        ntap.write_text('{"v": 9, "elements": [1, 2]}')
        code, stdout, _ = run(capsys, "phf", ntap)
        assert code == 0 and "(3;18,9,3) PHF: valid" in stdout
        ntap.write_text('{"v": 9, "elements": [1, "2"]}')
        code, _, stderr = run(capsys, "phf", ntap)
        assert code == 2 and "'elements'" in stderr

    @pytest.mark.parametrize(
        "command",
        [("verify-pda",), ("conjugate",), ("group", "--K", 8), ("simulate", "--N", 2)],
        ids=lambda c: c[0],
    )
    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"F": 1, "K": 1, "Z": [0], "S": 1, "grid": [[1]]}', "'Z'"),
            ('{"F": 1, "K": 1, "Z": 0, "S": 1, "grid": 5}', "'grid'"),
            ('{"F": 1, "K": 1, "Z": 0, "S": 1}', "'grid'"),
            ('{"F": 1, "K": 1, "Z": 0, "S": 1, "grid": [[1.5]]}', "'grid'"),
            ('{"F": 1, "K": 1, "Z": 0, "S": 1, "grid": [["1"]]}', "'grid'"),
            ("* 1\nx *\n", "'x'"),
        ],
        ids=["Z_type", "grid_type", "missing_grid", "float_cell", "string_cell", "text_token"],
    )
    def test_bad_pda_file_is_usage_error(self, tmp_path, capsys, command, text, field):
        bad = tmp_path / "bad.pda"
        bad.write_text(text)
        code, stdout, stderr = run(capsys, command[0], bad, *command[1:])
        assert code == 2 and str(bad) in stderr and field in stderr
        assert "valid" not in stdout

    def test_phf_rejects_two_block_packing(self, tmp_path, capsys):
        packing = tmp_path / "two.json"
        packing.write_text('{"v": 7, "blocks": [[1, 6], [2, 5]]}')
        code, _, stderr = run(capsys, "phf", packing)
        assert code == 2 and str(packing) in stderr and "single-block" in stderr

    @pytest.mark.parametrize(
        "command",
        [("conjugate",), ("group", "--K", 8), ("simulate", "--N", 2, "--demands", "0,1,0,1")],
        ids=lambda c: c[0],
    )
    def test_invalid_pda_is_rejected_before_use(self, ex4_file, tmp_path, capsys, command):
        lines = ex4_file.read_text().splitlines()
        lines[1] = "1 3 2 *"  # the star at (1,1) becomes a symbol: C3b fails
        mutated = tmp_path / "bad.txt"
        mutated.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.txt"
        code, stdout, stderr = run(capsys, command[0], mutated, *command[1:], "--out", out)
        assert code == 1 and "[C3b]" in stderr and str(mutated) in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("demands", ["all", "sample:5"])
    def test_sweep_refuses_out(self, ex4_file, tmp_path, capsys, demands):
        out = tmp_path / "r.json"
        code, stdout, stderr = run(
            capsys, "simulate", ex4_file, "--N", 2, "--demands", demands, "--out", out
        )
        assert code == 2 and stdout == "" and not out.exists()
        assert stderr.startswith("error: --out: ") and demands in stderr

    @pytest.mark.parametrize("q", [1, 17])
    def test_ds_search_order_out_of_range_is_usage_error(self, capsys, q):
        code, _, stderr = run(capsys, "ds-search", "--q", q)
        assert code == 2 and "--q" in stderr

    def test_group_target_not_a_multiple_is_usage_error(self, ex4_file, capsys):
        code, _, stderr = run(capsys, "group", ex4_file, "--K", 6)
        assert code == 2 and "--K" in stderr and "not a positive multiple" in stderr

    @pytest.mark.parametrize(
        "flags, flag, message",
        [
            (("--v", 64, "--n", 2), "--v", "modulus must be odd"),
            (("--v", 7, "--n", 2), "--v", "(v=7, n=2)"),
            (("--v", 7, "--n", 2, "--exact"), "--v", "no feasible m for (v=7, n=2)"),
            (("--v", 63, "--n", 0), "--n", "n must be positive"),
            (("--v", 63, "--n", 0, "--exact"), "--n", "n must be positive"),
        ],
        ids=["even_v", "infeasible", "infeasible_exact", "zero_n", "zero_n_exact"],
    )
    def test_solve_params_bad_values_are_usage_errors(self, capsys, flags, flag, message):
        code, stdout, stderr = run(capsys, "solve-params", *flags)
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: {flag}: ") and message in stderr

    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (("mn-pda", "--K", 5, "--t", 0), "--t", "require 1 <= t < K, got t=0, K=5"),
            (("mn-pda", "--K", 2000, "--t", 3), "--K", "over the limit of MAX_CELLS"),
            (("construct-nhsdp", "--v", 8, "--m", "1"), "--v", "modulus must be odd"),
            (("construct-nhsdp", "--v", 9, "--m", "0"), "--m", "positive integers"),
            (("construct-nhsdp", "--v", 9, "--m", "2,2,2"), "--v", "admissible minimum 125"),
            (("ntap", "--n", 0), "--n", "n must be positive"),
            (("ntap", "--n", 40), "--n", "2^40 elements is over the limit of MAX_CELLS"),
            (("compare", "--schemes", "BOGUS", "--K", 100), "--schemes", "'BOGUS'"),
            (("compare", "--schemes", ",", "--K", 15), "--schemes", "scheme ''"),
            (("compare", "--schemes", "MN", "--K", 0), "--K", "K must be at least 1, got 0"),
            (
                ("compare", "--schemes", "MN", "--K", 1000, "--slack", -1),
                "--slack",
                "slack must be non-negative, got -1",
            ),
            (
                ("compare", "--schemes", "MN", "--K", 4097),
                "--K",
                "K=4097 is over the limit of SWEEP_MAX_K = 4096",
            ),
            (
                ("compare", "--schemes", "MN", "--K", 1000, "--slack", 10**9),
                "--slack",
                "K + slack = 1000001000 over the limit of SWEEP_MAX_K = 4096",
            ),
            (("ds-search", "--q", 10), "--q", "q=10 is not a prime power"),
            (("ds-search", "--q", 12), "--q", "D. M. Gordon, Electron. J. Combin. 1 (1994) R6"),
            (("ds-search", "--q", 14), "--q", "below 2,000,000"),
            (("ds-search", "--q", 15), "--q", "q=15 is not a prime power"),
        ],
        ids=[
            "mn_t", "mn_cells", "even_v", "zero_m", "small_v", "ntap_n", "ntap_cells",
            "scheme", "no_scheme", "compare_K", "compare_slack",
            "compare_K_bound", "compare_slack_bound", "ds_q10", "ds_q12", "ds_q14", "ds_q15",
        ],
    )
    def test_rejected_flag_values_are_usage_errors(self, tmp_path, capsys, argv, flag, message):
        out = tmp_path / "out"
        code, stdout, stderr = run(capsys, *argv, "--out", out)
        assert code == 2 and stdout == "" and not out.exists()
        assert stderr.startswith(f"error: {flag}: ") and message in stderr

    def test_design_sizes_over_cell_limit_are_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 15)
        out = tmp_path / "out.json"
        code, stdout, stderr = run(capsys, "ntap", "--n", 4, "--out", out)
        assert code == 2 and stdout == "" and not out.exists()
        assert stderr.startswith("error: --n: ") and "MAX_CELLS = 15" in stderr
        ntap = tmp_path / "ntap.json"
        ntap.write_text('{"v": 9, "elements": [1, 2]}')
        code, stdout, stderr = run(capsys, "phf", ntap, "--out", out)
        assert code == 2 and stdout == "" and not out.exists()
        assert stderr.startswith(f"error: {ntap}: ") and "3 x 18 = 54 cells" in stderr

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"v": 7, "elements": [0, 1, 2]}', "input is not an NTAP set: 2*1 = 0 + 2 (mod 7)"),
            ('{"v": 8, "elements": [1, 2]}', "the shift construction needs an odd modulus"),
        ],
        ids=["progression", "even_modulus"],
    )
    def test_phf_input_that_is_no_ntap_set_is_usage_error(self, tmp_path, capsys, text, message):
        ntap = tmp_path / "ntap.json"
        ntap.write_text(text)
        out = tmp_path / "phf.json"
        code, stdout, stderr = run(capsys, "phf", ntap, "--out", out)
        assert code == 2 and stdout == "" and not out.exists()
        assert stderr == f"error: {ntap}: {message}\n"

    def test_verify_pda_huge_declared_s_is_c2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"F":1,"K":1,"Z":0,"S":1000000000000000000000000000000,"grid":[[1]]}')
        code, stdout, _ = run(capsys, "verify-pda", path)
        assert code == 1 and stdout.startswith("invalid PDA [C2]: ")
        assert "first missing 2" in stdout

    def test_outputs_over_cell_limit_are_refused(self, ex4_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 15)
        out = tmp_path / "out.txt"
        code, stdout, stderr = run(capsys, "conjugate", ex4_file, "--out", out)
        assert code == 2 and "4 x 4 = 16 cells" in stderr and "MAX_CELLS = 15" in stderr
        assert stdout == "" and not out.exists()
        code, _, stderr = run(capsys, "group", ex4_file, "--K", 8, "--out", out)
        assert code == 2 and stderr.startswith("error: --K: ") and "4 x 8 = 32 cells" in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 *\n* 1\n* *\n", "row 2 is all stars; compact rows before conjugating"),
            ("* *\n* *\n", "conjugate needs 0 < Z < F, got Z=2, F=2"),
        ],
        ids=["all_star_row", "z_equals_f"],
    )
    def test_conjugate_refusals_are_usage_errors(self, tmp_path, capsys, text, message):
        path = tmp_path / "valid.txt"
        path.write_text(text)
        assert run(capsys, "verify-pda", path)[0] == 0
        out = tmp_path / "out.txt"
        code, stdout, stderr = run(capsys, "conjugate", path, "--out", out)
        assert code == 2 and stdout == "" and not out.exists()
        assert stderr == f"error: {path}: {message}\n"

    def test_build_pda_invalid_packing_names_the_file(self, tmp_path, capsys):
        packing = tmp_path / "overlap.json"
        packing.write_text('{"v": 15, "blocks": [[1, 2, 13, 14], [1, 4, 10, 11]]}')
        out = tmp_path / "out.txt"
        code, stdout, stderr = run(capsys, "build-pda", packing, "--out", out)
        assert code == 1 and stdout == "" and not out.exists()
        assert stderr == (
            f"error: {packing} is not a valid NHSDP [disjoint]: "
            "element 1 appears in blocks 0 and 1\n"
        )

    def test_build_pda_refusals_are_usage_errors(self, tmp_path, capsys, monkeypatch):
        packing = tmp_path / "p.json"
        assert run(capsys, "construct-nhsdp", "--v", 15, "--m", 2, "--out", packing)[0] == 0
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 224)
        out = tmp_path / "out.txt"
        code, stdout, stderr = run(capsys, "build-pda", packing, "--out", out)
        assert code == 2 and stdout == "" and not out.exists()
        assert stderr.startswith(f"error: {packing}: ") and "15 x 15 = 225 cells" in stderr
        packing.write_text('{"v": 16, "blocks": [[1, 15]]}')
        for argv in (("build-pda", packing, "--out", out), ("verify-nhsdp", packing)):
            code, stdout, stderr = run(capsys, *argv)
            assert code == 2 and stdout == "" and not out.exists()
            assert stderr == f"error: {packing}: NHSDP modulus must be odd and >= 3, got 16\n"

    @pytest.mark.parametrize(
        "demands", ["all", "sample:3", "0,1,2,3"], ids=["all", "sample", "one_demand"]
    )
    def test_simulate_sizes_over_cell_limit_are_refused(
        self, ex4_file, tmp_path, capsys, monkeypatch, demands
    ):
        out = tmp_path / "transcript.json"
        argv = ("simulate", ex4_file, "--N", 4, "--demands", demands)
        if "," in demands:  # a sweep refuses --out
            argv += ("--out", out)
        built = []
        real = simulate.FileLibrary.random
        monkeypatch.setattr(
            simulate.FileLibrary, "random", staticmethod(lambda *a: built.append(a) or real(*a))
        )
        # ex4 at N=4, packet_len=16: a 4 x 4 x 2-word library, caches of 4 x 4 x 2 x 2 words.
        for limit, message in ((31, "file library array would be 4 x 8 = 32 cells"),
                               (63, "cache array would be 16 x 4 = 64 cells")):
            monkeypatch.setattr(pda_mod, "MAX_CELLS", limit)
            code, stdout, stderr = run(capsys, *argv)
            assert code == 2 and stdout == "" and not out.exists()
            assert stderr.startswith("error: --N, --packet-len: ") and message in stderr
        assert built == []  # refused before the library is built
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 64)
        assert run(capsys, *argv)[0] == 0 and len(built) == 1

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    @pytest.mark.parametrize("command", ["construct-nhsdp", "build-pda", "compare", "simulate"])
    def test_unwritable_out_is_usage_error(self, ex4_file, tmp_path, capsys, command, target):
        packing = tmp_path / "p.json"
        assert run(capsys, "construct-nhsdp", "--v", 15, "--m", 2, "--out", packing)[0] == 0
        argv = {
            "construct-nhsdp": ("construct-nhsdp", "--v", 15, "--m", 2),
            "build-pda": ("build-pda", packing),
            "compare": ("compare", "--schemes", "MN", "--K", 8),
            "simulate": ("simulate", ex4_file, "--N", 4, "--demands", "0,1,2,3"),
        }[command]
        out = tmp_path / "missing" / "x.json" if target == "missing_dir" else tmp_path
        code, _, stderr = run(capsys, *argv, "--out", out)
        assert code == 2 and stderr.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in stderr and stderr.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_determinism(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert run(
                capsys, "compare", "--schemes", "NHSDP,ZCW", "--K", 33, "--out", out
            )[0] == 0
        assert first.read_bytes() == second.read_bytes()
