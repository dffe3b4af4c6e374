"""End-to-end CLI coverage: payloads, files, and the exit-code contract."""

import dataclasses
import errno
import json
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from insdel_lab import cli
from insdel_lab.cli import main
from insdel_lab.codes import vt_binary, write_code
from insdel_lab.verify import Verdict

GREEDY_CODE = Path(__file__).resolve().parent.parent / "perfbench/frozen/greedy_seed0_0.code"


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def payload_of(result) -> dict:
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestTopLevel:
    def test_help_lists_groups(self):
        result = run("--help")
        assert result.exit_code == 0
        for group in ("bound", "identity", "code", "verify", "figure", "regress"):
            assert group in result.output


def _command_paths(group, path=()):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _command_paths(command, (*path, name))
        else:
            yield (*path, name)


class TestCommandEdge:
    @pytest.mark.parametrize("path", list(_command_paths(main)), ids=" ".join)
    def test_every_command_has_help_and_maps_library_errors(self, path):
        assert run(*path, "--help").exit_code == 0
        command = main
        for name in path:
            assert isinstance(command, cli._Group)
            command = command.get_command(None, name)
        assert isinstance(command, cli._Command)

    @pytest.mark.parametrize(
        "args, option, text",
        [
            (("bound", "rho", "--delta", "abc", "--list-size", "2"), "--delta", "abc"),
            (("bound", "rho", "--delta", "0.9", "--list-size", "2", "--tau-d", "1/0"), "--tau-d", "1/0"),
            (("bound", "hy", "--delta", "0.9", "--list-size", "2", "--tau-i", "x"), "--tau-i", "x"),
            (("figure", "fig3", "--list-size", "2", "--rates", "1/4,x", "--out", "f.csv"), "--rates", "1/4,x"),
            (("figure", "fig2", "--delta", "0.8", "--list-sizes", "2,3.5", "--out", "f.csv"), "--list-sizes", "2,3.5"),
            (("code", "rs", "--p", "5", "--n", "3", "--k", "2", "--alpha", "6,3,x", "--out", "c.code"), "--alpha", "6,3,x"),
        ],
        ids=["delta", "tau-d", "tau-i", "rates", "list-sizes", "alpha"],
    )
    def test_a_malformed_value_names_its_option(self, tmp_path, monkeypatch, args, option, text):
        monkeypatch.chdir(tmp_path)
        result = run(*args)
        assert result.exit_code == 2, result.output
        assert f"Error: Invalid value for '{option}': cannot parse '{text}'" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_a_library_value_error_shows_the_commands_usage(self):
        result = run("bound", "rho", "--delta", "0.9", "--list-size", "1")
        assert result.exit_code == 2
        assert result.output == (
            "Usage: main bound rho [OPTIONS]\n"
            "Try 'main bound rho --help' for help.\n\n"
            "Error: list size must be an integer >= 2, got 1\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ("bound", "compare", "--delta", "0.9", "--list-size", "2", "--csv"),
            ("code", "vt", "--n", "4", "--a", "0", "--out"),
            ("code", "vtq", "--n", "4", "--q", "3", "--a", "0", "--b", "0", "--out"),
            ("code", "helberg", "--q", "2", "--n", "5", "--s", "2", "--a", "0", "--out"),
            ("code", "rs", "--p", "5", "--n", "4", "--k", "2", "--alpha", "1,2,4,3", "--out"),
            ("code", "rs-search", "--p", "5", "--n", "3", "--k", "1", "--out"),
            ("figure", "fig1", "--delta", "0.9", "--list-size", "2", "--out"),
            ("figure", "fig2", "--delta", "0.8", "--list-sizes", "2,3", "--out"),
            ("figure", "fig3", "--list-size", "2", "--rates", "1/4", "--out"),
        ],
        ids=lambda args: " ".join(args[:2]),
    )
    def test_a_file_that_cannot_be_written_exits_two(self, tmp_path, args):
        path = tmp_path / "missing" / "x.out"
        result = run(*args, str(path))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"Error: [Errno 2] No such file or directory: '{path}'" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_a_code_file_that_cannot_be_read_exits_two(self, tmp_path, monkeypatch):
        path = tmp_path / "vt6.code"
        write_code(vt_binary(6, 0), path)

        def refused(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refused)
        for command in (
            ["mindist"],
            ["list-decodable", "--ti", "1", "--td", "0", "--list-size", "2"],
            ["theorem", "--list-size", "2"],
        ):
            result = run("verify", *command, "--code", str(path))
            assert result.exit_code == 2, result.output
            assert isinstance(result.exception, SystemExit)
            assert f"Error: [Errno 13] Permission denied: '{path}'" in result.output

    def test_a_malformed_code_line_is_named(self, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("q=2 n=3\n0,0,1\n\n0,1\n")
        result = run("verify", "mindist", "--code", str(path))
        assert result.exit_code == 2, result.output
        assert f"Error: {path}:4: codeword '0,1' (q=2, n=2) does not match q=2, n=3" in result.output

    def test_no_json_form_is_a_type_error(self):
        with pytest.raises(TypeError, match="^no JSON form for object$"):
            cli._plain(object())


class TestBoundCommands:
    def test_rho_value_at_tau(self):
        payload = payload_of(
            run("bound", "rho", "--delta", "0.9", "--list-size", "2", "--tau-d", "0")
        )
        assert payload["value"] == "17/15"
        assert payload["unique_decoding"] == "9/10"

    def test_rho_accepts_fraction_syntax(self):
        payload = payload_of(
            run("bound", "rho", "--delta", "9/10", "--list-size", "2", "--tau-d", "7/10")
        )
        assert payload["value"] == "1/5"

    def test_rho_piece_decomposition(self):
        payload = payload_of(run("bound", "rho", "--delta", "0.9", "--list-size", "2"))
        assert payload["r_min"] == 1
        assert payload["breakpoints"] == ["3/10"]
        assert [p["r"] for p in payload["pieces"]] == [2, 1]

    def test_compare_csv_output(self, tmp_path):
        out = tmp_path / "table.csv"
        payload = payload_of(
            run(
                "bound",
                "compare",
                "--delta",
                "0.9",
                "--list-size",
                "2",
                "--csv",
                str(out),
                "--points",
                "16",
            )
        )
        assert payload["csv"] == str(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "tau_d,rho,phi1,phi2,unique"
        assert len(lines) == 17
        # the table has this one site
        for command in ("rho", "hy"):
            args = ("bound", command, "--delta", "0.9", "--list-size", "2", "--csv", str(out))
            assert run(*args).exit_code == 2

    def test_rho_invalid_inputs_exit_two(self):
        assert run("bound", "rho", "--delta", "abc", "--list-size", "2").exit_code == 2
        assert run("bound", "rho", "--delta", "1.5", "--list-size", "2").exit_code == 2
        assert run("bound", "rho", "--delta", "0.9", "--list-size", "1").exit_code == 2
        # the unique-decoding line is defined at delta = 1, the insertion bound is not
        for extra in ((), ("--tau-d", "0")):
            result = run("bound", "rho", "--delta", "1", "--list-size", "2", *extra)
            assert result.exit_code == 2, result.output

    def test_rho_tau_d_outside_zero_to_delta_exit_two(self):
        # the message names the option, not the x = 1 - tau_d it is read as
        command = ["bound", "rho", "--delta", "9/10", "--list-size", "2", "--tau-d"]
        for tau in ("-1/2", "19/20"):
            result = run(*command, tau)
            assert result.exit_code == 2, result.output
            assert f"--tau-d must lie in [0, 9/10], got {tau}" in result.output
        assert payload_of(run(*command, "9/10"))["value"] == "0"
        # tau_d = 0 is in range for every delta; a bad delta is named as such
        result = run("bound", "rho", "--delta", "-1", "--list-size", "2", "--tau-d", "0")
        assert result.exit_code == 2, result.output
        assert "relative distance must satisfy 0 < delta < 1, got -1" in result.output

    def test_hy_values(self):
        payload = payload_of(
            run("bound", "hy", "--delta", "0.9", "--list-size", "2")
        )
        assert payload["phi1"] == "9"
        assert payload["phi2"] == "3/2"
        assert "hy_list_size" not in payload

    def test_hy_list_size_formula(self):
        payload = payload_of(
            run(
                "bound",
                "hy",
                "--delta",
                "0.9",
                "--list-size",
                "2",
                "--tau-i",
                "0.5",
            )
        )
        assert payload["hy_list_size"] == 1

    def test_hy_outside_region_is_null(self):
        payload = payload_of(
            run("bound", "hy", "--delta", "0.5", "--list-size", "2", "--tau-i", "1")
        )
        assert payload["hy_list_size"] is None

    def test_hy_tau_d_outside_unit_interval_exit_two(self):
        command = ["bound", "hy", "--delta", "0.9", "--list-size", "2", "--tau-d"]
        for tau in ("3", "1", "-1/2"):
            for extra in ((), ("--tau-i", "0.5")):
                result = run(*command, tau, *extra)
                assert result.exit_code == 2, result.output
                assert "--tau-d must lie in [0, 1)" in result.output
        # beyond delta the quadratics are still defined, and negative
        assert payload_of(run(*command, "19/20"))["phi1"] == "-1/40"

    def test_compare_landmarks(self):
        payload = payload_of(run("bound", "compare", "--delta", "0.9", "--list-size", "2"))
        assert set(payload) == {
            "delta",
            "list_size",
            "delta1",
            "beta2",
            "interval_tau_d",
            "p1",
            "p2",
            "extra_crossings",
        }
        assert payload["p2"] == [0.7, 0.2]
        assert payload["interval_tau_d"][1] == 0.7
        assert payload["extra_crossings"] is False

    def test_compare_below_crossover(self):
        payload = payload_of(run("bound", "compare", "--delta", "0.6", "--list-size", "2"))
        assert payload["interval_tau_d"] is None
        assert payload["p1"] is None and payload["p2"] is None

    def test_compare_at_a_billion(self):
        # the report bisects over the pieces and builds none of them
        result = run("bound", "compare", "--delta", "0.9", "--list-size", "1000000000")
        assert result.exit_code == 0, result.output
        payload = payload_of(result)
        assert None not in (payload["p1"], payload["p2"], payload["interval_tau_d"])


class TestIdentityCommands:
    def test_covers(self):
        payload = payload_of(
            run("identity", "covers", "--j", "3", "--ell", "2", "--v", "2")
        )
        assert payload["value"] == 3
        assert payload["oracle_value"] == 3

    def test_covers_cap_exit_one(self):
        result = run(
            "identity", "covers", "--j", "8", "--ell", "10", "--v", "4", "--cap", "100"
        )
        assert result.exit_code == 1

    def test_covers_negative_cap_exit_two(self):
        command = ["identity", "covers", "--j", "3", "--ell", "2", "--v", "2", "--cap"]
        result = run(*command, "-1")
        assert result.exit_code == 2
        assert "-1 is not in the range x>=0" in result.output
        # cap 0 is valid input; the three families exceed it
        assert run(*command, "0").exit_code == 1

    def test_covers_invalid_exit_two(self):
        assert run("identity", "covers", "--j", "0", "--ell", "1", "--v", "1").exit_code == 2

    def test_ajv(self):
        payload = payload_of(run("identity", "ajv", "--j", "6", "--v", "2"))
        assert payload["value"] == payload["oracle_value"] == 5
        negative = payload_of(run("identity", "ajv", "--j", "5", "--v", "2"))
        assert negative["value"] == negative["oracle_value"] == -4

    def test_claim8_is_exactly_one(self):
        payload = payload_of(run("identity", "claim8", "--j", "12", "--v", "5"))
        assert payload["value"] == 1
        assert isinstance(payload["value"], int)

    def test_phi_row(self):
        payload = payload_of(run("identity", "phi", "--list-size", "4", "--r", "2"))
        assert payload["value"] == [2, -1, 0, 1, -2]
        assert payload["oracle_value"] == [2, -1, 0, 1, -2]

    def test_phi_alternating_row(self):
        payload = payload_of(run("identity", "phi", "--list-size", "4", "--r", "1"))
        assert payload["value"] == [1, -1, 1, -1, 1]

    def test_phi_refuses_a_non_integer_tail_term(self, monkeypatch):
        monkeypatch.setattr(cli, "elimination_tail_term", lambda r, j: Fraction(1, 2))
        with pytest.raises(AssertionError, match=r"^non-integer tail term at \(r=2, j=4\)$"):
            run("identity", "phi", "--list-size", "4", "--r", "2", catch_exceptions=False)

    def test_a_mismatch_exits_one(self, monkeypatch):
        monkeypatch.setattr(cli, "count_v_covers", lambda j, ell, v: 4)
        result = run("identity", "covers", "--j", "3", "--ell", "2", "--v", "2")
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert (payload["value"], payload["oracle_value"]) == (4, 3)


class TestCodeCommands:
    def test_vt_then_mindist(self, tmp_path):
        out = tmp_path / "vt.code"
        payload = payload_of(run("code", "vt", "--n", "4", "--a", "0", "--out", str(out)))
        assert payload["size"] == 4
        checked = payload_of(run("verify", "mindist", "--code", str(out)))
        assert checked["min_levenshtein_distance"] == 4

    def test_vtq(self, tmp_path):
        out = tmp_path / "vtq.code"
        payload = payload_of(
            run("code", "vtq", "--n", "2", "--q", "3", "--a", "0", "--b", "0", "--out", str(out))
        )
        assert payload["size"] == 1
        assert out.read_text().splitlines()[1] == "2,1"

    def test_helberg(self, tmp_path):
        out = tmp_path / "helberg.code"
        payload = payload_of(
            run("code", "helberg", "--q", "2", "--n", "5", "--s", "2", "--a", "0", "--out", str(out))
        )
        assert payload["size"] == 2
        checked = payload_of(run("verify", "mindist", "--code", str(out)))
        assert checked["min_levenshtein_distance"] == 6

    def test_rs_with_cyclic_alpha(self, tmp_path):
        out = tmp_path / "rs.code"
        payload = payload_of(
            run(
                "code",
                "rs",
                "--p",
                "5",
                "--n",
                "4",
                "--k",
                "2",
                "--alpha",
                "1,2,4,3",
                "--out",
                str(out),
            )
        )
        assert payload["size"] == 25
        checked = payload_of(run("verify", "mindist", "--code", str(out)))
        assert checked["min_levenshtein_distance"] == 2

    def test_rs_invalid_parameters_exit_two(self, tmp_path):
        out = tmp_path / "bad.code"
        result = run("code", "rs", "--p", "5", "--n", "2", "--k", "3", "--out", str(out))
        assert result.exit_code == 2
        result = run("code", "rs-search", "--p", "5", "--n", "7", "--k", "1")
        assert result.exit_code == 2, result.output
        assert "need 1 <= k <= n <= p, got k=1, n=7, p=5" in result.output
        # random.Random would read -3 as 3
        result = run("code", "rs-search", "--p", "7", "--n", "5", "--k", "2", "--seed", "-3")
        assert result.exit_code == 2, result.output
        assert "seed must be nonnegative, got -3" in result.output

    def test_rs_search_over_the_cap_exit_one(self):
        # the cap is checked before any of the 101^4 codewords is built
        result = run("code", "rs-search", "--p", "101", "--n", "5", "--k", "4")
        assert result.exit_code == 1, result.output
        assert "p^k = 104060401 codewords exceed cap 1000000" in result.stderr

    def test_rs_search(self, tmp_path):
        out = tmp_path / "searched.code"
        payload = payload_of(
            run("code", "rs-search", "--p", "5", "--n", "4", "--k", "1", "--out", str(out))
        )
        assert set(payload) == {
            "alpha",
            "achieved",
            "target",
            "met_target",
            "examined",
            "exhaustive",
            "out",
        }
        assert payload["achieved"] == 8
        assert payload["met_target"] is True
        assert payload["exhaustive"] is True
        assert out.exists()

    def test_rs_search_exhaustive_json(self):
        # all 120 tuples are examined, in 4 classes of evaluation points, so
        # most distances come from the search's per-class memo
        result = run("code", "rs-search", "--p", "5", "--n", "5", "--k", "2")
        expected = {
            "achieved": 4,
            "alpha": [0, 1, 4, 2, 3],
            "examined": 120,
            "exhaustive": True,
            "met_target": False,
            "target": 6,
        }
        assert payload_of(result) == expected
        assert result.output == json.dumps(expected, sort_keys=True, indent=2) + "\n"


class TestVerifyCommands:
    def test_list_decodable_pass(self, tmp_path):
        out = tmp_path / "vt6.code"
        payload_of(run("code", "vt", "--n", "6", "--a", "0", "--out", str(out)))
        result = run(
            "verify",
            "list-decodable",
            "--code",
            str(out),
            "--ti",
            "1",
            "--td",
            "0",
            "--list-size",
            "2",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload) == {"decodable", "t_ins", "t_del", "list_size", "witness"}
        assert payload["decodable"] is True
        assert payload["witness"] is None

    def test_list_decodable_failure_with_witness(self, tmp_path):
        out = tmp_path / "cube.code"
        from insdel_lab.codes import Code, write_code
        from insdel_lab.words import all_words

        write_code(
            Code(q=2, n=3, codewords=frozenset(all_words(2, 3))), out
        )
        result = run(
            "verify",
            "list-decodable",
            "--code",
            str(out),
            "--ti",
            "1",
            "--td",
            "0",
            "--list-size",
            "1",
            "--witness",
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["decodable"] is False
        assert set(payload["witness"]) == {"received", "codewords"}
        assert payload["witness"]["received"] == "0,0,0,1"
        assert payload["witness"]["codewords"] == ["0,0,0", "0,0,1"]

    def test_witness_census_over_the_cap_is_null(self):
        # the DP finds (7, 0) failing at L=2; the witness census needs a ball over 1000
        command = ["list-decodable", "--ti", "7", "--td", "0", "--list-size", "2"]
        result = run(
            "verify", *command, "--code", str(GREEDY_CODE), "--witness", "--cap", "1000"
        )
        assert result.exit_code == 1, result.output
        assert '"witness": null' in result.output
        assert json.loads(result.output)["decodable"] is False

    def test_list_decodable_bytes_of_both_censuses(self, tmp_path):
        # VT_0(12) without --witness reaches the verdict census, with it the
        # witness census; the greedy code at (7, 0) is decided by the DP
        vt12 = tmp_path / "vt12.code"
        write_code(vt_binary(12, 0), vt12)
        pins = [
            (vt12, "2 1 2", "", '{\n  "decodable": false,\n  "list_size": 2,\n'
             '  "t_del": 1,\n  "t_ins": 2,\n  "witness": null\n}\n'),
            (vt12, "2 1 2", "--witness", '{\n  "decodable": false,\n  "list_size": 2,\n'
             '  "t_del": 1,\n  "t_ins": 2,\n  "witness": {\n    "codewords": [\n'
             '      "0,0,0,0,0,0,0,0,0,0,0,0",\n      "0,1,0,0,0,0,0,0,0,0,1,0",\n'
             '      "1,0,0,0,0,0,0,0,0,0,0,1"\n    ],\n'
             '    "received": "0,0,0,0,0,0,0,0,0,0,1,0"\n  }\n}\n'),
            (vt12, "1 1 1", "", '{\n  "decodable": false,\n  "list_size": 1,\n'
             '  "t_del": 1,\n  "t_ins": 1,\n  "witness": null\n}\n'),
            (vt12, "1 1 1", "--witness", '{\n  "decodable": false,\n  "list_size": 1,\n'
             '  "t_del": 1,\n  "t_ins": 1,\n  "witness": {\n    "codewords": [\n'
             '      "0,0,0,0,0,0,0,0,0,0,0,0",\n      "1,0,0,0,0,0,0,0,0,0,0,1"\n    ],\n'
             '    "received": "0,0,0,0,0,0,0,0,0,0,0,1"\n  }\n}\n'),
        ]
        greedy = (
            '{\n  "decodable": false,\n  "list_size": 2,\n'
            '  "t_del": 0,\n  "t_ins": 7,\n  "witness": null\n}\n'
        )
        pins += [(GREEDY_CODE, "7 0 2", extra, greedy) for extra in ("", "--cap 1000")]
        for path, radii, extra, expected in pins:
            ti, td, list_size = radii.split()
            args = ["--ti", ti, "--td", td, "--list-size", list_size, *extra.split()]
            result = run("verify", "list-decodable", "--code", str(path), *args)
            assert (result.exit_code, result.output) == (1, expected), args

    def test_theorem_pass(self, tmp_path):
        out = tmp_path / "vt6.code"
        payload_of(run("code", "vt", "--n", "6", "--a", "0", "--out", str(out)))
        result = run("verify", "theorem", "--code", str(out), "--list-size", "2")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload) == {
            "n",
            "distance",
            "delta",
            "list_size",
            "checked",
            "violations",
            "skipped",
            "beats_unique_decoding",
            "ok",
        }
        assert payload["ok"] is True
        assert payload["delta"] == "1/3"
        assert payload["checked"] == [[0, 0], [1, 0], [0, 1]]

    def test_theorem_violation_exits_one(self, tmp_path, monkeypatch):
        out = tmp_path / "vt6.code"
        payload_of(run("code", "vt", "--n", "6", "--a", "0", "--out", str(out)))
        real = cli.check_bound_region

        def violated(code, list_size, cap):
            report = real(code, list_size, cap=cap)
            return dataclasses.replace(report, violations=(Verdict(False, 1, 0, list_size),))

        monkeypatch.setattr(cli, "check_bound_region", violated)
        result = run("verify", "theorem", "--code", str(out), "--list-size", "2")
        assert result.exit_code == 1, result.output
        payload = json.loads(result.output)
        assert payload["ok"] is False
        assert payload["violations"] == [
            {"decodable": False, "list_size": 2, "t_del": 0, "t_ins": 1, "witness": None}
        ]

    def test_theorem_unique_decoding(self, tmp_path):
        out = tmp_path / "vt6.code"
        payload_of(run("code", "vt", "--n", "6", "--a", "0", "--out", str(out)))
        payload = payload_of(
            run("verify", "theorem", "--code", str(out), "--list-size", "1")
        )
        assert payload["ok"] is True
        assert payload["checked"] == [[0, 0], [1, 0], [0, 1]]
        result = run("verify", "theorem", "--code", str(out), "--list-size", "0")
        assert result.exit_code == 2, result.output
        assert "list size must be at least 1" in result.output

    def test_workers_option_is_unknown(self, tmp_path):
        out = tmp_path / "vt6.code"
        payload_of(run("code", "vt", "--n", "6", "--a", "0", "--out", str(out)))
        command = ["list-decodable", "--ti", "1", "--td", "0", "--list-size", "2"]
        result = run("verify", *command, "--code", str(out), "--workers", "2")
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output and "--workers" in result.output

    def test_negative_cap_exit_two(self, tmp_path):
        # a q=5, n=5 code of distance 8, over the list-decoding threshold at L=2
        out = tmp_path / "greedy.code"
        out.write_text("q=5 n=5\n0,0,0,0,4\n0,2,2,2,3\n1,2,4,4,4\n3,2,0,1,1\n")
        decodable = ["list-decodable", "--ti", "4", "--td", "0", "--list-size", "2"]
        theorem = ["theorem", "--list-size", "2"]
        for command in (decodable, theorem):
            result = run("verify", *command, "--code", str(out), "--cap", "-1")
            assert result.exit_code == 2, result.output
            assert "-1 is not in the range x>=0" in result.output
        # cap 0 keeps only what the alignment DP decides
        payload = payload_of(run("verify", *decodable, "--code", str(out), "--cap", "0"))
        assert payload["decodable"] is True
        payload = payload_of(run("verify", *theorem, "--code", str(out), "--cap", "0"))
        assert payload["ok"] is True and [1, 0] in payload["checked"]
        assert [0, 0] in payload["checked"] and [0, 1] in payload["checked"]
        assert payload["skipped"] == []

    def test_missing_code_file_exit_two(self):
        result = run(
            "verify", "mindist", "--code", "/nonexistent/zzz.code"
        )
        assert result.exit_code == 2


class TestFigureCommands:
    def test_fig1_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            payload_of(
                run(
                    "figure",
                    "fig1",
                    "--delta",
                    "0.9",
                    "--list-size",
                    "2",
                    "--out",
                    str(out),
                    "--points",
                    "32",
                )
            )
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "tau_d,rho,phi2,unique,landmark"

    def test_fig2_columns(self, tmp_path):
        out = tmp_path / "profiles.csv"
        payload_of(
            run(
                "figure",
                "fig2",
                "--delta",
                "0.8",
                "--list-sizes",
                "2,3,10",
                "--out",
                str(out),
                "--points",
                "16",
            )
        )
        assert out.read_text().splitlines()[0] == "x,rho_L2,rho_L3,rho_L10"

    def test_fig3_rates(self, tmp_path):
        out = tmp_path / "rates.csv"
        payload_of(
            run(
                "figure",
                "fig3",
                "--list-size",
                "2",
                "--rates",
                "1/4,2/5",
                "--out",
                str(out),
                "--points",
                "8",
            )
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "rate,tau_d,tau_i_max"
        assert len(lines) == 17

    @pytest.mark.parametrize(
        "args, message",
        [
            (("fig2", "--delta", "0.8", "--list-sizes", "2,2"), "list size 2 is repeated"),
            (("fig3", "--list-size", "2", "--rates", "1/4,0.25"), "rate 1/4 is repeated"),
        ],
        ids=["fig2", "fig3"],
    )
    def test_a_repeated_value_exits_two_and_writes_nothing(self, tmp_path, args, message):
        out = tmp_path / "repeated.csv"
        result = run("figure", *args, "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.output.endswith(f"Error: {message}\n")
        assert not out.exists()

    def test_fig3_invalid_rate_exit_two(self, tmp_path):
        out = tmp_path / "bad.csv"
        for rates in ("0.5", "1/0"):
            result = run(
                "figure", "fig3", "--list-size", "2", "--rates", rates, "--out", str(out)
            )
            assert result.exit_code == 2
