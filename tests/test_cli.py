"""End-to-end CLI coverage: payloads, files, and the exit-code contract."""

import json

from click.testing import CliRunner

from insdel_lab.cli import main


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

    def test_rho_csv_output(self, tmp_path):
        out = tmp_path / "table.csv"
        payload = payload_of(
            run(
                "bound",
                "rho",
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

    def test_rho_invalid_inputs_exit_two(self):
        assert run("bound", "rho", "--delta", "abc", "--list-size", "2").exit_code == 2
        assert run("bound", "rho", "--delta", "1.5", "--list-size", "2").exit_code == 2
        assert run("bound", "rho", "--delta", "0.9", "--list-size", "1").exit_code == 2
        # the unique-decoding line is defined at delta = 1, the insertion bound is not
        for extra in ((), ("--tau-d", "0")):
            result = run("bound", "rho", "--delta", "1", "--list-size", "2", *extra)
            assert result.exit_code == 2, result.output

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
        assert payload["skipped"] == [[0, 0], [0, 1]]

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

    def test_fig3_invalid_rate_exit_two(self, tmp_path):
        out = tmp_path / "bad.csv"
        for rates in ("0.5", "1/0"):
            result = run(
                "figure", "fig3", "--list-size", "2", "--rates", rates, "--out", str(out)
            )
            assert result.exit_code == 2
