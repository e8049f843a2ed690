"""CLI tests: parsing, subcommand output shapes, exit codes, determinism."""

import json

import oracles
import pytest

import latperm.entropy as entropy
from latperm.cli import RunConfig, main, parse_tori, parse_windows
from latperm.fkdet import FAMILY_CSV_HEADER
from latperm.groupring import GroupRingElement, Window
from latperm.permanent import window_permanent

GOLDEN = '{"dim":1,"terms":[{"exp":[0],"coef":1},{"exp":[1],"coef":1},{"exp":[2],"coef":1}]}'
GOLDEN_SIGNED = '{"dim":1,"terms":[{"exp":[2],"coef":1},{"exp":[1],"coef":1},{"exp":[0],"coef":-1}]}'
TWO_POINT = '{"points": [[0], [1]]}'
L_SHAPE = '{"points": [[0,0], [1,0], [0,1]]}'


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_windows_range(self):
        assert parse_windows("4..12") == tuple(range(4, 13))

    def test_windows_single_and_list(self):
        assert parse_windows("6") == (6,)
        assert parse_windows("2,4,6") == (2, 4, 6)

    def test_windows_sorted_and_deduped(self):
        assert parse_windows("6,2,6,4") == (2, 4, 6)

    def test_windows_rejects_empty_range(self):
        with pytest.raises(ValueError):
            parse_windows("8..4")
        with pytest.raises(ValueError):
            parse_windows("")

    def test_windows_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parse_windows("0..3")

    def test_tori_products(self):
        assert parse_tori("4x4,6x6") == ((4, 4), (6, 6))

    def test_tori_range_and_list(self):
        assert parse_tori("4..6") == ((4,), (5,), (6,))
        assert parse_tori("4,6,8") == ((4,), (6,), (8,))

    def test_tori_rejects_bad(self):
        with pytest.raises(ValueError):
            parse_tori("")
        with pytest.raises(ValueError):
            parse_tori("0x4")

    def test_runconfig_validation(self):
        with pytest.raises(ValueError):
            RunConfig(command="frobnicate")
        with pytest.raises(ValueError):
            RunConfig(command="entropy", out_format="xml")
        with pytest.raises(ValueError):
            RunConfig(command="entropy", threads=0)
        with pytest.raises(ValueError):
            RunConfig(command="entropy", budget=0)

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2


class TestEntropy:
    def test_two_point_json(self, capsys):
        code, out, _ = run(capsys, ["entropy", "--inline", TWO_POINT,
                                    "--windows", "4..8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "entropy"
        assert payload["transfer_value"] == 0.0
        assert payload["lower_label"] == "converging-lower"
        assert payload["capacity_skipped"] == []
        infimum = payload["running_infimum"]
        assert infimum == sorted(infimum, reverse=True)
        assert payload["certified_upper"] == infimum[-1]

    def test_file_and_inline_agree(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(TWO_POINT)
        _, out_inline, _ = run(capsys, ["entropy", "--inline", TWO_POINT,
                                        "--windows", "4..6"])
        _, out_file, _ = run(capsys, ["entropy", "--input", str(path),
                                      "--windows", "4..6"])
        assert out_inline == out_file

    def test_weighted_input_reduced_to_indicator(self, capsys):
        weighted = '{"dim":1,"terms":[{"exp":[0],"coef":5},{"exp":[1],"coef":2}]}'
        _, out_w, _ = run(capsys, ["entropy", "--inline", weighted,
                                   "--windows", "4..6"])
        _, out_i, _ = run(capsys, ["entropy", "--inline", TWO_POINT,
                                   "--windows", "4..6"])
        assert out_w == out_i

    def test_csv_deterministic(self, capsys):
        argv = ["entropy", "--inline", GOLDEN, "--windows", "4..8",
                "--format", "csv"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "window,size,log_value,normalized,kind"

    def test_threads_do_not_change_output(self, capsys):
        base = ["entropy", "--inline", GOLDEN, "--windows", "4..8",
                "--format", "csv"]
        _, out1, _ = run(capsys, base + ["--threads", "1"])
        _, out2, _ = run(capsys, base + ["--threads", "3"])
        assert out1 == out2

    def test_capacity_partial_output_exit_3(self, capsys):
        code, out, _ = run(capsys, ["entropy", "--inline", L_SHAPE,
                                    "--windows", "2,6", "--budget", "500"])
        assert code == 3
        payload = json.loads(out)
        assert payload["capacity_skipped"]
        assert any(r["window"] == "2x2" for r in payload["rows"])


class TestPressure:
    def test_numerical_failure_exit_4(self, capsys, monkeypatch):
        def fail(f):
            raise ArithmeticError("power iteration did not converge")

        monkeypatch.setattr(entropy, "transfer_pressure", fail)
        code, out, err = run(capsys, ["pressure", "--inline", GOLDEN,
                                      "--windows", "2..3"])
        assert code == 4
        assert out == ""
        assert err == "error: numerical: power iteration did not converge\n"
        assert "Traceback" not in err

    def test_weighted_keeps_weights(self, capsys):
        weighted = ('{"dim":1,"terms":[{"exp":[0],"coef":1},'
                    '{"exp":[1],"coef":2},{"exp":[2],"coef":1}]}')
        code, out, _ = run(capsys, ["pressure", "--inline", weighted,
                                    "--windows", "4..6"])
        assert code == 0
        payload = json.loads(out)
        assert payload["transfer_value"] > 0.5

    def test_long_float_torus_stays_finite(self, capsys):
        # the 4000-site torus of the weights scaled to max 1 is about e^780
        heavy = ('{"dim":1,"terms":[{"exp":[0],"coef":1.5},'
                 '{"exp":[1],"coef":1},{"exp":[2],"coef":1}]}')
        code, out, _ = run(capsys, ["pressure", "--inline", heavy,
                                    "--windows", "4", "--tori", "4000"])
        assert code == 0
        payload = json.loads(out)
        torus = [r for r in payload["rows"] if r["kind"] == "torus"]
        assert torus[0]["log_value"] == pytest.approx(4000 * payload["transfer_value"],
                                                      rel=1e-9)
        assert payload["lower_estimate"] == pytest.approx(payload["transfer_value"],
                                                          abs=1e-9)

    def test_signed_element_rejected(self, capsys):
        code, _, err = run(capsys, ["pressure", "--inline", GOLDEN_SIGNED,
                                    "--windows", "4..6"])
        assert code == 2
        assert "nonnegative" in err


class TestPermanent:
    def test_exact_counts_match_oracle(self, capsys):
        from latperm.groupring import GroupRingElement, Window, interior

        code, out, _ = run(capsys, ["permanent", "--inline", GOLDEN,
                                    "--windows", "8"])
        assert code == 0
        payload = json.loads(out)
        f = GroupRingElement.from_json(json.loads(GOLDEN))
        F = Window.box([0], [8])
        req = interior(F, f.support()).points
        assert payload["admissible"]["value"] == oracles.naive_window_sum(
            f.terms, F.points, mode="admissible", required=req)
        assert payload["injective"]["value"] == oracles.naive_window_sum(
            f.terms, F.points, mode="injective")

    def test_golden_box12_count(self, capsys):
        _, out, _ = run(capsys, ["permanent", "--inline", GOLDEN,
                                 "--windows", "12"])
        assert json.loads(out)["admissible"]["value"] == 612

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, ["permanent", "--inline", GOLDEN,
                                    "--windows", "6", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "window,size,log_value,normalized,kind"
        assert len(lines) == 3
        assert lines[1].startswith("box6,6,")
        assert lines[1].endswith("admissible")
        assert lines[2].endswith("injective")

    def test_multiple_sizes_rejected(self, capsys):
        code, _, err = run(capsys, ["permanent", "--inline", GOLDEN,
                                    "--windows", "4..6"])
        assert code == 2
        assert "single window size" in err

    def test_hard_capacity_exit_3(self, capsys):
        # 1 + u^14 + u^15 is connected on the window, with a 14-target frontier
        wide = ('{"dim":1,"terms":[{"exp":[0],"coef":1},{"exp":[14],"coef":1},'
                '{"exp":[15],"coef":1}]}')
        code, _, err = run(capsys, ["permanent", "--inline", wide,
                                    "--windows", "20", "--budget", "50"])
        assert code == 3
        assert "capacity" in err


class TestMahler:
    def test_golden_matches_roots(self, capsys):
        code, out, _ = run(capsys, ["mahler", "--inline", GOLDEN_SIGNED])
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert abs(payload["value"] - payload["roots_value"]) <= 1e-9
        assert abs(payload["value"] - 0.481211825060) <= 1e-9

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, ["mahler", "--inline", GOLDEN_SIGNED,
                                    "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value,error_estimate,converged,roots_value"
        assert len(lines) == 2

    def test_two_dim_omits_roots(self, capsys):
        affine = ('{"dim":2,"terms":[{"exp":[0,0],"coef":1},'
                  '{"exp":[1,0],"coef":1},{"exp":[0,1],"coef":1}]}')
        code, out, _ = run(capsys, ["mahler", "--inline", affine])
        assert code == 0
        payload = json.loads(out)
        assert payload["roots_value"] is None
        assert abs(payload["value"] - 0.323065947908) <= 1e-6

    def test_bad_grid_exit_2(self, capsys):
        code, _, err = run(capsys, ["mahler", "--inline", GOLDEN_SIGNED,
                                    "--grid", "4"])
        assert code == 2
        assert "grid" in err


class TestCompare:
    def test_dimer_csv_row(self, capsys):
        code, out, _ = run(capsys, ["compare", "dimer", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == FAMILY_CSV_HEADER
        family, params, low, high, det, err = lines[1].split(",")
        assert family == "dimer"
        assert params == "a=1;b=1"
        assert float(low) <= float(det) <= float(high)
        assert float(err) < 1e-2

    def test_one_dim_family_equality(self, capsys):
        code, out, _ = run(capsys, ["compare", "three-point-Z",
                                    "--params", "K=4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["per_label"] == "transfer-exact"
        assert payload["params"]["K"] == 4.0
        assert payload["per_estimate_low"] == payload["per_estimate_high"]
        tol = max(1e-3, 10 * payload["det_error_estimate"])
        assert abs(payload["per_estimate_low"] - payload["det_value"]) <= tol

    def test_param_overrides_merge_with_defaults(self, capsys):
        code, out, _ = run(capsys, ["compare", "trinomial-Z",
                                    "--params", "b=2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["params"] == {"a": 1.0, "b": 2.0, "c": 1.0}

    def test_unknown_family_exit_2(self, capsys):
        code, _, err = run(capsys, ["compare", "pentomino"])
        assert code == 2
        assert "unknown family" in err

    def test_bad_param_exit_2(self, capsys):
        code, _, err = run(capsys, ["compare", "dimer", "--params", "a=-1"])
        assert code == 2
        assert "positive" in err

    def test_no_window_in_budget_exit_3(self, capsys):
        # the 2x2 dimer window takes 32 nodes
        code, out, err = run(capsys, ["compare", "dimer", "--budget", "20"])
        assert code == 3
        assert out == ""
        assert err.startswith("capacity budget exceeded: no window fits")
        assert "2x2[admissible]" in err and "6x6[admissible]" in err

    def test_partly_skipped_windows_exit_3(self, capsys):
        # 2x2 takes 32 nodes, 4x4 664 and 6x6 6612
        code, out, err = run(capsys, ["compare", "dimer", "--budget", "500"])
        assert code == 3
        payload = json.loads(out)
        assert list(payload) == ["command", "family", "params", "per_estimate_low",
                                 "per_estimate_high", "per_label", "det_value",
                                 "det_error_estimate", "det_values", "torus_max"]
        dimer = GroupRingElement(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
        two = window_permanent(dimer, Window.box([0, 0], [2, 2]))
        assert payload["per_estimate_high"] == pytest.approx(two.normalized(4), rel=1e-11)
        assert err.startswith("capacity budget exceeded: ")
        assert "4x4[admissible]" in err and "6x6[admissible]" in err
        assert "2x2[admissible]" not in err


class TestPeriodic:
    def test_two_point_counts_constant(self, capsys):
        code, out, _ = run(capsys, ["periodic", "--inline", TWO_POINT,
                                    "--tori", "4..12"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["tori"]) == 9
        assert all(row["count"] == 2 for row in payload["tori"])

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, ["periodic", "--inline", TWO_POINT,
                                    "--tori", "4..6", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "window,size,log_value,normalized,kind"
        assert len(lines) == 4
        assert all(line.endswith("torus") for line in lines[1:])

    def test_default_moduli_skip_collisions(self, capsys):
        code, out, _ = run(capsys, ["periodic", "--inline", GOLDEN])
        assert code == 0
        payload = json.loads(out)
        labels = [row["torus"] for row in payload["tori"]]
        assert labels == [str(n) for n in range(4, 13)]

    def test_collision_on_explicit_torus_exit_2(self, capsys):
        code, _, err = run(capsys, ["periodic", "--inline", GOLDEN,
                                    "--tori", "2"])
        assert code == 2
        assert "collide" in err

    def test_threads_do_not_change_output(self, capsys):
        unit = ('{"dim":2,"terms":[{"exp":[1,0],"coef":1},{"exp":[-1,0],"coef":1},'
                '{"exp":[0,1],"coef":1},{"exp":[0,-1],"coef":1}]}')
        # 6x6, 4x6 and 3x4 blow the budget, 4x4 and 3x3 fit
        base = ["periodic", "--inline", unit, "--tori", "4x4,6x6,4x6,3x4,3x3",
                "--budget", "3000"]
        outs = {}
        for fmt in ("json", "csv"):
            for threads in ("1", "3"):
                outs[fmt, threads] = run(capsys, base + ["--format", fmt,
                                                         "--threads", threads])
            assert outs[fmt, "1"] == outs[fmt, "3"]
        code, out, _ = outs["json", "3"]
        assert code == 3
        payload = json.loads(out)
        assert [row["torus"] for row in payload["tori"]] == ["4x4", "3x3"]
        assert payload["tori"][0]["count"] == 73984
        assert [s.split(":")[0] for s in payload["capacity_skipped"]] == ["6x6", "4x6", "3x4"]

    def test_two_dim_quotients(self, capsys):
        code, out, _ = run(capsys, ["periodic", "--inline", L_SHAPE,
                                    "--tori", "2x2,3x3"])
        assert code == 0
        payload = json.loads(out)
        assert [row["torus"] for row in payload["tori"]] == ["2x2", "3x3"]
        assert all(isinstance(row["count"], int) for row in payload["tori"])


class TestInputErrors:
    def test_both_input_and_inline(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(TWO_POINT)
        code, _, err = run(capsys, ["entropy", "--input", str(path),
                                    "--inline", TWO_POINT])
        assert code == 2
        assert "exactly one" in err

    def test_neither_input_nor_inline(self, capsys):
        code, _, err = run(capsys, ["entropy"])
        assert code == 2
        assert "exactly one" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["entropy", "--input", "/no/such/file.json"])
        assert code == 2

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, ["pressure", "--inline", "not json"])
        assert code == 2

    def test_dim_mismatch(self, capsys):
        code, _, err = run(capsys, ["entropy", "--inline", TWO_POINT,
                                    "--dim", "2"])
        assert code == 2
        assert "dimension" in err

    def test_zero_element(self, capsys):
        zero = '{"dim":1,"terms":[]}'
        code, _, err = run(capsys, ["pressure", "--inline", zero])
        assert code == 2


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("VERIFY PASSED")
        assert sum(1 for line in lines if line.startswith("PASS ")) == 8
        assert not any(line.startswith("FAIL ") for line in lines)
