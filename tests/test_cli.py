"""CLI tests: parsing, subcommand output shapes, exit codes, determinism."""

import argparse
import ast
import errno
import importlib.util
import inspect
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import oracles
import pytest

import latperm.cli as cli
import latperm.entropy as entropy
from latperm.cli import RunConfig, build_parser, main, parse_tori, parse_windows
from latperm.fkdet import FAMILIES, QuadratureConfig
from latperm.groupring import CapacityError, GroupRingElement, Window
from latperm.patterns import DEFAULT_BUDGET
from latperm.permanent import window_permanent

GOLDEN = '{"dim":1,"terms":[{"exp":[0],"coef":1},{"exp":[1],"coef":1},{"exp":[2],"coef":1}]}'
GOLDEN_SIGNED = '{"dim":1,"terms":[{"exp":[2],"coef":1},{"exp":[1],"coef":1},{"exp":[0],"coef":-1}]}'
TWO_POINT = '{"points": [[0], [1]]}'
L_SHAPE = '{"points": [[0,0], [1,0], [0,1]]}'
CATALAN = 0.915965594177219015


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

    # each malformed value with its parse_windows and parse_tori messages;
    # a part is read as a range before a number, and for tori as a product
    # before a range
    @pytest.mark.parametrize("text, windows, tori", [
        ("8..4", "empty window range '8..4'", "empty torus range '8..4'"),
        ("", "no window sizes given", "no torus moduli given"),
        (" , ", "no window sizes given", "no torus moduli given"),
        ("0..3", "window sizes must be positive", "torus moduli must be positive"),
        ("3,0", "window sizes must be positive", "torus moduli must be positive"),
        ("a", "invalid literal for int() with base 10: 'a'",
         "invalid literal for int() with base 10: 'a'"),
        ("4x4..6", "invalid literal for int() with base 10: '4x4'",
         "invalid literal for int() with base 10: '4..6'"),
        ("4x", "invalid literal for int() with base 10: '4x'",
         "invalid literal for int() with base 10: ''"),
        ("2..y", "invalid literal for int() with base 10: 'y'",
         "invalid literal for int() with base 10: 'y'"),
    ])
    def test_malformed_lists_name_their_fault(self, capsys, text, windows, tori):
        for parse, message in ((parse_windows, windows), (parse_tori, tori)):
            with pytest.raises(ValueError) as e:
                parse(text)
            assert str(e.value) == message
        # the CLI prints the parser's message as its one error line
        for argv, message in ((["entropy", "--windows", text], windows),
                              (["periodic", "--tori", text], tori)):
            assert run(capsys, argv + ["--inline", TWO_POINT]) == \
                (2, "", f"error: {message}\n")

    def test_lists_strip_parts_and_skip_empty_ones(self):
        assert parse_windows(" 4 , 2,3..5,") == (2, 3, 4, 5)
        assert parse_windows("3,,4") == (3, 4)
        # tori keep the given order and repeats
        assert parse_tori(" 4 , 2,3..5,") == ((4,), (2,), (3,), (4,), (5,))
        assert parse_tori("3,,4") == ((3,), (4,))

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


# each shared flag: a value, the RunConfig field it sets and the parsed value
SHARED_FLAGS = {
    "--input": ("a.json", "input_path", "a.json"),
    "--inline": ("{}", "inline", "{}"),
    "--dim": ("2", "dim", 2),
    "--windows": ("2..3", "windows", (2, 3)),
    "--tori": ("4x4", "tori", ((4, 4),)),
    "--grid": ("16", "grid", 16),
    "--eps": ("1e-9", "eps", 1e-9),
    "--format": ("csv", "out_format", "csv"),
    "--threads": ("2", "threads", 2),
    "--budget": ("100", "budget", 100),
}
ELEMENT = {"--input", "--inline", "--dim"}
# the shared flags each subcommand reads; compare also takes family and --params
READS = {
    "entropy": ELEMENT | {"--windows", "--tori", "--format", "--budget"},
    "pressure": ELEMENT | {"--windows", "--tori", "--format", "--budget", "--threads"},
    "permanent": ELEMENT | {"--windows", "--format", "--budget"},
    "mahler": ELEMENT | {"--grid", "--eps", "--format"},
    "compare": {"--grid", "--eps", "--format", "--budget"},
    "periodic": ELEMENT | {"--tori", "--format", "--budget"},
    "verify": {"--budget"},
}


class TestFlagTable:
    @pytest.mark.parametrize("command", list(READS))
    @pytest.mark.parametrize("flag", list(SHARED_FLAGS))
    def test_read_flags_parse_and_unread_flags_exit_2(self, capsys, command, flag):
        text, field, value = SHARED_FLAGS[flag]
        head = [command] + (["dimer"] if command == "compare" else [])
        if flag in READS[command]:
            cfg = RunConfig(**vars(build_parser().parse_args(head + [flag, text])))
            assert getattr(cfg, field) == value
        else:
            with pytest.raises(SystemExit) as e:
                build_parser().parse_args(head + [flag, text])
            assert e.value.code == 2
            assert "unrecognized arguments: " + flag in capsys.readouterr().err

    def test_compare_takes_family_and_params(self):
        args = build_parser().parse_args(["compare", "dimer", "--params", "a=2"])
        cfg = RunConfig(**vars(args))
        assert (cfg.family, cfg.params) == ("dimer", "a=2")

    def test_parser_sets_no_default(self):
        assert not re.search(r"\bdefault=", inspect.getsource(build_parser))
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(READS)
        for sp in sub.choices.values():
            assert all(a.default is argparse.SUPPRESS for a in sp._actions)

    def test_parser_is_built_once_and_reused(self, capsys):
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit):
            build_parser().parse_args(["entropy", "--windows", "4..6", "--bogus"])
        # a parse, and a rejected one, leave nothing in the shared parser
        assert vars(build_parser().parse_args(["entropy"])) == {"command": "entropy"}

    @pytest.mark.parametrize("command", list(READS))
    def test_runconfig_holds_every_default(self, command):
        # an unset flag stays out of the namespace
        head = [command] + (["dimer"] if command == "compare" else [])
        args = vars(build_parser().parse_args(head))
        assert set(args) == {"command"} | ({"family"} if command == "compare" else set())
        cfg = RunConfig(**args)
        assert (cfg.grid, cfg.eps) == (QuadratureConfig().grid, QuadratureConfig().eps)
        assert (cfg.threads, cfg.budget, cfg.out_format) == (1, DEFAULT_BUDGET, "json")
        assert (cfg.windows, cfg.tori, cfg.dim, cfg.params) == ((), (), None, None)


def test_no_module_imports_a_private_name_of_another():
    """Each module's underscore names are its own; entropy's transfer matrix
    shares the frontier's claim rule, permanent._candidates."""
    shared = {("entropy", "permanent", "_candidates")}
    found = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or
                                                     (node.module or "").startswith("latperm")):
                source = (node.module or "").rsplit(".", 1)[-1]
                found |= {(path.stem, source, a.name) for a in node.names
                          if a.name.startswith("_") and source != path.stem}
    assert found == shared


def test_sources_parse_at_the_python_floor():
    """Every source file parses with the grammar of the oldest Python that
    pyproject.toml's requires-python admits."""
    root = Path(__file__).resolve().parent.parent
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)',
                      (root / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    floor = tuple(map(int, floor.groups()))
    assert floor >= (3, 10)
    paths = [path for part in ("src", "tests", "scripts", "perfbench")
             for path in sorted((root / part).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


def test_benchmark_argv_parses():
    """Every CLI job of every benchmark workload, seed 1, parses into a valid
    RunConfig; no job runs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    argvs = [job.argv for name in workloads.WORKLOADS
             for job in workloads.build(name, workloads.draw(name, 1)) if job.argv]
    assert argvs
    for argv in argvs:
        cfg = RunConfig(**vars(build_parser().parse_args(list(argv))))
        assert cfg.command == argv[0]


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

    def test_csv_shape_and_determinism(self, capsys):
        argv = ["entropy", "--inline", GOLDEN, "--windows", "4,6", "--tori", "5"]
        code1, csv1, _ = run(capsys, argv + ["--format", "csv"])
        code2, csv2, _ = run(capsys, argv + ["--format", "csv"])
        assert code1 == code2 == 0
        assert csv1 == csv2
        lines = csv1.strip().split("\n")
        assert lines[0] == "window,size,log_value,normalized,kind"
        kinds = {line.split(",")[-1] for line in lines[1:]}
        assert kinds <= {"upper", "torus", "transfer", "bound"}
        _, out, _ = run(capsys, argv)
        rows = json.loads(out)["rows"]
        assert len(lines) == 1 + len(rows)
        assert [line.split(",")[0] for line in lines[1:]] == [r["window"] for r in rows]

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

    def test_norm_past_the_float_range(self, capsys):
        # 1e308 parses to an int, so the norm 2e308 is an exact int
        big = '{"dim":1,"terms":[{"exp":[0],"coef":1e308},{"exp":[1],"coef":1e308}]}'
        code, out, err = run(capsys, ["pressure", "--inline", big, "--windows", "2..3"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["closed_form_lower"] == pytest.approx(
            math.log(1e308) + math.log(2) - 1, rel=1e-12)
        assert payload["closed_form_lower"] <= payload["transfer_value"]

    def test_refused_transfer_is_skipped_exit_3(self, capsys):
        # 1 + u^21 spans 21 > 20 positions: windows and torus run, the transfer does not
        wide = '{"dim":1,"terms":[{"exp":[0],"coef":1},{"exp":[21],"coef":1}]}'
        argv = ["pressure", "--inline", wide, "--windows", "2..3", "--tori", "22"]
        kinds = ["upper"] * 4 + ["torus", "bound", "bound"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (3, "")
        payload = json.loads(out)
        assert payload["capacity_skipped"] == ["transfer: transfer span 21 exceeds the 20 limit"]
        assert payload["transfer_value"] is None
        assert [r["kind"] for r in payload["rows"]] == kinds
        code, out, err = run(capsys, argv + ["--format", "csv"])
        assert (code, err) == (3, "")
        assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == kinds

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sum_past_the_float_range(self, capsys):
        big = '{"dim":1,"terms":[{"exp":[0],"coef":1e308},{"exp":[1],"coef":1e308}]}'
        code, out, err = run(capsys, ["mahler", "--inline", big, "--format", "csv"])
        assert (code, err) == (0, "")
        value, error, _, roots = map(float, out.splitlines()[1].split(","))
        assert roots == pytest.approx(math.log(1e308), rel=1e-12)
        assert abs(value - roots) <= error < 1e-2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_coefficient_ratio_past_the_float_range(self, capsys):
        wide = '{"dim":1,"terms":[{"exp":[0],"coef":1e300},{"exp":[2],"coef":1e-300}]}'
        code, out, err = run(capsys, ["mahler", "--inline", wide])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["roots_value"] == pytest.approx(math.log(1e300), rel=1e-12)
        assert payload["value"] == pytest.approx(math.log(1e300), rel=1e-12)
        both = ('{"dim":1,"terms":[{"exp":[0],"coef":1e-300},{"exp":[1],"coef":1e300},'
                '{"exp":[2],"coef":1e-300}]}')
        code, out, err = run(capsys, ["mahler", "--inline", both])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["roots_value"] == pytest.approx(math.log(1e300), rel=1e-12)
        assert payload["value"] == pytest.approx(math.log(1e300), rel=1e-12)
        subnormal = ('{"dim":1,"terms":[{"exp":[0],"coef":1e-310},{"exp":[1],"coef":1},'
                     '{"exp":[2],"coef":1e-310}]}')
        code, _, err = run(capsys, ["mahler", "--inline", subnormal])
        assert code == 4
        assert "both orientations" in err

    @pytest.mark.parametrize("command", ["mahler", "pressure"])
    def test_int_norm_past_the_float_range_meets_a_float(self, capsys, command):
        # 1e308 parses to an int; adding 0.5 to the int 2e308 overflows
        mixed = ('{"dim":1,"terms":[{"exp":[0],"coef":1e308},{"exp":[1],"coef":1e308},'
                 '{"exp":[2],"coef":0.5}]}')
        windows = ["--windows", "2..3"] if command == "pressure" else []
        code, out, err = run(capsys, [command, "--inline", mixed] + windows)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        if command == "mahler":
            assert abs(payload["value"] - payload["roots_value"]) <= 1e-9
        else:
            assert payload["closed_form_lower"] <= payload["transfer_value"]

    def test_bad_grid_exit_2(self, capsys):
        code, _, err = run(capsys, ["mahler", "--inline", GOLDEN_SIGNED,
                                    "--grid", "4"])
        assert code == 2
        assert "grid" in err

    def test_root_degree_past_the_cap_exits_3(self, capsys):
        # the companion matrix of 1 + u^100000 would take 74.5 GiB
        wide = '{"dim":1,"terms":[{"exp":[0],"coef":1},{"exp":[100000],"coef":1}]}'
        start = time.perf_counter()
        code, out, err = run(capsys, ["mahler", "--inline", wide])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == ("capacity budget exceeded: root-based mahler measure of degree 100000"
                       " exceeds the 1024 cap\n")


class TestCompare:
    def test_dimer_csv_row(self, capsys):
        code, out, _ = run(capsys, ["compare", "dimer", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("family,params,per_estimate_low,per_estimate_high,"
                            "det_value,det_error_estimate")
        family, params, low, high, det, err = lines[1].split(",")
        assert family == "dimer"
        assert params == "a=1;b=1"
        assert float(low) <= float(det) <= float(high)
        assert float(err) < 1e-2

    def test_csv_row_shape(self, capsys):
        code, out, _ = run(capsys, ["compare", "trinomial-Z", "--params",
                                    "a=2,b=1,c=1", "--format", "csv"])
        assert code == 0
        header, row = out.splitlines()
        assert len(row.split(",")) == len(header.split(","))
        assert row.startswith("trinomial-Z,a=2;b=1;c=1,")

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

    def test_help_names_every_family(self, capsys, monkeypatch):
        # wide enough that argparse wraps no family name
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as e:
            main(["compare", "-h"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        assert "one of: " + ", ".join(sorted(FAMILIES)) in out

    def test_unknown_family_exit_2(self, capsys):
        code, _, err = run(capsys, ["compare", "pentomino"])
        assert code == 2
        assert "unknown family" in err

    def test_bad_param_exit_2(self, capsys):
        code, _, err = run(capsys, ["compare", "dimer", "--params", "a=-1"])
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("params, value", [("a=x", "'x'"), ("a=", "''")])
    def test_non_numeric_param_exit_2(self, capsys, params, value):
        assert run(capsys, ["compare", "dimer", "--params", params]) == \
            (2, "", f"error: parameter a must be a number, not {value}\n")

    def test_no_window_in_budget_exit_3(self, capsys):
        # the 2x2 dimer window takes 32 nodes
        code, out, err = run(capsys, ["compare", "dimer", "--budget", "20"])
        assert code == 3
        assert out == ""
        assert err.startswith("capacity budget exceeded: no window fits")
        assert "2x2[admissible]" in err and "6x6[admissible]" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_dimer_past_the_float_range(self, capsys):
        # the four weights sum to inf as floats: the floor and the
        # quadrature take the element divided by 2^1023
        code, out, err = run(capsys, ["compare", "dimer", "--params", "a=1e308,b=1e308"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        low, det, high = (payload[k] for k in ("per_estimate_low", "det_value",
                                               "per_estimate_high"))
        assert low <= det <= high
        assert det == pytest.approx(math.log(1e308) + 2 * CATALAN / math.pi, abs=1e-6)

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


class TestIntScalePastFloatRange:
    """The float path takes f = 2^k g from unit_scale(), with k exact:
    10^320 u^2 + 0.5 u^3 mixes an int past the float range with a float
    term."""

    HUGE = ('{"dim":1,"terms":[{"exp":[2],"coef":' + str(10 ** 320) + '},'
            '{"exp":[3],"coef":0.5}]}')

    @pytest.mark.parametrize("argv,key", [
        (["permanent", "--windows", "4"], "admissible"),
        (["permanent", "--windows", "4"], "injective"),
        (["periodic", "--tori", "5"], "tori"),
    ])
    def test_values_are_size_log_scale(self, capsys, argv, key):
        code, out, err = run(capsys, argv + ["--inline", self.HUGE])
        assert code == 0, err
        payload = json.loads(out)
        row = payload[key][0] if key == "tori" else payload[key]
        size = row["sites"] if key == "tori" else payload["size"]
        # every other pattern weighs at most 10^-320 of the all-u^2 one
        assert row["log_value"] == pytest.approx(size * math.log(10 ** 320), rel=1e-12)
        assert row["normalized"] == pytest.approx(math.log(10 ** 320), rel=1e-12)

    BIG = {
        # value: log c plus the value at unit scale (0 for 1 + u and 1 + 10^-320 u)
        "10^320+u": ({0: 10 ** 320, 1: 1}, 320 * math.log(10)),
        "10^320(1+u)": ({0: 10 ** 320, 1: 10 ** 320}, 320 * math.log(10)),
        "2^1100+3u+u^2": ({0: 2 ** 1100, 1: 3, 2: 1}, 1100 * math.log(2)),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["pressure", "mahler"])
    @pytest.mark.parametrize("name", list(BIG))
    def test_float_consumers_take_the_exact_scale(self, capsys, command, name):
        terms, want = self.BIG[name]
        inline = json.dumps({"dim": 1, "terms": [{"exp": [e], "coef": c}
                                                 for e, c in terms.items()]})
        extra = ["--windows", "2..3", "--tori", "4"] if command == "pressure" else []
        code, out, err = run(capsys, [command, "--inline", inline] + extra)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        keys = ("transfer_value",) if command == "pressure" else ("value", "roots_value")
        for key in keys:
            assert payload[key] == pytest.approx(want, rel=1e-9)


class TestBelowUnitScale:
    """The quadrature's eps floor is relative: an element with max |c| < 1
    is measured as g, f = 2^k g, plus k log 2."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_constant_mahler(self, capsys):
        tiny = '{"dim":1,"terms":[{"exp":[0],"coef":1e-300}]}'
        code, out, err = run(capsys, ["mahler", "--inline", tiny])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(math.log(1e-300), rel=1e-12)
        assert payload["roots_value"] == pytest.approx(math.log(1e-300), rel=1e-12)
        assert payload["converged"] is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_dimer_det_inside_its_bracket(self, capsys):
        code, out, err = run(capsys, ["compare", "dimer", "--params", "a=1e-12,b=1e-12"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        det = payload["det_value"]
        assert det == pytest.approx(math.log(1e-12) + 2 * CATALAN / math.pi, abs=1e-6)
        assert payload["per_estimate_low"] <= det <= payload["per_estimate_high"]


THREE_POINT_GAP = '{"points": [[0], [3], [6]]}'
THREE_POINT_GAP_ELEMENT = ('{"dim":1,"terms":[{"exp":[0],"coef":1},{"exp":[3],"coef":1},'
                           '{"exp":[6],"coef":1}]}')
UNIT_DIMER = ('{"dim":2,"terms":[{"exp":[1,0],"coef":1},{"exp":[-1,0],"coef":1},'
              '{"exp":[0,1],"coef":1},{"exp":[0,-1],"coef":1}]}')


def _periodic_bytes(dim, rows, skipped):
    """periodic's JSON and CSV texts for a dimension, rows of (torus, sites,
    count, log value, normalized) and the capacity_skipped list."""
    tori = [dict(zip(("torus", "sites", "count", "log_value", "normalized"), r))
            for r in rows]
    payload = {"command": "periodic", "dim": dim,
               "tori": tori, "capacity_skipped": skipped}
    csv = ["window,size,log_value,normalized,kind"]
    csv += [f"{t},{n},{lv!r},{nv!r},torus" for t, n, _, lv, nv in rows]
    return {"json": json.dumps(payload, indent=2) + "\n", "csv": "\n".join(csv) + "\n"}


PERIODIC_GAP = _periodic_bytes(1, [
    ("4", 4, 9, 2.19722457734, 0.549306144334),
    ("5", 5, 13, 2.56494935746, 0.512989871492),
    ("7", 7, 31, 3.43398720449, 0.490569600641),
    ("8", 8, 49, 3.89182029811, 0.486477537264),
    ("9", 9, 216, 5.37527840768, 0.597253156409),
    ("10", 10, 125, 4.8283137373, 0.48283137373),
    ("11", 11, 201, 5.30330490806, 0.482118628005),
    ("12", 12, 729, 6.59167373201, 0.549306144334),
], [])
PERIODIC_DIMER = _periodic_bytes(2, [
    ("3x3", 9, 448, 6.10479323241, 0.678310359157),
    ("4x4", 16, 73984, 11.2116041326, 0.700725258287),
    ("5x5", 25, 5080064, 15.4408344179, 0.617633376716),
    ("6x6", 36, 8131710976, 22.8190371905, 0.633862144181),
    ("8x8", 64, 97252488205369344, 39.1160869627, 0.611188858793),
], ["7x7: sweep kernel exceeded 100000000 nodes at row 17/49 of a component"])


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

    def test_default_tori_bytes(self, capsys):
        # 1-D: sides 4..12 less 6, where 0 and 6 collide; 2-D: sides 2..8
        # less 2, where u1 and its inverse collide, and the 7x7 torus blows
        # the default budget
        for inline, expected, code in ((THREE_POINT_GAP, PERIODIC_GAP, 0),
                                       (UNIT_DIMER, PERIODIC_DIMER, 3)):
            for fmt in ("json", "csv"):
                out = run(capsys, ["periodic", "--inline", inline, "--format", fmt])
                assert out == (code, expected[fmt], "")

    def test_collision_on_explicit_torus_exit_2(self, capsys):
        code, _, err = run(capsys, ["periodic", "--inline", GOLDEN,
                                    "--tori", "2"])
        assert code == 2
        assert "collide" in err

    def test_budget_skips_tori_in_both_formats(self, capsys):
        unit = ('{"dim":2,"terms":[{"exp":[1,0],"coef":1},{"exp":[-1,0],"coef":1},'
                '{"exp":[0,1],"coef":1},{"exp":[0,-1],"coef":1}]}')
        # 6x6, 3x4 and 3x3 blow the budget, 4x4 and 4x6 fit: 4x6 sweeps
        # along its long axis, in 740 nodes against 1176 for 3x3
        base = ["periodic", "--inline", unit, "--tori", "4x4,6x6,4x6,3x4,3x3",
                "--budget", "1000"]
        outs = {}
        for fmt in ("json", "csv"):
            outs[fmt] = run(capsys, base + ["--format", fmt])
            assert run(capsys, base + ["--format", fmt]) == outs[fmt]  # byte for byte
        code, out, _ = outs["json"]
        assert code == 3
        payload = json.loads(out)
        assert [row["torus"] for row in payload["tori"]] == ["4x4", "4x6"]
        assert payload["tori"][0]["count"] == 73984
        assert [s.split(":")[0] for s in payload["capacity_skipped"]] == ["6x6", "3x4", "3x3"]
        code, out, _ = outs["csv"]
        assert code == 3
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["4x4", "4x6"]

    @pytest.mark.parametrize("message, line", [
        ((), "out of memory"),
        (("Unable to allocate 1.91 GiB",), "Unable to allocate 1.91 GiB"),
    ])
    def test_out_of_memory_exits_3_without_traceback(self, capsys, monkeypatch, message, line):
        def exhausted(*args, **kwargs):
            raise MemoryError(*message)

        monkeypatch.setattr(entropy, "torus_permanent", exhausted)
        code, out, err = run(capsys, ["periodic", "--inline", L_SHAPE, "--tori", "4x4"])
        assert (code, out) == (3, "")  # no partial output
        assert err == f"capacity budget exceeded: {line}\n"

    def test_count_past_4300_digits(self, capsys):
        # 10 + u on Z/4301: the identity gives 10^4301 and the rotation 1
        ten = '{"dim":1,"terms":[{"exp":[0],"coef":10},{"exp":[1],"coef":1}]}'
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, ["periodic", "--inline", ten, "--tori", "4301"])
        assert code == 0
        assert sys.get_int_max_str_digits() == limit  # lifted for the output only
        count = json.loads(out, parse_int=str)["tori"][0]["count"]
        assert count == "1" + "0" * 4300 + "1"  # 10**4301 + 1

    @pytest.mark.parametrize("inline, tori, budget", [
        (UNIT_DIMER, "4x4,6x6,4x6", "1000"),  # 6x6 blows the budget
        (THREE_POINT_GAP_ELEMENT, "4,5,7,11", "400"),  # 11 blows it
    ])
    def test_periodic_and_pressure_write_the_same_torus_rows(self, capsys, inline,
                                                             tori, budget):
        outs = {}
        for command in ("periodic", "pressure"):
            argv = [command, "--inline", inline, "--tori", tori, "--budget", budget]
            argv += ["--windows", "2"] if command == "pressure" else []
            for fmt in ("json", "csv"):
                code, outs[command, fmt], _ = run(capsys, argv + ["--format", fmt])
                assert code == 3
        torus_lines = [line for line in outs["pressure", "csv"].splitlines()
                       if line.endswith(",torus")]
        assert len(torus_lines) == tori.count(",")  # all tori but the skipped one
        assert outs["periodic", "csv"].splitlines()[1:] == torus_lines
        periodic, pressure = (json.loads(outs[c, "json"]) for c in ("periodic", "pressure"))
        assert [(t["torus"], t["sites"], t["log_value"], t["normalized"])
                for t in periodic["tori"]] == \
            [(r["window"], r["size"], r["log_value"], r["normalized"])
             for r in pressure["rows"] if r["kind"] == "torus"]
        (skipped,) = periodic["capacity_skipped"]
        assert pressure["capacity_skipped"][-1] == skipped

    def test_two_dim_quotients(self, capsys):
        code, out, _ = run(capsys, ["periodic", "--inline", L_SHAPE,
                                    "--tori", "2x2,3x3"])
        assert code == 0
        payload = json.loads(out)
        assert [row["torus"] for row in payload["tori"]] == ["2x2", "3x3"]
        assert all(isinstance(row["count"], int) for row in payload["tori"])


def term(exp, coef):
    """A one-dimensional element whose first term has the given JSON texts."""
    return '{"dim":1,"terms":[{"exp":%s,"coef":%s},{"exp":[1],"coef":1}]}' % (exp, coef)


# malformed fields and non-finite parameters, each with the name its error
# line must give; nothing may be truncated, coerced or computed with NaN
MALFORMED = [
    (["pressure", "--inline", '{"terms":[{"exp":[0],"coef":1}]}'], "dim"),
    (["pressure", "--inline", '{"dim":1.5,"terms":[]}'], "dim"),
    (["pressure", "--inline", '{"dim":1,"terms":[{"coef":1}]}'], "exp"),
    (["pressure", "--inline", '{"dim":1,"terms":[{"exp":[0]}]}'], "coef"),
    (["pressure", "--inline", '{"dim":1,"terms":5}'], "terms"),
    (["pressure", "--inline", term("0", "1")], "exp"),
    (["permanent", "--inline", term("[0.5]", "1"), "--windows", "3"], "exp"),
    (["pressure", "--inline", term("[0]", '"2"')], "coef"),
    (["permanent", "--inline", term("[0]", "true"), "--windows", "3"], "coef"),
    (["mahler", "--inline", term("[0]", "NaN")], "coef"),
    (["mahler", "--inline", '{"dim":2,"terms":[{"exp":[0,0],"coef":Infinity}]}'],
     "coef"),
    (["entropy", "--inline", '{"points":5}'], "points"),
    (["entropy", "--inline", '{"points":[[0.5],[1]]}', "--windows", "3"], "point"),
    (["entropy", "--inline", '{"box":{"origin":[0]}}'], "lengths"),
    (["entropy", "--inline", '{"box":{"origin":[0],"lengths":[true]}}'], "lengths"),
    (["entropy", "--inline", "5"], "points"),
    (["compare", "dimer", "--params", "a=inf"], "parameter a "),
    (["compare", "three-point-Z", "--params", "K=nan"], "parameter K "),
]


ZERO = '{"dim":1,"terms":[]}'
ONE_INPUT = "pass exactly one of --input and --inline"
DIM_2 = "input has dimension 1, --dim says 2"
NO_KEY = "window JSON needs a 'box' or 'points' key"

# every path of the one --input/--inline loader, with its one error line;
# {path} is a readable element file, {missing} a file that does not exist
LOADER_ERRORS = [
    (["entropy", "--input", "{path}", "--inline", TWO_POINT], ONE_INPUT),
    (["pressure", "--input", "{path}", "--inline", GOLDEN], ONE_INPUT),
    (["entropy"], ONE_INPUT),
    (["periodic"], ONE_INPUT),
    (["mahler"], ONE_INPUT),
    (["mahler", "--input", "{path}", "--inline", TWO_POINT], ONE_INPUT),
    *[([command, "--inline", TWO_POINT], "element JSON needs a 'terms' list")
      for command in ("pressure", "permanent", "mahler")],
    *[([command, "--inline", ZERO], "element is zero")
      for command in ("entropy", "pressure", "periodic")],
    (["pressure", "--inline", GOLDEN, "--dim", "2"], DIM_2),
    (["periodic", "--inline", GOLDEN, "--dim", "2"], DIM_2),
    (["entropy", "--inline", TWO_POINT, "--dim", "2"], DIM_2),
    (["periodic", "--inline", L_SHAPE, "--dim", "1"], "input has dimension 2, --dim says 1"),
    *[([command, "--inline", "[[0], [1]]"], NO_KEY) for command in ("entropy", "periodic")],
    *[([command, "--inline", '{"points": []}'], "empty window has no dimension")
      for command in ("entropy", "periodic")],
    *[([command, "--input", "{missing}"],
       f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {{missing!r}}")
      for command in ("entropy", "pressure")],
    (["pressure", "--inline", "not json"], "Expecting value: line 1 column 1 (char 0)"),
]


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

    @pytest.mark.parametrize("argv, message", LOADER_ERRORS)
    def test_loader_error_line(self, capsys, tmp_path, argv, message):
        path = tmp_path / "element.json"
        path.write_text(GOLDEN)
        names = {"path": str(path), "missing": str(tmp_path / "missing.json")}
        argv = [arg.format(**names) if arg in ("{path}", "{missing}") else arg
                for arg in argv]
        message = message.format(missing=names["missing"])
        assert run(capsys, argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,field", MALFORMED)
    def test_malformed_field(self, capsys, argv, field):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err
        assert "Traceback" not in err


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("VERIFY PASSED")
        assert sum(1 for line in lines if line.startswith("PASS ")) == 8
        assert not any(line.startswith("FAIL ") for line in lines)

    def test_capacity_error_keeps_partial_output(self, capsys):
        # the first two checks fit in 50 nodes; the third does not
        code, out, err = run(capsys, ["verify", "--budget", "50"])
        assert (code, err) == (3, "")
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS golden-transfer-vs-mahler", "PASS zero-entropy-family",
            "CAPACITY det-identity-and-per-ge-det"]
        assert lines[-1].endswith("pattern enumeration exceeded 50 nodes")

    def test_capacity_error_after_a_failure_exits_1(self, capsys, monkeypatch):
        def fails(rng, budget):
            return False, "forced"

        def runs_out(rng, budget):
            raise CapacityError("out of nodes")

        monkeypatch.setattr(cli, "_VERIFY_CHECKS",
                            (("first", fails), ("second", runs_out), ("third", fails)))
        code, out, _ = run(capsys, ["verify"])
        assert code == 1
        assert out == "FAIL first: forced\nCAPACITY second: out of nodes\n"


def _readme_flag_table():
    """{subcommand: flags} from README's | subcommand | flags | table, an
    --input/--inline/--dim cell split into its three flags."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| subcommand | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    out = {}
    for row in table.splitlines():
        names, flags = row.strip("|").split("|")
        cells = {f for cell in re.findall(r"`([^`]+)`", flags) for f in cell.split("/")}
        for name in re.findall(r"`([^`]+)`", names):
            out[name] = cells
    return out


def test_readme_flag_table_matches_parser():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    parsed = {name: {a.option_strings[-1] if a.option_strings else a.dest
                     for a in sp._actions if not isinstance(a, argparse._HelpAction)}
              for name, sp in sub.choices.items()}
    assert _readme_flag_table() == parsed


TWO_POINT_WEIGHT_2 = '{"dim":1,"terms":[{"exp":[0],"coef":2},{"exp":[1],"coef":2}]}'

# one small run per subcommand, and per compare family: (argv, JSON payload,
# CSV text). A payload is a Python literal; json.dumps(payload, indent=2)
# gives the CLI's JSON bytes, float reprs, integer values and key order
# included
GOLDEN_RUNS = {
    "entropy": (
        ["entropy", "--inline", TWO_POINT, "--windows", "2", "--tori", "4"],
        {"command": "entropy", "dim": 1,
         "rows": [
             {"window": "box2", "size": 2, "log_value": 0.69314718056,
              "normalized": 0.34657359028, "kind": "upper"},
             {"window": "box2-inj", "size": 2, "log_value": 1.09861228867,
              "normalized": 0.549306144334, "kind": "upper"},
             {"window": "4", "size": 4, "log_value": 0.69314718056,
              "normalized": 0.17328679514, "kind": "torus"},
             {"window": "transfer", "size": 2, "log_value": 0.0,
              "normalized": 0.0, "kind": "transfer"},
             {"window": "closed-form-lower", "size": 2, "log_value": -0.30685281944,
              "normalized": -0.30685281944, "kind": "bound"},
             {"window": "closed-form-upper", "size": 2, "log_value": 0.34657359028,
              "normalized": 0.34657359028, "kind": "bound"}],
         "running_infimum": [0.34657359028],
         "certified_upper": 0.34657359028,
         "lower_estimate": 0.17328679514,
         "lower_label": "converging-lower",
         "transfer_value": 0.0,
         "closed_form_lower": -0.30685281944,
         "closed_form_upper": 0.34657359028,
         "capacity_skipped": []},
        "window,size,log_value,normalized,kind\n"
        "box2,2,0.69314718056,0.34657359028,upper\n"
        "box2-inj,2,1.09861228867,0.549306144334,upper\n"
        "4,4,0.69314718056,0.17328679514,torus\n"
        "transfer,2,0,0,transfer\n"
        "closed-form-lower,2,-0.30685281944,-0.30685281944,bound\n"
        "closed-form-upper,2,0.34657359028,0.34657359028,bound\n",
    ),
    "pressure": (
        ["pressure", "--inline", TWO_POINT_WEIGHT_2, "--windows", "2", "--tori", "4"],
        {"command": "pressure", "dim": 1,
         "rows": [
             {"window": "box2", "size": 2, "log_value": 2.07944154168,
              "normalized": 1.03972077084, "kind": "upper"},
             {"window": "box2-inj", "size": 2, "log_value": 2.48490664979,
              "normalized": 1.24245332489, "kind": "upper"},
             {"window": "4", "size": 4, "log_value": 3.4657359028,
              "normalized": 0.8664339757, "kind": "torus"},
             {"window": "transfer", "size": 2, "log_value": 0.69314718056,
              "normalized": 0.69314718056, "kind": "transfer"},
             {"window": "closed-form-lower", "size": 2, "log_value": 0.38629436112,
              "normalized": 0.38629436112, "kind": "bound"}],
         "running_infimum": [1.03972077084],
         "certified_upper": 1.03972077084,
         "lower_estimate": 0.8664339757,
         "lower_label": "converging-lower",
         "transfer_value": 0.69314718056,
         "closed_form_lower": 0.38629436112,
         "closed_form_upper": None,
         "capacity_skipped": []},
        "window,size,log_value,normalized,kind\n"
        "box2,2,2.07944154168,1.03972077084,upper\n"
        "box2-inj,2,2.48490664979,1.24245332489,upper\n"
        "4,4,3.4657359028,0.8664339757,torus\n"
        "transfer,2,0.69314718056,0.69314718056,transfer\n"
        "closed-form-lower,2,0.38629436112,0.38629436112,bound\n",
    ),
    "permanent": (
        ["permanent", "--inline", GOLDEN, "--windows", "6"],
        {"command": "permanent", "dim": 1, "window": "box6", "size": 6,
         "admissible": {"value": 36, "log_value": 3.58351893846,
                        "normalized": 0.597253156409},
         "injective": {"value": 79, "log_value": 4.36944785247,
                       "normalized": 0.728241308745}},
        "window,size,log_value,normalized,kind\n"
        "box6,6,3.58351893846,0.597253156409,admissible\n"
        "box6,6,4.36944785247,0.728241308745,injective\n",
    ),
    "mahler": (
        ["mahler", "--inline", GOLDEN_SIGNED, "--grid", "8"],
        {"command": "mahler", "dim": 1,
         "value": 0.481211215869,
         "error_estimate": 5.66123227113e-05,
         "converged": True,
         "levels": [{"grid": 8, "value": 0.486477537264},
                    {"grid": 16, "value": 0.481268450214},
                    {"grid": 32, "value": 0.481211837891}],
         "eps_spread": 0.0,
         "roots_value": 0.48121182506},
        "value,error_estimate,converged,roots_value\n"
        "0.481211215869,5.66123227113e-05,1,0.48121182506\n",
    ),
    "compare": (
        # 2u^2 + u - 1 = (2u - 1)(u + 1): both sides are log 2, the root -1
        # on the unit circle slows the quadrature down
        ["compare", "trinomial-Z", "--params", "a=2", "--grid", "8"],
        {"command": "compare", "family": "trinomial-Z",
         "params": {"a": 2.0, "b": 1.0, "c": 1.0},
         "per_estimate_low": 0.69314718056,
         "per_estimate_high": 0.69314718056,
         "per_label": "transfer-exact",
         "det_value": 0.693620097788,
         "det_error_estimate": 0.0216618030523,
         "det_values": [0.693620097788],
         "torus_max": None},
        "family,params,per_estimate_low,per_estimate_high,det_value,det_error_estimate\n"
        "trinomial-Z,a=2;b=1;c=1,0.69314718056,0.69314718056,0.693620097788,"
        "0.0216618030523\n",
    ),
    "compare-three-point-Z": (
        ["compare", "three-point-Z", "--grid", "8"],
        {"command": "compare", "family": "three-point-Z",
         "params": {"a": 1.0, "b": 1.0, "c": 1.0, "K": 3.0},
         "per_estimate_low": 0.38224508584,
         "per_estimate_high": 0.38224508584,
         "per_label": "transfer-exact",
         "det_value": 0.382119251397,
         "det_error_estimate": 0.00531660337237,
         "det_values": [0.28015356013, 0.382119251397],
         "torus_max": None},
        "family,params,per_estimate_low,per_estimate_high,det_value,det_error_estimate\n"
        "three-point-Z,a=1;b=1;c=1;K=3,0.38224508584,0.38224508584,0.382119251397,"
        "0.00531660337237\n",
    ),
    "compare-four-point-Z": (
        ["compare", "four-point-Z", "--grid", "8"],
        {"command": "compare", "family": "four-point-Z",
         "params": {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "K": 3.0},
         "per_estimate_low": 0.609377863436,
         "per_estimate_high": 0.609377863436,
         "per_label": "transfer-exact",
         "det_value": 0.609250544887,
         "det_error_estimate": 0.000924419655405,
         "det_values": [0.609250544887, 0.609250544887],
         "torus_max": None},
        "family,params,per_estimate_low,per_estimate_high,det_value,det_error_estimate\n"
        "four-point-Z,a=1;b=1;c=1;d=1;K=3,0.609377863436,0.609377863436,0.609250544887,"
        "0.000924419655405\n",
    ),
    "compare-affine-Z2": (
        ["compare", "affine-Z2", "--grid", "8"],
        {"command": "compare", "family": "affine-Z2",
         "params": {"a": 1.0, "b": 1.0, "c": 1.0},
         "per_estimate_low": 0.0986122886681,
         "per_estimate_high": 0.507392018436,
         "per_label": "certified-bracket",
         "det_value": 0.323068714948,
         "det_error_estimate": 0.000198826064801,
         "det_values": [0.323068714948],
         "torus_max": 0.549306144334},
        "family,params,per_estimate_low,per_estimate_high,det_value,det_error_estimate\n"
        "affine-Z2,a=1;b=1;c=1,0.0986122886681,0.507392018436,0.323068714948,"
        "0.000198826064801\n",
    ),
    "compare-quad-Z2": (
        ["compare", "quad-Z2", "--grid", "8"],
        {"command": "compare", "family": "quad-Z2",
         "params": {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
         "per_estimate_low": 0.38629436112,
         "per_estimate_high": 0.777087685225,
         "per_label": "certified-bracket",
         "det_value": 0.583099285541,
         "det_error_estimate": 0.002009479347,
         "det_values": [0.583099285541, 0.583099285541],
         "torus_max": 0.794513457587},
        "family,params,per_estimate_low,per_estimate_high,det_value,det_error_estimate\n"
        "quad-Z2,a=1;b=1;c=1;d=1,0.38629436112,0.777087685225,0.583099285541,"
        "0.002009479347\n",
    ),
    "compare-dimer": (
        ["compare", "dimer", "--grid", "8"],
        {"command": "compare", "family": "dimer",
         "params": {"a": 1.0, "b": 1.0},
         "per_estimate_low": 0.38629436112,
         "per_estimate_high": 0.917570181315,
         "per_label": "certified-bracket",
         "det_value": 0.583225869985,
         "det_error_estimate": 0.00415057995676,
         "det_values": [0.583225869985],
         "torus_max": 0.700725258287},
        "family,params,per_estimate_low,per_estimate_high,det_value,det_error_estimate\n"
        "dimer,a=1;b=1,0.38629436112,0.917570181315,0.583225869985,0.00415057995676\n",
    ),
    "periodic": (
        ["periodic", "--inline", TWO_POINT, "--tori", "4..5"],
        {"command": "periodic", "dim": 1,
         "tori": [{"torus": "4", "sites": 4, "count": 2,
                   "log_value": 0.69314718056, "normalized": 0.17328679514},
                  {"torus": "5", "sites": 5, "count": 2,
                   "log_value": 0.69314718056, "normalized": 0.138629436112}],
         "capacity_skipped": []},
        "window,size,log_value,normalized,kind\n"
        "4,4,0.69314718056,0.17328679514,torus\n"
        "5,5,0.69314718056,0.138629436112,torus\n",
    ),
}


class TestGoldenOutput:
    """Byte-exact stdout of one small run per subcommand and per compare
    family, in both formats."""

    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_json(self, capsys, name):
        argv, payload, _ = GOLDEN_RUNS[name]
        assert run(capsys, argv) == (0, json.dumps(payload, indent=2) + "\n", "")

    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_csv(self, capsys, name):
        argv, _, text = GOLDEN_RUNS[name]
        assert run(capsys, argv + ["--format", "csv"]) == (0, text, "")


UNIT_DIMER = '{"points": [[1,0], [-1,0], [0,1], [0,-1]]}'
needs_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                 reason="the malloc pin acts on glibc only")


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this checkout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


class TestMallocPin:
    """``cli.main`` fixes glibc's trim and mmap thresholds once per process,
    so a sweep's freed row arrays stay in the heap between rows and calls;
    the library alone never touches the host process's allocator."""

    @needs_glibc
    def test_torus_calls_stop_faulting_in_their_arrays(self):
        code = (
            "import contextlib, io, resource\n"
            "import latperm.cli as cli\n"
            f"argv = ['periodic', '--inline', {UNIT_DIMER!r}, '--tori', '10x10']\n"
            "def call():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0\n"
            "call()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(3):\n"
            "    call()\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)\n"
        )
        assert float(run_fresh(code)) < 1000

    @needs_glibc
    def test_only_cli_main_pins_and_only_once(self):
        # the audit hook records every lookup of mallopt through ctypes
        code = (
            "import contextlib, io, json, sys\n"
            "looked_up = []\n"
            "def hook(event, args):\n"
            "    if event == 'ctypes.dlsym' and args[1] == 'mallopt':\n"
            "        looked_up.append(event)\n"
            "sys.addaudithook(hook)\n"
            "import latperm, latperm.cli as cli\n"
            "from latperm import GroupRingElement, TorusQuotient, Window\n"
            "f = GroupRingElement(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})\n"
            "latperm.torus_permanent(f, TorusQuotient((6, 6)))\n"
            "latperm.window_permanent(f, Window.box([0, 0], [4, 4]))\n"
            "library = len(looked_up)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for _ in range(2):\n"
            "        assert cli.main(['periodic', '--inline', '{\"points\": [[0], [1]]}',\n"
            "                         '--tori', '4']) == 0\n"
            "print(json.dumps([library, len(looked_up)]))\n"
        )
        assert json.loads(run_fresh(code)) == [0, 1]

    @pytest.mark.parametrize("platform_, symbols", [
        ("linux", {"gnu_get_libc_version", "mallopt"}),
        ("linux", {"mallopt"}),  # musl has a mallopt that does nothing
        ("darwin", {"gnu_get_libc_version", "mallopt"}),
    ], ids=["glibc", "musl", "macos"])
    def test_thresholds_set_on_glibc_only(self, monkeypatch, platform_, symbols):
        calls = []

        class Lib:
            def __getattr__(self, name):
                if name not in symbols:
                    raise AttributeError(name)
                return lambda *args: calls.append((name, args))

        monkeypatch.setattr(cli.sys, "platform", platform_)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Lib())
        cli._pin_malloc.__wrapped__()
        glibc = platform_ == "linux" and "gnu_get_libc_version" in symbols
        assert calls == ([("mallopt", (-1, 1 << 30)), ("mallopt", (-3, 32 << 20))]
                         if glibc else [])
