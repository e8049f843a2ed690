"""Smoke tests for the experiment scripts: each main() runs on small
arguments, exits 0, and prints its CSV header, its rows and its summary."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# per script: (arguments, CSV header, number of rows, start of a summary line)
SMOKE = {
    # 2 x 2 dimer weights, each bracket against the determinant
    "dimer_bracket": (
        ["--steps", "2", "--grid", "8"],
        "a,b,per_low,per_high,torus_max,det_value,det_error,contained", 4,
        "# 4 of 4 brackets contain the determinant value"),
    # 3 elements on boxes 4 and 8
    "section_convergence": (
        ["--max-size", "8", "--step", "4"],
        "element,size,section_value,mahler_exact,section_gap,iper_upper,per_minus_det", 6,
        "# laplacian: mahler=0 "),
    # 2^3 three-point grid points for K = 2 and 3, one four-point point for K = 3
    "sign_gap_sweep": (
        ["--steps", "2", "--max-K", "3"],
        "family,params,det1,det2,gap,winner", 17,
        "# points=17 "),
}


@pytest.mark.parametrize("name", list(SMOKE))
def test_main(capsys, name):
    argv, header, rows, summary = SMOKE[name]
    assert load(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    body = [line for line in lines[1:] if not line.startswith("#")]
    assert len(body) == rows
    assert all(len(line.split(",")) == len(header.split(",")) for line in body)
    assert any(line.startswith(summary) for line in lines)


def test_sign_gap_params_label(capsys):
    load("sign_gap_sweep").main(["--steps", "2", "--max-K", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("three-point-Z,a=0.5;b=0.5;c=0.5;K=2,")
    assert "# transfer cross-check: max |per - max(det1,det2)| = " in lines[-1]
