"""CLI fuzz over extreme coefficient scales.

Runs ``cli.main`` in process on random elements of dimension 1 and 2 with
one to four terms, exponents in [-3, 3] and coefficients from subnormal to
past the float range. Every run must end in a documented way, and scaling
the element by 2^j must shift each scale-exact value by j log 2 per site.
Permanents are compared on nonnegative elements only: a signed float sum
that cancels keeps a rounding residue where the exact sum of an integer
2^j f is 0.
"""

import contextlib
import io
import json
import math
import warnings
from unittest import mock

from hypothesis import given, settings, strategies as st

from latperm import cli

COEFS = (5e-324, 1e-308, 1e-300, 1e-12, 0.5, 1, 2, 3, 7.25, 1e300, 1e308, 10 ** 30, 10 ** 320)
# the exit-4 failures README lists
NUMERICAL = ("did not converge", "outside its bracket", "disagree", "both orientations",
             "padding division")


def _argvs(dim: int) -> dict:
    """Small windows, tori and grids; a torus of side 7 separates every
    support with exponents in [-3, 3]."""
    if dim == 1:
        return {"mahler": ["--grid", "8"],
                "pressure": ["--windows", "2..3", "--tori", "7"],
                "permanent": ["--windows", "4"],
                "periodic": ["--tori", "7"]}
    return {"mahler": ["--grid", "8"],
            "pressure": ["--windows", "2", "--tori", "7x7", "--budget", "3000"],
            "permanent": ["--windows", "2"],
            "periodic": ["--tori", "7x7", "--budget", "3000"]}


def _times_power_of_two(c, j: int):
    """c * 2^j exactly: an int where it is an integer, else a float."""
    num, den = c.as_integer_ratio()
    return num * ((1 << j) // den) if den <= 1 << j else math.ldexp(c, j)


def _inline(terms: dict) -> str:
    return json.dumps({"dim": len(next(iter(terms))),
                       "terms": [{"exp": list(p), "coef": c} for p, c in terms.items()]})


def _unrounded(x):
    """cli._num without the rounding to 12 digits, which would hide a
    relative error up to 5e-12."""
    if isinstance(x, dict):
        return {k: _unrounded(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_unrounded(v) for v in x]
    if isinstance(x, float):
        return float(x) if math.isfinite(x) else repr(float(x))
    return x


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, mock.patch.object(cli, "_num", _unrounded):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    return code, out.getvalue(), err.getvalue()


def _floats(x):
    """Every float in a JSON payload, the non-finite strings included."""
    if isinstance(x, dict):
        for v in x.values():
            yield from _floats(v)
    elif isinstance(x, list):
        for v in x:
            yield from _floats(v)
    elif isinstance(x, str) and x in ("inf", "-inf", "nan"):
        yield float(x)
    elif isinstance(x, float):
        yield x


def _scale_exact(command: str, payload: dict, signed: bool) -> dict:
    """Each value that f -> 2^j f shifts by j log 2 times the given count."""
    if command in ("permanent", "periodic") and signed:
        return {}
    if command == "pressure":
        out = {"closed_form_lower": (payload["closed_form_lower"], 1)}
        if payload["transfer_value"] is not None:
            out["transfer_value"] = (payload["transfer_value"], 1)
        return out
    if command == "mahler":
        roots = payload["roots_value"]
        return {} if roots is None else {"roots_value": (roots, 1)}
    if command == "permanent":
        return {mode: (payload[mode]["log_value"], payload["size"])
                for mode in ("admissible", "injective")}
    return {row["torus"]: (row["log_value"], row["sites"]) for row in payload["tori"]}


@st.composite
def _elements(draw):
    dim = draw(st.integers(1, 2))
    points = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim),
                           min_size=1, max_size=4, unique=True))
    return {p: draw(st.sampled_from(COEFS)) * draw(st.sampled_from((1, 1, 1, -1)))
            for p in points}


@settings(deadline=None, max_examples=60, derandomize=True)
@given(_elements(), st.sampled_from((1, 3, 64, 1100)))
def test_documented_exits_and_power_of_two_shifts(terms, j):
    dim = len(next(iter(terms)))
    scaled = {p: _times_power_of_two(c, j) for p, c in terms.items()}
    for command, flags in _argvs(dim).items():
        code, out, err = _run([command, "--inline", _inline(terms)] + flags)
        assert "Traceback" not in err
        assert code in (0, 2, 3, 4), (command, code, err)
        if code == 4:
            assert err.startswith("error: numerical: ") and any(m in err for m in NUMERICAL), err
        if code in (2, 4):
            continue
        payload = json.loads(out, parse_int=float)
        assert not any(math.isnan(x) for x in _floats(payload)), (command, out)
        code2, out2, err2 = _run([command, "--inline", _inline(scaled)] + flags)
        assert (code2, err2) == (code, err), (command, terms, j)
        signed = any(c < 0 for c in terms.values())
        shifted = _scale_exact(command, json.loads(out2, parse_int=float), signed)
        for key, (x, count) in _scale_exact(command, payload, signed).items():
            y, want = float(shifted[key][0]), float(x) + j * count * math.log(2)
            assert y == want or abs(y - want) <= 1e-12 * max(1.0, abs(want)), \
                (command, key, terms, j)
