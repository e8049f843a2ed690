"""Track finite-section determinants against the exact Mahler value.

For several one-dimensional elements the normalized log-determinant of the
f f^* compression to a growing box converges to the Fuglede-Kadison value
(the logarithmic Mahler measure, computed exactly from roots). Alongside,
the injective window estimate gives the permanent's upper bound, whose gap
over the determinant can stay strictly positive: the discrete Laplacian
u^-1 + 2 + u has Mahler measure zero but pressure log(1 + sqrt 2) =
0.88137 (transfer_pressure), its injective boxes reading 0.995, 0.938 and
0.919 at sizes 8, 16 and 24, the clearest strict per > det example at desk
scale.

Output: one CSV row per (element, box size), then per-element summary
lines. Exit code 0.
"""

import argparse
from dataclasses import dataclass

import numpy as np

from latperm.entropy import WindowSchedule
from latperm.fkdet import mahler_measure_roots
from latperm.groupring import GroupRingElement, Window
from latperm.permanent import ffstar_section_matrix, window_permanent

ELEMENTS = {
    "two-point": GroupRingElement(1, {(0,): 1, (1,): 1}),
    "golden-signed": GroupRingElement(1, {(0,): -1, (1,): 1, (2,): 1}),
    "laplacian": GroupRingElement(1, {(-1,): 1, (0,): 2, (1,): 1}),
}


@dataclass(frozen=True)
class SectionRow:
    """One finite determinant section: (1/(2|F|)) log det of the ff* block."""

    window: str
    size: int
    value: float


def fk_finite_sections(f: GroupRingElement, schedule: WindowSchedule) -> list[SectionRow]:
    """Normalized log determinants of f f^* compressions along the schedule.

    A section whose determinant is nonpositive after floating point is
    recorded as -inf rather than raising.
    """
    if f.is_zero():
        raise ValueError("finite sections of the zero element are undefined")
    rows = []
    for label, F in schedule:
        M = ffstar_section_matrix(f, F)
        sign, logabs = np.linalg.slogdet(M)
        if sign > 0 and np.isfinite(logabs):
            value = logabs / (2 * len(F))
        else:
            value = float("-inf")
        rows.append(SectionRow(label, len(F), value))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=24)
    parser.add_argument("--step", type=int, default=4)
    args = parser.parse_args(argv)

    sizes = list(range(args.step, args.max_size + 1, args.step))
    schedule = WindowSchedule.boxes(1, sizes)

    print("element,size,section_value,mahler_exact,section_gap,"
          "iper_upper,per_minus_det")
    summaries = []
    for name, f in ELEMENTS.items():
        exact = mahler_measure_roots(f)
        rows = fk_finite_sections(f, schedule)
        last = None
        for row in rows:
            F = Window.box([0], [row.size])
            iper = window_permanent(f.abs(), F, mode="injective")
            upper = iper.normalized(row.size)
            print(f"{name},{row.size},{row.value:.12g},{exact:.12g},"
                  f"{row.value - exact:.12g},{upper:.12g},"
                  f"{upper - exact:.12g}")
            last = (row.value - exact, upper - exact)
        summaries.append((name, exact, last))
    for name, exact, (section_gap, per_gap) in summaries:
        print(f"# {name}: mahler={exact:.9g} final section gap "
              f"{section_gap:.3g}, final per-minus-det gap {per_gap:.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
