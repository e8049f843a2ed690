"""Permanent kernels for restricted displacement patterns and matrices.

The central quantity is the weighted count of injective (optionally
interior-covering) patterns on a window, which is the permanent of a
rectangular site-by-target matrix. Three backends read the same rows;
``sweep`` is the default and the only one for tori, ``dfs`` and ``ryser``
are cross-checks:

* ``sweep`` - the sites split into the connected components of the
  site-target graph, and the permanent is the product over the components
  of a frontier dynamic program over their sites in lexicographic order
  (single windows and tori sort their axes first, the longest first), run
  by one numpy stepper for windows, tori and matrices that yields the
  frontier at each cut; components advance side by side, cut by cut, and
  each cut's value is yielded as soon as all of them reach it.
  States are the sets of claimed targets that some later site can still
  claim, so the frontier stays small. Coverage requirements are enforced
  the moment a target's last potential claimant passes. Keys start as
  int32, widen to int64 and then to Python ints as the frontier outgrows
  each, and narrow again when it shrinks; exact values start as int64 and
  turn into Python ints when they outgrow it, so integer inputs give exact
  integers of any size; float values are scaled by 2^-512 past 2^512. A
  torus sweeps one component, see below.
* ``dfs`` - plain depth-first backtracking without memoization.
* ``ryser`` - Gray-code Ryser on the same rows, with rectangular inputs
  padded by all-one rows, and coverage handled by inclusion-exclusion over
  the required targets.

All kernels honor a node budget and raise CapacityError when they blow it.
The error carries only its message: the partial result of a multi-cut
sweep is the values its reader took before the error.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .groupring import (
    CapacityError,
    GroupRingElement,
    Point,
    TorusQuotient,
    Window,
    add,
    dilate,
    neg,
    separated_on_quotient,
    sub,
    sums,
)
from .patterns import DEFAULT_BUDGET, enumerate_injective, pattern_sign

# keys are int32 while every key bit is below 31, int64 below 62, Python ints beyond
_INT32_KEY_BITS, _KEY_BITS = 31, 62
_VALUE_LIMIT = 1 << 62  # exact int64 values stay below this
_FLOAT_LIMIT = 2.0 ** 512  # float values at or past this are divided by it
_RYSER_MAX_COLS = 24
_BYTE_BITS = np.arange(256)[:, None] >> np.arange(8) & 1  # row v: the bits of v


@dataclass(frozen=True)
class LogValue:
    """A possibly huge value carried as log magnitude plus sign.

    ``linear`` keeps the plain value when it is representable (always for
    exact integer results); signed sums must be read from it, since ``log``
    only sees the magnitude.
    """

    log: float
    sign: int = 1
    linear: float | int | None = None

    @staticmethod
    def from_linear(v) -> "LogValue":
        if v == 0:
            return LogValue(float("-inf"), 0, 0)
        s = 1 if v > 0 else -1
        return LogValue(math.log(abs(v)), s, v)  # an int of any size too

    @staticmethod
    def from_log(log: float, sign: int = 1) -> "LogValue":
        if sign == 0 or log == float("-inf"):
            return LogValue(float("-inf"), 0, 0)
        linear = math.exp(log) * sign if log < 700.0 else None
        return LogValue(log, sign, linear)

    def normalized(self, size: int) -> float:
        return self.log / size


# ---------------------------------------------------------------------------
# sweep kernel


def _candidates(keys, vals, base, choices, need):
    """Keys and values of every (state, choice) pair that claims a free
    target and leaves no dying required target unclaimed. A choice
    (test, put, w) takes the states whose ``test`` bit is clear and whose
    ``need`` bits are set, adds ``put`` to their ``base`` key and multiplies
    by w. Each choice compacts its admissible states by a boolean mask and
    writes them, put and weight applied, into its slice of one preallocated
    pair of arrays."""
    sels = [(keys & (need | test)) == need & ~test if need | test else slice(None)
            for test, _, _ in choices]
    sizes = [keys.size if isinstance(sel, slice) else int(np.count_nonzero(sel)) for sel in sels]
    kk = np.empty(sum(sizes), dtype=base.dtype)
    vv = np.empty(sum(sizes), dtype=vals.dtype)
    start = 0
    for sel, size, (_, put, w) in zip(sels, sizes, choices):
        nk, nv = kk[start:start + size], vv[start:start + size]
        start += size
        np.bitwise_or(base[sel], put, out=nk)
        if w == 1:
            nv[:] = vals[sel]
        else:
            np.multiply(vals[sel], w, out=nv)
    return kk, vv


def _components(rows) -> list[tuple[list[int], int]]:
    """Connected components of the site-target graph, as (row indices in
    site order, target mask) pairs ordered by their first row. Two rows are
    joined when they share a target: a union-find joins each row to the
    first row that claims each of its targets."""
    root = list(range(len(rows)))

    def find(k):
        while root[k] != k:
            root[k] = root[root[k]]  # path halving
            k = root[k]
        return k

    first: dict[int, int] = {}
    for k, row in enumerate(rows):
        r = find(k)  # stays a root: each target's root is linked under it
        for j, _ in row:
            root[find(first.setdefault(j, k))] = r
    # rows in increasing order reach each component at its first row
    members: dict[int, list[int]] = {}
    for k in range(len(rows)):
        members.setdefault(find(k), []).append(k)
    masks = dict.fromkeys(members, 0)
    for j, k in first.items():
        masks[find(k)] |= 1 << j
    return [(m, masks[r]) for r, m in members.items()]


def _shrink(x, exp: int):
    """(x, exp) for x * 2^exp, a float x past 2^512 divided by 2^512."""
    if isinstance(x, float) and abs(x) >= _FLOAT_LIMIT:
        return x / _FLOAT_LIMIT, exp + 512
    return x, exp


def _sweep(rows, required_mask: int, exact: bool, budget: int, cuts):
    """Yield the permanents of the rows below each of the ascending
    ``cuts``, as pairs (value, exp) meaning value * 2^exp; exp is 0 in exact
    mode. The value at cut c is the permanent of rows[:c] that leaves
    unclaimed no required target all of whose rows lie below c.

    The rows split into the connected components of the site-target graph,
    and a value is the product of the components' values: a block-diagonal
    matrix has the permanent of its blocks multiplied. Each component has a
    _frontier stepper with its own required targets, cut at its number of
    rows below each cut, and all of them draw on one node budget. Every
    component reaches a cut before any goes on to the next, and the product
    of the sums of their snapshots there is yielded at once, so a reader
    that stops early spends no nodes on later cuts, and on CapacityError
    keeps the values it took. A cut whose product turns 0 skips the
    components left; an empty frontier makes every later cut 0 and ends the
    sweep.
    """
    zero, one = ((0, 0), (1, 0)) if exact else ((0.0, 0), (1.0, 0))
    parts = _components(rows)
    # the component masks are disjoint, so their sum is their union
    if required_mask & ~sum(mask for _, mask in parts):
        yield from [zero] * len(cuts)
        return
    spent = [0]
    steppers = [_frontier([rows[k] for k in members], required_mask & mask, exact, budget, spent,
                          [bisect_left(members, c) for c in cuts]) for members, mask in parts]
    taken = [0] * len(parts)  # the snapshots each stepper has yielded
    for i in range(len(cuts)):
        total = one
        for p, step in enumerate(steppers):
            while taken[p] <= i:  # through the cuts a 0 product skipped
                _, vals, exp, _ = next(step)
                taken[p] += 1
            if not vals.size:
                yield from [zero] * (len(cuts) - i)
                return
            value, exp = _shrink(int(vals.sum()) if exact else float(vals.sum()), exp)
            total = _shrink(total[0] * value, total[1] + exp) if value else zero
            if not total[0]:
                break
        yield total


def _frontier(rows, required_mask: int, exact: bool, budget: int, spent: list, cuts):
    """Frontier DP over the rows, vectorized over the states of each step.

    A state is the set of claimed targets that a later row can still claim,
    kept as a key with one bit per live target. A target takes the lowest
    free bit at its first row and keeps it until its last row, so keys never
    move: a row maps a key to ``key & keep | put``, where ``keep`` holds the
    bits of the targets that stay live and ``put`` is the bit of the chosen
    target if it stays live. Being lowest-free, no bit is higher than the
    peak number of live targets; each row picks the narrowest key type for
    the bits it holds: int32 while every bit is below 31, int64 below 62,
    Python ints otherwise. Required targets are checked at their
    last row. Exact values start as int64 and become Python ints at the
    first row whose bound sum(|values|) * sum(|weights|) on the next values
    could reach 2^62, summed once a running product of the sum(|weights|)
    does. Float values are divided by 2^512 after each row that takes one
    past it, and ``exp`` counts the bits. A node is one (state, choice)
    pair, added to the shared counter ``spent[0]`` before a row is built;
    past ``budget`` it raises CapacityError. The stepper yields, at each of
    the ascending row indices ``cuts``, the snapshot: sorted keys, values,
    exp and {target: key bit} of the live targets, which rows on both sides
    of the cut can claim. At cut len(rows) the one value is the permanent.
    Once the frontier is empty, no more rows run and every later cut yields
    it, with no live target.
    """
    last = {j: k for k, row in enumerate(rows) for j, _ in row}
    signed = any(w < 0 for row in rows for _, w in row)  # else every value is >= 0
    keys = np.zeros(1, dtype=np.int32)
    vals = np.ones(1, dtype=np.int64 if exact else np.float64)
    bit: dict[int, int] = {}  # target -> its key bit; dead entries are never read
    used = 0  # the bits of the live targets
    exp = 0
    bound = 1  # >= max(sum(|values|), 1) while the values are int64
    k = 0
    for cut in cuts:
        while k < cut and keys.size:
            row = rows[k]
            spent[0] += keys.size * len(row)
            if spent[0] > budget:
                raise CapacityError(f"sweep kernel exceeded {budget} nodes at row {k}/{len(rows)}"
                                    " of a component")
            if exact and vals.dtype != object:
                scale = sum(abs(w) for _, w in row)
                bound *= scale
                if bound >= _VALUE_LIMIT:  # re-sum: the running bound can be loose
                    bound = max(int((np.abs(vals) if signed else vals).sum()), 1) * scale
                    if bound >= _VALUE_LIMIT:
                        vals = vals.astype(object)
            # a required target dying here must be claimed in the state already
            # (need) or, if no earlier row reaches it, by this row (unclaimed)
            tests = [bit.get(j, 0) for j, _ in row]
            need = unclaimed = 0
            for (j, _), b in zip(row, tests):
                if last[j] == k:
                    used &= ~b
                    if required_mask >> j & 1:
                        if b:
                            need |= b
                        else:
                            unclaimed |= 1 << j
            keep = used
            choices = []
            for (j, w), b in zip(row, tests):
                put = b if last[j] > k else 0
                if last[j] > k and not b:
                    put = bit[j] = ~used & (used + 1)
                    used |= put
                if not unclaimed or unclaimed == 1 << j:
                    choices.append((b, put, w))
            # convert keys & keep, not keys: a dying bit may sit above 31 or 62
            key_type = (np.int32 if not used >> _INT32_KEY_BITS else
                        np.int64 if not used >> _KEY_BITS else object)
            base = (keys & keep).astype(key_type, copy=False)
            kk, vv = _candidates(keys, vals, base, choices, need)
            del keys, vals, base  # a yielded snapshot stays with its reader
            if kk.size == 0:  # no pattern: every later state is empty, no target live
                keys, vals, bit = kk, vv, {}
                break
            order = np.argsort(kk, kind="stable")
            kk = kk[order]
            vv = vv[order]
            del order
            first = np.empty(kk.size, dtype=bool)  # the first key of each run
            first[0] = True
            np.not_equal(kk[1:], kk[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            del first
            keys = kk[starts]
            vals = np.add.reduceat(vv, starts)
            del kk, vv, starts
            if not exact and max(vals.max(), -vals.min()) >= _FLOAT_LIMIT:
                vals = vals / _FLOAT_LIMIT
                exp += 512
            k += 1
        yield keys, vals, exp, {j: b for j, b in bit.items() if last[j] >= cut}


def _dfs_permanent(rows, required_mask: int, exact: bool, budget: int):
    """Plain backtracking, no memoization; a required target is checked at its last row."""
    nrows = len(rows)
    last = {j: k for k, row in enumerate(rows) for j, _ in row}
    if required_mask & ~sum(1 << j for j in last):
        return 0 if exact else 0.0
    needs = [0] * nrows
    for j, k in last.items():
        needs[k] |= required_mask & 1 << j
    nodes = 0

    def go(k: int, mask: int, acc):
        nonlocal nodes
        if k == nrows:
            return acc
        total = 0 if exact else 0.0
        need = needs[k]
        for j, w in rows[k]:
            bit = 1 << j
            if mask & bit:
                continue
            nodes += 1
            if nodes > budget:
                raise CapacityError(f"dfs kernel exceeded {budget} nodes")
            nm = mask | bit
            if nm & need != need:
                continue
            total += go(k + 1, nm, acc * w)
        return total

    return go(0, 0, 1 if exact else 1.0)


# ---------------------------------------------------------------------------
# Ryser


def ryser_permanent(rows, columns, exact: bool = False):
    """Permanent of the (column, weight) rows on the given columns, by
    Gray-code Ryser: the cross-check that reads the rows the sweep reads.

    Entries outside ``columns`` are ignored. With m rows and n >= m columns
    the n - m missing rows count as all-one rows: each term is multiplied by
    the subset size once per missing row, and the result is divided by
    (n - m)!. The loop runs over the weights as given, so exact integer
    weights give an exact integer.
    """
    m, n = len(rows), len(columns)
    if m > n:
        return 0 if exact else 0.0
    if n == 0:
        return 1 if exact else 1.0
    if n > _RYSER_MAX_COLS:
        raise CapacityError(f"ryser limited to {_RYSER_MAX_COLS} columns")
    # the (row, weight) entries of each kept column
    cols = [[(i, w) for i, row in enumerate(rows) for j, w in row if j == c] for c in columns]
    pad = n - m
    one = 1 if exact else 1.0  # with no rows, float terms still round per factor
    sums = [0] * m
    total = 0 if exact else 0.0
    gray = 0
    for k in range(1, 1 << n):
        flip = (k & -k).bit_length() - 1
        gray ^= 1 << flip
        sign = 1 if gray >> flip & 1 else -1
        for i, w in cols[flip]:
            sums[i] += sign * w
        size = gray.bit_count()
        term = one
        for s in sums:
            term *= s
            if not term:
                break
        else:
            for _ in range(pad):
                term *= size
        total += term if size % 2 == n % 2 else -term
    if not exact:
        return total / math.factorial(pad)
    total, r = divmod(total, math.factorial(pad))
    if r:
        raise ArithmeticError("ryser padding division was not exact")
    return total


# ---------------------------------------------------------------------------
# window and torus permanents


def _weights(f: GroupRingElement, exact: bool | None, reduce=None):
    """The sweep weights of f's terms by displacement, mapped onto a
    quotient by ``reduce`` if given, and k. On the exact path k is None and
    the weights are Python ints; exact=None picks it when every coefficient
    is an integer, and a non-integer one raises ValueError. Float weights
    are the terms of g, f = 2^k g from f.unit_scale(), all below 2."""
    integer = f.is_integer()
    if not (integer if exact is None else exact):
        g, k = f.unit_scale()
        return {reduce(a) if reduce else a: c for a, c in g.terms.items()}, k
    if not integer:
        raise ValueError("element has non-integer coefficients")
    return {reduce(a) if reduce else a: int(c) for a, c in f.terms.items()}, None


def window_permanent(
    f: GroupRingElement,
    F: Window,
    A: Window | None = None,
    mode: str = "admissible",
    backend: str = "sweep",
    exact: bool | None = None,
    budget: int = DEFAULT_BUDGET,
) -> LogValue:
    """Weighted pattern sum over the window F.

    mode 'injective' sums over injective patterns, 'admissible' additionally
    requires the image to cover the interior of F. The result is an exact
    Python int when f has integer coefficients (or exact=True), however
    large; otherwise it is computed in floats on g, f = 2^k g from
    f.unit_scale(), and |F| k log 2 is added to the log. The ``dfs`` and
    ``ryser`` backends are cross-checks on the same rows. The sites run along
    F's longest axis: the axes are sorted by decreasing extent, ties kept.
    """
    if backend not in ("sweep", "dfs", "ryser"):
        raise ValueError(f"unknown backend {backend!r}")
    plan = _window_rows(f, F, A, mode, exact, reorder=True)
    if plan is None:
        return LogValue.from_linear(1 if len(F) == 0 else 0)
    rows, required, k, ncols = plan
    req_mask = sum(1 << j for j in required)
    if backend == "sweep":
        return next(_cut_values(rows, req_mask, k, budget, [len(F)]))
    if backend == "dfs":
        raw = _dfs_permanent(rows, req_mask, k is None, budget)
    else:
        raw = _inclusion_exclusion_permanent(rows, ncols, required, k is None)
    return _scaled_logvalue(raw, 0, k, len(F))


def window_permanents(
    f: GroupRingElement,
    F: Window,
    sizes,
    mode: str = "admissible",
    budget: int = DEFAULT_BUDGET,
) -> Iterator[LogValue]:
    """An iterator of window_permanent of f on each window F_n of the first
    n points of F, n in the ascending ``sizes``, from one sweep of F's
    sites: F_n's value is read at cut n. The arguments are checked and the
    rows built at the call; each value is swept when it is taken, so a
    reader that stops early spends no nodes on larger windows, and one that
    meets CapacityError keeps the windows it took.

    The sites run in F's order, so F_n's sites are the rows below cut n, and
    with A the support of f, interior(F_n) is the set of targets of
    interior(F) whose claimants t - A all lie in F_n: the required targets
    whose rows all lie below the cut, which is what _sweep checks there.
    """
    plan = _window_rows(f, F, None, mode, None)
    if plan is None:
        return iter([LogValue.from_linear(1 if n == 0 else 0) for n in sizes])
    rows, required, k, _ = plan
    return _cut_values(rows, sum(1 << j for j in required), k, budget, sizes)


def _window_rows(f: GroupRingElement, F: Window, A: Window | None, mode: str,
                 exact: bool | None, reorder: bool = False):
    """(rows, required columns, k, columns) of window_permanent on F, or None
    when f is 0 or F empty. One pass over the sums s + a numbers the targets
    in sorted order and counts their hits; in admissible mode the interior,
    the targets hit |A| times, is required. ``reorder`` sorts the axes first."""
    if mode not in ("admissible", "injective"):
        raise ValueError("mode must be 'admissible' or 'injective'")
    A = A if A is not None else f.support()
    if f.is_zero() or len(F) == 0:
        return None
    if F.dim != f.dim:
        raise ValueError("window dimension does not match element")
    if not f.support().point_set <= A.point_set:
        raise ValueError("support of f must lie inside A")
    weights, k = _weights(f, exact)
    sites, disp = F.points, A.points
    minus_extent = [min(c) - max(c) for c in zip(*sites)] if reorder else []
    axes = sorted(range(len(minus_extent)), key=minus_extent.__getitem__)  # stable
    if axes != sorted(axes):  # an isomorphism of Z^d: the same value
        swap = operator.itemgetter(*axes)  # d >= 2, so it gives tuples
        sites, disp = sorted(map(swap, sites)), sorted(map(swap, disp))
        weights = {swap(a): w for a, w in weights.items()}
    targets, hits = sums(sites, disp)
    index = {t: j for j, t in enumerate(sorted(hits))}
    cols = [(i, weights[a]) for i, a in enumerate(disp) if a in weights]
    rows = [[(index[targets[s + i]], w) for i, w in cols]
            for s in range(0, len(targets), len(disp))]
    full = len(disp) if mode == "admissible" else 0  # every target is hit at least once
    return rows, [j for t, j in index.items() if hits[t] == full], k, len(index)


def _cut_values(rows, req_mask: int, k, budget: int, sizes) -> Iterator[LogValue]:
    """_sweep's values at the cuts ``sizes`` as the LogValues of windows of
    those sizes (see _scaled_logvalue)."""
    for (raw, exp), n in zip(_sweep(rows, req_mask, k is None, budget, sizes), sizes):
        yield _scaled_logvalue(raw, exp, k, n)


def _scaled_logvalue(raw, exp, k, nsites) -> LogValue:
    """raw * 2^exp * (2^k)^nsites, or the exact raw if k is None."""
    if k is None:
        return LogValue.from_linear(raw)
    if raw == 0:
        return LogValue.from_linear(0)
    sign = 1 if raw > 0 else -1
    log = math.log(abs(raw)) + nsites * k * math.log(2) + exp * math.log(2)
    return LogValue.from_log(log, sign)


def _inclusion_exclusion_permanent(rows, ncols: int, required: list[int], exact: bool):
    """Coverage-constrained permanent of the rows over columns 0..ncols-1,
    via inclusion-exclusion over the required columns dropped."""
    if len(required) > 24:
        raise CapacityError("inclusion-exclusion limited to 24 required columns")
    total = 0 if exact else 0.0
    for k in range(1 << len(required)):
        drop = {required[i] for i in range(len(required)) if k >> i & 1}
        keep = [j for j in range(ncols) if j not in drop]
        term = ryser_permanent(rows, keep, exact=exact)
        total += term if bin(k).count("1") % 2 == 0 else -term
    return total


def torus_permanent(
    f: GroupRingElement,
    quotient: TorusQuotient,
    exact: bool | None = None,
    budget: int = DEFAULT_BUDGET,
) -> LogValue:
    """Permanent of the displacement weight matrix on a finite quotient.

    Every quotient point is a site and must also be hit, so patterns are
    bijections of the quotient with displacements in the projected support.
    Requires distinct displacements to stay distinct on the quotient. The
    value is exact or scaled like in window_permanent; exact=True with a
    non-integer coefficient raises ValueError. The coordinates are first
    sorted by decreasing modulus, ties in the given order, which is a group
    isomorphism: the sweep runs along the longest axis.

    The sweep takes the component of the origin in the site-target graph,
    the coset H of <A - A>, and raises its value to the power [G:H]: the
    cosets are translates with the same weights.
    Let H span m slabs (values of coordinate 0), a = ceil(m/2), b = m - a.
    The sweep stops before slab a with F_a[K], K the claimed targets among
    those L that slabs [0, a) and [a, m) share, and keeps F_b from before
    slab b. Translation by a site v of slab a maps slabs [0, b) onto [a, m)
    weight for weight and F_b's live targets onto L, so per(H) = sum over K
    of F_a[K] F_b[v^-1 (L - K)]. Only swept rows count against the budget.
    """
    A = f.support()
    if quotient.dim != f.dim:
        raise ValueError("quotient dimension does not match element")
    ok, pair = separated_on_quotient(A, quotient)
    if not ok:
        raise ValueError(
            f"displacements {pair[0]} and {pair[1]} collide modulo {quotient.moduli}"
        )
    axes = sorted(range(f.dim), key=lambda i: -quotient.moduli[i])
    f = GroupRingElement(f.dim, {tuple(p[i] for i in axes): c for p, c in f.terms.items()})
    quotient = TorusQuotient(tuple(quotient.moduli[i] for i in axes))
    weights, k = _weights(f, exact, quotient.reduce)
    use_exact = k is None
    sites = quotient.points()
    index = {p: j for j, p in enumerate(sites)}
    rows = [[(index[quotient.reduce(add(s, a))], w) for a, w in sorted(weights.items())]
            for s in sites]
    # Sites s, s' share a target iff s - s' is in A - A, so the components
    # are the cosets x + H, the first one H itself. Site s claims s + a with
    # weight w_a, so s -> s + x maps H's rows onto x + H's, weight for weight.
    # H meets each of its m slabs in a translate of its slab 0, as many rows.
    parts = _components(rows)
    members, mask = parts[0]
    m = len({sites[k][0] for k in members})
    a, b, width = m - m // 2, m // 2, len(members) // m
    snap_b, snap_a = _frontier([rows[k] for k in members], mask, use_exact, budget, [0],
                               (b * width, a * width))
    v = sites[members[a * width]] if a < m else sites[0]
    value, exp = _join(snap_a, snap_b, lambda t: index[quotient.reduce(sub(sites[t], v))],
                       use_exact)
    h, n = _scaled_logvalue(value, exp, k, len(members)), len(parts)
    if use_exact:
        return LogValue.from_linear(h.linear ** n)
    return LogValue.from_log(n * h.log, h.sign ** n)


def _join(snap, other, partner, exact: bool):
    """Sum over K of F[K] * G[partner(L - K)] as (value, exp), for the
    _frontier snapshots F = ``snap`` with live targets L and G = ``other``.
    The key of partner(L - K) is built one key byte at a time, from a
    256-entry table per byte of the partner bits of its set bits, in G's key
    type: the two snapshots may hold keys of different types. Exact
    products are int64 while sum |F| * max |G| is below 2^62; float halves
    are scaled to at most 1 by powers of two, so none overflows."""
    keys, vals, exp, live = snap
    okeys, ovals, oexp, olive = other
    rest = keys ^ sum(live.values())
    top = max(live.values(), default=0).bit_length()
    moved = [0] * ((top + 7) // 8 * 8)  # the partner bit of each key bit, or 0
    for t, b in live.items():
        moved[b.bit_length() - 1] = olive[partner(t)]
    if rest.dtype != object:  # int32 and int64 keys are read as their little-endian bytes
        n = rest.itemsize
        rest = rest.astype(f"<i{n}", copy=False).view(np.uint8).reshape(-1, n)
    want = np.zeros(keys.size, dtype=okeys.dtype)
    for i in range(0, len(moved), 8):
        # entry v of the table is the partner key of the bits of v << i; the
        # product is int64 for int32 partner keys, so it is cast back
        table = (_BYTE_BITS @ np.array(moved[i:i + 8], dtype=okeys.dtype)).astype(okeys.dtype)
        want |= table[rest[:, i // 8] if rest.ndim == 2 else (rest >> i & 255).astype(np.intp)]
    del rest  # from here on each array is dropped once read
    order = np.argsort(want)  # sorted needles search faster
    want = want[order]
    at = np.searchsorted(okeys, want)
    np.minimum(at, okeys.size - 1, out=at)
    hit = okeys[at] == want
    del want
    x = vals[order[hit]]
    del order
    y = ovals[at[hit]]
    del at, hit
    if exact:
        if int(np.abs(x).sum()) * int(np.abs(y).max(initial=0)) >= _VALUE_LIMIT:
            x, y = x.astype(object), y.astype(object)
        return int(np.dot(x, y)), 0
    ex, ey = (math.frexp(np.abs(z).max(initial=0.0))[1] for z in (x, y))
    return float(np.dot(np.ldexp(x, -ex), np.ldexp(y, -ey))), exp + oexp + ex + ey


def matrix_permanent(
    M, backend: str = "sweep", exact: bool = False, budget: int = DEFAULT_BUDGET
):
    """Permanent of a dense matrix (no coverage).

    The rows are the (column, weight) pairs of the nonzero entries; the
    sweep runs on them, and backend="ryser" runs Gray-code Ryser on the same
    rows as a cross-check (at most 24 columns). exact=True raises ValueError
    on an entry that is not a finite integer, infinite or NaN ones included;
    a float sweep beyond the float range raises OverflowError.
    """
    if backend not in ("sweep", "ryser"):
        raise ValueError(f"unknown backend {backend!r}")
    M = np.asarray(M)
    if exact and not all(isinstance(x, int) or float(x).is_integer()
                         for x in M.flat):
        raise ValueError("matrix has non-integer entries")
    m, n = M.shape
    if m > n:
        return 0 if exact else 0.0
    num = int if exact else float
    rows = [[(j, num(x)) for j, x in enumerate(row) if x] for row in M.tolist()]
    if backend == "ryser":
        return ryser_permanent(rows, range(n), exact)
    value, exp = next(_sweep(rows, 0, exact, budget, [m]))
    return math.ldexp(value, exp) if exp else value


# ---------------------------------------------------------------------------
# the finite determinant identity


def ffstar_section_matrix(f: GroupRingElement, F: Window) -> np.ndarray:
    """Matrix of f f^* restricted to the reflected window -F."""
    g = f.convolve(f.adjoint())
    E = sorted(neg(p) for p in F.points)
    n = len(E)
    M = np.zeros((n, n))
    for i, s in enumerate(E):
        for j, t in enumerate(E):
            M[i, j] = g.coef(sub(s, t))
    return M


def finite_det_ffstar(f: GroupRingElement, F: Window) -> float:
    """Determinant of the f f^* section on -F (nonnegative up to roundoff)."""
    return float(np.linalg.det(ffstar_section_matrix(f, F)))


def det_identity_check(f: GroupRingElement, F: Window,
                       budget: int = DEFAULT_BUDGET) -> dict:
    """Compare det of the f f^* section with the sum over image sets of
    squared signed pattern sums. Returns both sides and their difference."""
    lhs = finite_det_ffstar(f, F)
    A = f.support()
    buckets: dict[frozenset, float] = {}
    npat = 0
    for p in enumerate_injective(A, F, budget=budget):
        npat += 1
        key = p.image_set()
        buckets[key] = buckets.get(key, 0.0) + pattern_sign(p) * p.weight(f)
    rhs = float(sum(v * v for v in buckets.values()))
    denom = max(1.0, abs(lhs), abs(rhs))
    return {
        "lhs_det": lhs,
        "rhs_sum": rhs,
        "abs_error": abs(lhs - rhs),
        "rel_error": abs(lhs - rhs) / denom,
        "patterns": npat,
        "images": len(buckets),
    }


# ---------------------------------------------------------------------------
# doubly stochastic extension and classical bounds


def doubly_stochastic_extension(f: GroupRingElement,
                                F: Window) -> tuple[np.ndarray, tuple[Point, ...]]:
    """Square doubly stochastic matrix on FA extending the site-target matrix.

    Each displacement a of A induces a bijection of FA that translates F by a
    and maps the leftover points onto the leftover targets in lexicographic
    order; summing f_a over these bijections gives the extension. Needs
    nonnegative f with total mass one. The ambient displacement set A is
    supp(f) enlarged by the zero displacement, so that F sits inside FA and
    the site-target matrix really is a submatrix.
    """
    A = Window.of(set(f.support().points) | {(0,) * f.dim})
    if not f.is_nonnegative():
        raise ValueError("extension needs nonnegative coefficients")
    if abs(sum(f.terms.values()) - 1.0) > 1e-12:
        raise ValueError("extension needs total mass one")
    ground = dilate(F, A).points
    pos = {t: j for j, t in enumerate(ground)}
    n = len(ground)
    C = np.zeros((n, n))
    fset = F.point_set
    for a in sorted(A.points):
        c = f.coef(a)
        image_of_F = {add(s, a) for s in F.points}
        rest_dom = [t for t in ground if t not in fset]
        rest_cod = [t for t in ground if t not in image_of_F]
        sigma = {s: add(s, a) for s in F.points}
        sigma.update(dict(zip(rest_dom, rest_cod)))
        if c == 0:
            continue
        for t1, t2 in sigma.items():
            C[pos[t1], pos[t2]] += c
    return C, ground


def vdw_bound(n: int) -> float:
    """log of n!/n^n, the van der Waerden floor for doubly stochastic matrices."""
    if n < 1:
        raise ValueError("order must be positive")
    return math.lgamma(n + 1) - n * math.log(n)


def bregman_bound(M: np.ndarray) -> float:
    """log of the Minc/Bregman ceiling prod_i (r_i!)^(1/r_i) for a 0-1 matrix."""
    M = np.asarray(M)
    if not np.isin(M, (0, 1)).all():
        raise ValueError("bound applies to 0-1 matrices")
    total = 0.0
    for r in M.sum(axis=1):
        r = int(r)
        if r == 0:
            return float("-inf")
        total += math.lgamma(r + 1) / r
    return total
