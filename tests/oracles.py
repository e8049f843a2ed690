"""Independent reference implementations used to pin expected test values.

Everything here is written as directly from the definitions as possible:
exhaustive product filters, factorial-expansion permanents, plain recursive
backtracking, and Jensen's formula via polynomial roots. These are slow on
purpose and kept free of the package's kernel machinery, except
``full_quotient_permanent``, which runs the plain frontier sweep over a
whole torus as the reference for the torus split and join, and
``per_bit_join``, the join with its partner keys built bit by bit.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np


def naive_patterns(A_points, F_points, mode="injective", required=None):
    """Enumerate displacement patterns x: F -> A by filtering the full product.

    mode 'injective' keeps patterns with s + x_s pairwise distinct, 'admissible'
    additionally requires the image to contain every point of `required`,
    'image' requires the image to equal the set `required` exactly.
    Patterns come out in lexicographic order of their displacement tuples.
    """
    F = sorted(tuple(p) for p in F_points)
    A = sorted(tuple(p) for p in A_points)
    req = {tuple(p) for p in (required or ())}
    out = []
    for x in itertools.product(A, repeat=len(F)):
        image = {tuple(s + d for s, d in zip(p, dx)) for p, dx in zip(F, x)}
        if len(image) != len(F):
            continue
        if mode == "admissible" and not req <= image:
            continue
        if mode == "image" and image != req:
            continue
        out.append(x)
    return out


def naive_window_sum(f_terms, F_points, mode="injective", required=None, A_points=None):
    """Weighted pattern sum straight from the definition (exact on int inputs)."""
    f = {tuple(p): c for p, c in f_terms.items()}
    A = A_points if A_points is not None else list(f)
    total = 0
    for x in naive_patterns(A, F_points, mode=mode, required=required):
        w = 1
        for d in x:
            w = w * f.get(d, 0)
        total += w
    return total


def factorial_permanent(M):
    """Permanent of an m x n matrix (m <= n) by factorial expansion."""
    M = np.asarray(M)
    m, n = M.shape
    if m > n:
        raise ValueError("need at least as many columns as rows")
    rows = M.tolist()
    total = 0
    for cols in itertools.permutations(range(n), m):
        w = 1
        for i, j in enumerate(cols):
            w = w * rows[i][j]
        total += w
    return total


def permutation_sign(perm):
    """Sign of a permutation (tuple of images of 0..n-1) by counting inversions."""
    inter = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inter % 2 else 1


def backtracking_torus_permanent(displacement_weights, moduli):
    """Permanent of the displacement matrix on a finite torus, by plain recursion.

    `displacement_weights` maps displacement tuples (already reduced or not) to
    weights; sites are all points of the torus and each must map to a distinct
    image site. No memoization, no frontier tricks.
    """
    moduli = tuple(moduli)
    sites = list(itertools.product(*(range(n) for n in moduli)))
    reduced = {}
    for d, c in displacement_weights.items():
        r = tuple(x % n for x, n in zip(d, moduli))
        reduced[r] = reduced.get(r, 0) + c
    choices = []
    for s in sites:
        opts = []
        for d, c in reduced.items():
            img = tuple((a + b) % n for a, b, n in zip(s, d, moduli))
            opts.append((img, c))
        choices.append(opts)

    used = set()

    def go(k):
        if k == len(sites):
            return 1
        total = 0
        for img, c in choices[k]:
            if img in used:
                continue
            used.add(img)
            total += c * go(k + 1)
            used.discard(img)
        return total

    return go(0)


def full_quotient_permanent(f, quotient, exact=None, budget=10**8):
    """Torus permanent from one frontier sweep over every site of the
    quotient in the given coordinate order: every coset is swept, with no
    coset power, no join and no change of axes. Same value conventions as
    ``torus_permanent``."""
    from latperm.permanent import _rows, _scaled_logvalue, _sweep, _weights

    weights, k = _weights(f, exact, quotient.reduce)
    sites = quotient.points()
    rows = _rows(sites, weights, {p: j for j, p in enumerate(sites)}, quotient.reduce)
    raw, exp = next(_sweep(rows, (1 << len(sites)) - 1, k is None, budget, [len(rows)]))
    return _scaled_logvalue(raw, exp, k, quotient.size)


def per_bit_join(snap, other, partner, exact):
    """The torus join of two frontier snapshots, as ``permanent._join``
    defines it, with the partner key built one live bit at a time: each free
    bit of the snapshot is tested on its own and mapped to its partner's
    bit."""
    keys, vals, exp, live = snap
    okeys, ovals, oexp, olive = other
    rest = keys ^ sum(live.values())
    want = np.zeros(keys.size, dtype=okeys.dtype)
    for t, b in live.items():
        want |= (rest >> b.bit_length() - 1 & 1).astype(okeys.dtype) * olive[partner(t)]
    order = np.argsort(want)
    want = want[order]
    at = np.minimum(np.searchsorted(okeys, want), okeys.size - 1)
    hit = okeys[at] == want
    x, y = vals[order[hit]], ovals[at[hit]]
    if exact:
        if int(np.abs(x).sum()) * int(np.abs(y).max(initial=0)) >= 1 << 62:
            x, y = x.astype(object), y.astype(object)
        return int((x * y).sum()), 0
    ex, ey = (math.frexp(np.abs(z).max(initial=0.0))[1] for z in (x, y))
    return float(np.dot(np.ldexp(x, -ex), np.ldexp(y, -ey))), exp + oexp + ex + ey


def signed_target_sum(f, F, target, budget=10**8):
    """Sum of sgn(order isomorphism) * pattern weight over the patterns of f
    on F whose image is ``target``. Linear-domain on purpose: these sums
    cancel."""
    from latperm.patterns import enumerate_with_image, pattern_sign

    total = 0.0
    for p in enumerate_with_image(f.support(), F, target, budget=budget):
        total += pattern_sign(p) * p.weight(f)
    return total


def target_signs(f, F, budget=10**8):
    """The sign sgn(order isomorphism) * prod sign f(x_s) of each pattern of f
    on F, one list per image set: every |F|-subset of FA that holds the
    interior of F, in lexicographic order. An empty list is a vacuous image
    set, and a list with one distinct value is an image set of constant sign."""
    from latperm.groupring import Window, dilate, interior
    from latperm.patterns import enumerate_with_image, pattern_sign

    A = f.support()
    required = interior(F, A).point_set
    out = []
    for combo in itertools.combinations(dilate(F, A).points, len(F)):
        if required <= set(combo):
            out.append([pattern_sign(p) * math.prod(1 if f.coef(x) > 0 else -1
                                                    for x in p.displacements)
                        for p in enumerate_with_image(A, F, Window(combo), budget=budget)])
    return out


def kasteleyn_torus(a, b, m, n):
    """Permanent of a(u1 + 1/u1) + b(u2 + 1/u2) on the m x n torus, m and n even.

    The permanent counts ordered pairs of weighted dimer covers, so it is Z^2
    with Z = (-Z00 + Z01 + Z10 + Z11) / 2 and
    Z_st = prod_{j<m, k<n} |2a sin(pi(2j+s)/m) + 2ib sin(pi(2k+t)/n)|^(1/2)
    (Kasteleyn 1961). Evaluated in mpmath and rounded to the exact integer.
    """
    if m % 2 or n % 2:
        raise ValueError("Kasteleyn's formula needs even moduli")
    with mpmath.workdps(30 + m * n):
        z = 0
        for s, t, sign in ((0, 0, -1), (0, 1, 1), (1, 0, 1), (1, 1, 1)):
            prod = mpmath.mpf(1)
            for j in range(m):
                x = 2 * a * mpmath.sin(mpmath.pi * (2 * j + s) / m)
                for k in range(n):
                    y = 2 * b * mpmath.sin(mpmath.pi * (2 * k + t) / n)
                    prod *= abs(mpmath.mpc(x, y))
            z += sign * mpmath.sqrt(prod)
        z /= 2
        zi = int(mpmath.nint(z))
        if abs(z - zi) > mpmath.mpf("1e-12"):
            raise ArithmeticError(f"Kasteleyn value {z} is not an integer")
    return zi * zi


def jensen_mahler(coeffs):
    """Logarithmic Mahler measure of a one-variable Laurent polynomial.

    `coeffs` maps integer exponents to coefficients. Monomial factors have
    measure zero, so only the root moduli and the leading coefficient matter.
    """
    exps = sorted(coeffs)
    lo, hi = exps[0], exps[-1]
    poly = [coeffs.get(k, 0) for k in range(hi, lo - 1, -1)]
    if len(poly) == 1:
        return math.log(abs(poly[0]))
    roots = np.roots(poly)
    val = math.log(abs(poly[0]))
    for r in roots:
        m = abs(r)
        if m > 1.0:
            val += math.log(m)
    return val


def interior_scan(F_points, A_points):
    """Interior points by scanning a padded bounding box of F."""
    F = {tuple(p) for p in F_points}
    A = [tuple(p) for p in A_points]
    if not F or not A:
        return set()
    d = len(next(iter(F)))
    spread = max(abs(c) for a in A for c in a) if A else 0
    los = [min(p[i] for p in F) - spread for i in range(d)]
    his = [max(p[i] for p in F) + spread for i in range(d)]
    out = set()
    for t in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        if all(tuple(x - a for x, a in zip(t, av)) in F for av in A):
            out.add(t)
    return out


def folner_defect(F_points, K_points):
    """|FK \\ F| / |F|, the boundary growth of the window F under dilation
    by K, from the sums of their points."""
    F = {tuple(p) for p in F_points}
    grown = {tuple(x + k for x, k in zip(t, kv)) for t in F for kv in K_points}
    return len(grown - F) / len(F)


def quotient_convolve(a, b, moduli):
    """Convolution of coefficient maps on the product of cyclic groups."""
    out = {}
    for p, c in a.items():
        for q, e in b.items():
            r = tuple((x + y) % n for x, y, n in zip(p, q, moduli))
            out[r] = out.get(r, 0) + c * e
    return {k: v for k, v in out.items() if v != 0}


def claimed_positions_transfer(offset_weights):
    """Dense claimed-positions transfer matrix, one state at a time.

    `offset_weights` maps nonnegative displacements (the least one 0) to
    weights. A state is the bitmask of claimed positions in the look-ahead
    window of width K; a site sends its mass to an unclaimed position a, and
    position 0 must be claimed once the site is done before the window shifts.
    """
    K = max(offset_weights)
    n = 1 << K
    T = np.zeros((n, n))
    for S in range(n):
        for a, c in offset_weights.items():
            if a < K and S >> a & 1:
                continue
            if not (S & 1 or a == 0):
                continue
            T[(S | 1 << a) >> 1, S] += c
    return T


def unpruned_spectral_radius(sectors, tol=1e-13, max_iter=500000):
    """Largest spectral radius over sector blocks, every sector run to the end.

    Each block is iterated from the uniform vector by power iteration on
    I + B until the L1 change of the normalized iterate is at most tol, with
    no sector skipped or cut short. When the blocks hold 1024 states or fewer
    in all, a sector that does not converge takes its dense eigenvalues as
    its value instead. Blocks need .size, .dense() and a product B @ x; the
    steps use that product, so the result can be compared bit for bit with a
    solver that uses it too.
    """
    dense = sum(B.size for B in sectors) <= 1 << 10
    rho = 0.0
    for B in sectors:
        x = np.full(B.size, 1.0 / B.size)
        for _ in range(max_iter):
            y = B @ x + x
            total = y.sum()
            y /= total
            lam = total - 1.0
            if np.abs(y - x).sum() <= tol:
                break
            x = y
        else:
            if not dense:
                raise ArithmeticError("power iteration did not converge")
            lam = dense_spectral_radius(B.dense())
        rho = max(rho, lam)
    return rho


def dense_spectral_radius(M):
    """Largest eigenvalue modulus of a dense square matrix."""
    return float(np.abs(np.linalg.eigvals(M)).max())


def transfer_torus_value(offset_weights, n):
    """Trace of the n-th power of the dense claimed-positions transfer
    matrix, which reproduces the quotient permanent on Z/n once n clears
    the wrap-around width 2K+1."""
    T = claimed_positions_transfer(offset_weights)
    return float(np.trace(np.linalg.matrix_power(T, n)))


def direct_torus_abs(terms, dim, grid):
    """|f| on the midpoint grid ((k+1/2)/grid per axis), one exp of the
    summed phase per term and cell; `terms` maps exponent tuples to
    coefficients, which are added up in sorted order of their exponents."""
    theta = (np.arange(grid) + 0.5) / grid
    axes = np.meshgrid(*([theta] * dim), indexing="ij")
    vals = np.zeros((grid,) * dim, dtype=complex)
    for p, c in sorted(terms.items()):
        phase = sum(e * t for e, t in zip(p, axes))
        vals += c * np.exp(2j * np.pi * phase)
    return np.abs(vals)


def direct_log_mean(terms, dim, grid, eps):
    """Mean over the midpoint grid of log max(|f|, eps)."""
    return float(np.log(np.maximum(direct_torus_abs(terms, dim, grid), eps)).mean())


def direct_mahler(terms, dim, grid, refinements, eps):
    """Every MahlerResult field, in order, from whole-grid |f| arrays: levels
    at grid * 2^i for i <= refinements, each eps floor taken on its own copy
    of the logs, the differences, extrapolation and eps spread as documented
    on mahler_measure. When max |c| < 1 or sum |c| >= 2^1000 the terms are
    divided by 2^k, 2^k <= max |c| < 2^(k+1), and k log 2 is added back."""
    k = 0
    top = max(abs(c) for c in terms.values())
    if top < 1 or sum(abs(c) for c in terms.values()) >= 2 ** 1000:
        k = math.frexp(top)[1] - 1
        terms = {p: math.ldexp(c, -k) for p, c in terms.items()}
    grids = [grid << i for i in range(refinements + 1)]
    sweep = (1e-8, 1e-10, 1e-12)
    values = {e: [] for e in sorted(set(sweep) | {eps})}
    for g in grids:
        logs = np.log(np.maximum(direct_torus_abs(terms, dim, g), min(values)))
        for e in values:
            values[e].append(float(np.maximum(logs, np.log(e)).mean()) + k * math.log(2))
    main = values[eps]
    diffs = [b - a for a, b in zip(main, main[1:])]
    converged = len(diffs) < 2 or abs(diffs[-1]) <= abs(diffs[-2]) + 1e-15
    value = main[-1]
    if len(diffs) >= 2 and diffs[-2] != 0:
        ratio = diffs[-1] / diffs[-2]
        if 0 < abs(ratio) < 1:
            value = main[-1] + diffs[-1] * ratio / (1 - ratio)
    finals = [values[e][-1] for e in sweep]
    spread = max(finals) - min(finals)
    return value, abs(diffs[-1]) + spread, converged, tuple(zip(grids, main)), spread
