"""Independent checker for the benchmark: the paper's closed forms and a
reference rank mod p.

Nothing here imports the hypersurfaces package.  The workloads compare every
computed value against these formulas or against a property recomputed here
from scratch, never against a stored copy of earlier output.

Run ``python3 perfbench/checker.py`` for the self-test: it confirms the closed
forms by brute force (own parametrisations, own monomial evaluation, own
elimination) on small cases.
"""

from __future__ import annotations

import itertools
import random
import sys
from math import comb

# ------------------------------------------------------------------ closed forms


def u(c: int, g: int, d: int, m: int) -> int:
    """Riemann-Roch count of degree-m forms through a genus-g degree-d curve
    in P^{c+1} whose ideal has no deficiency in degree m."""
    return comb(c + 1 + m, m) - (m * d + 1 - g)


def table1_rows(c: int) -> list:
    """Table 1 region: (k, g, d) of non-linearly-normal curves attaining the
    k-th largest quadric count, for k = 3 .. min(7, c)."""
    rows = []
    for k in range(3, min(7, c) + 1):
        for g in range(0, k - 2):
            d_lo = c + (g + k + 2) // 2  # ceil(c + (g + k + 1) / 2)
            for d in range(d_lo, c + k):
                rows.append((k, g, d))
    return rows


def constructible_table1_rows(cs) -> list:
    """(c, k, g, d) rows with a witness in the library: section curves of
    scrolls for g = 0, multisecant projections for d = c+k-1 and g <= 2."""
    return [(c, k, g, d) for c in cs for k, g, d in table1_rows(c)
            if g == 0 or (d == c + k - 1 and g <= 2)]


def table1_pair(c: int, g: int, d: int, k: int) -> tuple:
    """Deficiency pair (h1(I(1)), h1(I(2))) of a Table 1 curve of rank k."""
    return d - c - 1 - g, 2 * (d - c) - 1 - g - k


def surface_a_m(c: int, m: int) -> int:
    """a_m of a surface of minimal degree c+1 in P^{c+2}."""
    return comb(c + 2 + m, m) - comb(m + 2, 2) - c * comb(m + 1, 2)


def rnc_secant_dim(r: int, k: int) -> int:
    """dim of the k-th secant variety of the quadratic embedding of rnc(r)."""
    return min(2 * k + 1, 2 * r)


def curve_secant_dim(span: int, k: int) -> int:
    """Secant varieties of a nondegenerate curve have the expected dimension."""
    return min(2 * k + 1, span)


def minimal_surface_delta(c: int, k: int) -> int:
    """delta_k of an n-fold of minimal degree, for c < k <= c+n."""
    return k - c


def projected_delta(c: int, k: int) -> int:
    """delta_k of a degree-(c+2) variety of depth 1 (Table 2), c < k <= c+n+1."""
    return k - c - 1


def uniform_regularity(c: int, npts: int) -> int:
    """Regularity of npts points of a rational normal curve in P^c."""
    return 1 + -(-(npts - 1) // c)


def uniform_nu(c: int) -> tuple:
    return tuple(range(1, c + 1))


def reg_bound(c: int, g: int, d: int, linearly_normal: bool) -> int:
    """Regularity bound: d-c+1-g for non-linearly-normal curves with d <= 2c
    (the paper), d-c+1 otherwise (Gruson-Lazarsfeld-Peskine)."""
    if not linearly_normal and d <= 2 * c:
        return d - c + 1 - g
    return d - c + 1


def zak_ledger(s: dict, n: int, c: int, a2: int) -> dict:
    """Derived secant data recomputed from the dimensions s_k, with the
    span-count identity (zak4) and the companion inequality chain (zak5)."""
    k2 = max(s)
    delta = {k: s[k - 1] + n + 1 - s[k] for k in range(1, k2 + 1)}
    zeros = [k for k in delta if delta[k] == 0]
    ell2 = max(zeros) if zeros else 0
    delta2 = sum(delta[k] for k in range(ell2 + 1, k2 + 1))
    zak4 = a2 == delta2 - (k2 + 1) * (n + 1) + comb(c + n + 2, 2)
    shift = comb(c + 1, 2) - comb(n + 1, 2)
    bound1 = sum(delta.get(k, 0) for k in range(ell2 + 1, c + n + 1)) + shift
    bound2 = delta2 + shift
    if k2 == c + n:
        zak5 = a2 == bound1 == bound2
    else:
        zak5 = a2 <= bound1 <= bound2 and a2 < bound2
    return {"delta": delta, "ell2": ell2, "k2": k2, "delta2": delta2,
            "zak4": zak4, "zak5": zak5}


# ------------------------------------------------------------------ reference algebra mod p


def rank_mod_p(rows, p: int) -> int:
    """Row rank over GF(p) by plain Gaussian elimination."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], p - 2, p)
        prow = [x * inv % p for x in m[r]]
        m[r] = prow
        for i in range(r + 1, len(m)):
            f = m[i][col]
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], prow)]
        r += 1
    return r


def degree_m_values(point, m: int, p: int) -> list:
    """Values of every degree-m monomial at `point` (any fixed order)."""
    out = []
    for combo in itertools.combinations_with_replacement(range(len(point)), m):
        v = 1
        for i in combo:
            v = v * point[i] % p
        out.append(v)
    return out


def hilbert(points, m: int, p: int) -> int:
    return rank_mod_p([degree_m_values(q, m, p) for q in points], p)


def regularity(points, p: int) -> int:
    """Least r >= 1 with degree-(r-1) forms separating the points."""
    n = len(points)
    r = 1
    while hilbert(points, r - 1, p) != n:
        r += 1
    return r


def normalize(vec, p: int) -> tuple:
    lead = next(x for x in vec if x % p)
    inv = pow(lead, p - 2, p)
    return tuple(x * inv % p for x in vec)


def three_regular_certificate(config, subset, c: int, p: int) -> str:
    """Empty string when `subset` is 2c+1 distinct points of `config` that
    span P^c and impose independent conditions on quadrics; else the reason."""
    pool = {normalize(q, p) for q in config}
    sub = [normalize(q, p) for q in subset]
    if len(sub) != 2 * c + 1 or len(set(sub)) != len(sub):
        return f"certificate has {len(set(sub))} distinct points, want {2 * c + 1}"
    if not set(sub) <= pool:
        return "certificate contains a point outside the configuration"
    if rank_mod_p(sub, p) != c + 1:
        return "certificate does not span P^c"
    if hilbert(sub, 2, p) != len(sub):
        return "certificate points fail to impose independent conditions on quadrics"
    return ""


# ------------------------------------------------------------------ self-test


def _kernel_count(points, m: int, p: int) -> int:
    ncols = comb(len(points[0]) - 1 + m, m)
    return ncols - hilbert(points, m, p)


def self_test(p: int = 10007) -> int:
    """Confirm the closed forms by brute force; returns the number of checks."""
    rng = random.Random(20110428)
    checks = 0

    def expect(got, want, what):
        nonlocal checks
        if got != want:
            raise AssertionError(f"{what}: got {got}, want {want}")
        checks += 1

    # reference rank: a product of n x r and r x n Vandermonde factors has rank r
    for n, r in ((6, 3), (8, 5), (5, 5)):
        vand = [[pow(t + 1, j, p) for j in range(r)] for t in range(n)]
        right = [[pow(t + 2, j, p) for t in range(n)] for j in range(r)]
        prod = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                for row in vand]
        expect(rank_mod_p(prod, p), r, f"rank of a rank-{r} product")
    expect(rank_mod_p([[0, 0], [0, 0]], p), 0, "rank of zero")

    # curves: a form of degree m through m*d+1 points contains the curve
    for r in (3, 4, 5):
        for m in (2, 3):
            ts = rng.sample(range(p), m * r + 1)
            pts = [[pow(t, i, p) for i in range(r + 1)] for t in ts]
            expect(_kernel_count(pts, m, p), u(r - 1, 0, r, m), f"a_{m}(rnc({r}))")

    # minimal-degree surfaces: Veronese and scrolls S(a, b), sampled
    def veronese(x, y, z):
        return [x * x, x * y, x * z, y * y, y * z, z * z]

    def scroll(a, b):
        def f(s, t, uu, vv):
            return ([uu * pow(s, a - i, p) * pow(t, i, p) for i in range(a + 1)]
                    + [vv * pow(s, b - j, p) * pow(t, j, p) for j in range(b + 1)])
        return f

    for name, fn, nargs, c in (("veronese", veronese, 3, 3),
                               ("S(1,2)", scroll(1, 2), 4, 2),
                               ("S(2,2)", scroll(2, 2), 4, 3)):
        for m in (2, 3):
            ncols = comb(c + 2 + m, m)
            pts = [[x % p for x in fn(*[rng.randrange(1, p) for _ in range(nargs)])]
                   for _ in range(2 * ncols)]
            expect(_kernel_count(pts, m, p), surface_a_m(c, m), f"a_{m}({name})")

    # secant dimensions of the quadratic embedding of rnc(r), i.e. rnc(2r),
    # by Terracini: rank of stacked point and tangent rows, minus one
    for r in (3, 4):
        for k in range(0, r + 1):
            rows = []
            for t in rng.sample(range(1, p), k + 1):
                rows.append([pow(t, i, p) for i in range(2 * r + 1)])
                rows.append([i * pow(t, i - 1, p) % p if i else 0 for i in range(2 * r + 1)])
            expect(rank_mod_p(rows, p) - 1, rnc_secant_dim(r, k), f"s_{k}(rnc({r})^2)")

    # points of a rational normal curve: regularity and degree-2 certificate
    for c, n in ((3, 8), (4, 11), (5, 12)):
        ts = rng.sample(range(p), n)
        pts = [[pow(t, i, p) for i in range(c + 1)] for t in ts]
        expect(regularity(pts, p), uniform_regularity(c, n), f"reg of {n} rnc points in P^{c}")
        expect(three_regular_certificate(pts, pts[: 2 * c + 1], c, p), "",
               f"certificate of rnc points in P^{c}")
        expect(three_regular_certificate(pts, pts[:2 * c] + pts[:1], c, p) != "", True,
               "a certificate with a repeated point is refused")

    expect(len(constructible_table1_rows((5, 6, 7))), 34, "constructible Table 1 rows, c = 5..7")

    # the Veronese surface ledger (Alexander-Hirschowitz defect at k = 4)
    led = zak_ledger({0: 2, 1: 5, 2: 8, 3: 11, 4: 13, 5: 14}, 2, 3, 6)
    expect((led["ell2"], led["k2"], led["delta2"], led["zak4"], led["zak5"]),
           (3, 5, 3, True, True), "Veronese secant ledger")
    for k in (4, 5):
        expect(led["delta"][k], minimal_surface_delta(3, k), f"Veronese delta_{k}")
    return checks


if __name__ == "__main__":
    n = self_test()
    print(f"checker self-test: {n} checks passed")
    sys.exit(0)
