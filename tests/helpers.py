"""Shared test utilities, kept independent of the library's counting paths.

symbolic_a_m computes hypersurface counts by expanding monomial-composed
parametrizations into parameter monomials and taking an exact kernel
dimension; it never evaluates at points, so it is a genuinely independent
oracle for the grid-evaluation counts in hypersurfaces.cohomology.

nu_vector_by_rank and extract_three_regular_by_scan are the plain searches
that the incremental-echelon versions in hypersurfaces.pointconfig replace:
one fresh rank per (subset, point) and a lexicographic scan of every
(2c+1)-subset.

fraction_elimination_rank, rank_mod_p and null_space_by_rref are plain
Gauss-Jordan eliminations, kept apart from the library's `Echelon` and
numpy kernels so that the property tests compare two implementations.

certify_by_row_scan is the full-scan certificate of a curve over GF(p) as a
per-row loop (every rational parameter evaluated through the coordinates,
each image scaled to lead entry 1, then the rank of the whole table), and
weierstrass_points_by_sqrt enumerates the points of y^2 = f(x) with one
Tonelli-Shanks square root per x; the library does both on arrays.

evaluation_matrix is the degree-m monomials' values at a list of points, a
row per point: the per-point oracle of the counts and of
`PointConfig.hilbert`.  The oracles here take every rank as the number of
`exactcore.pivots` of the same plain rows.

image_by_poly_eval is the image of one parameter point, every coordinate
evaluated by `poly_eval`, and a_m_by_point_evaluation is the count on that
per-point path: every point of the unisolvent grid evaluated so, then the
rank of the monomial evaluation matrix.  The library evaluates a variety
over GF(p) on an int64 array of points, and over Q in integers (one common
denominator cleared), instead.

coordinate_simplex is the c+1 coordinate points of P^c, a configuration
whose Hilbert function and regularity are known by hand.

secant_dims_by_rank is Terracini's lemma one k at a time: it multiplies the
coordinates out into the C(r+2, 2) product polynomials, differentiates
those, and takes the rank of the stacked tangent rows at k+1 fresh points
for every k and trial.  The library reads every s_k from one nested pass
with chain-rule rows instead.

tangent_ranks_by_echelon is one trial of that nested pass as a per-point
loop: each accepted point's chain-rule rows go into one `Echelon`, and the
rank is read after every point, all in Fractions over Q.  The library
ranks the rows over GF(p), p < 2^31, in chunks on the int64 kernel, and
over Q builds them from integer values (one common denominator cleared).
"""

import itertools
import operator
import random
from fractions import Fraction

from hypersurfaces import secants
from hypersurfaces.exactcore import (
    Echelon,
    MPoly,
    binomial,
    monomial_values,
    monomials,
    pivots,
    poly_diff,
    poly_eval,
)
from hypersurfaces.pointconfig import ExtractionError, NuVector, PointConfig
from hypersurfaces.varieties import (
    FieldTooSmallError,
    ProjectiveDomain,
    VerificationError,
    WeierstrassDomain,
)


def _reduce_weierstrass(poly: MPoly, f_coeffs) -> MPoly:
    """Rewrite y^2 -> f(x) until the y-degree is at most 1."""
    fld = poly.field
    f_poly = MPoly(fld, 2, {(i, 0): c for i, c in enumerate(f_coeffs) if c != 0})
    while True:
        high = {e: c for e, c in poly.terms.items() if e[1] >= 2}
        if not high:
            return poly
        rest = MPoly(fld, 2, {e: c for e, c in poly.terms.items() if e[1] < 2})
        acc = rest
        for (ex, ey), c in high.items():
            acc = acc + MPoly(fld, 2, {(ex, ey - 2): c}) * f_poly
        poly = acc


def symbolic_a_m(v, m: int) -> int:
    """Exact count of degree-m forms vanishing on `v`, via polynomial algebra.

    Composes every degree-m ambient monomial with the parametrization (for
    Weierstrass models, reducing modulo the curve equation) and returns the
    kernel dimension of the coefficient matrix: rows indexed by parameter
    monomials, columns by ambient monomials.
    """
    fld = v.field
    nvars = v.coords[0].nvars
    composed = []
    for exp in monomials(v.amb + 1, m):
        term = MPoly.constant(fld, nvars, 1)
        for i, e in enumerate(exp):
            for _ in range(e):
                term = term * v.coords[i]
        if isinstance(v.domain, WeierstrassDomain):
            term = _reduce_weierstrass(term, v.domain.f_coeffs)
        composed.append(term)
    param_monos = sorted({e for t in composed for e in t.terms})
    index = {e: i for i, e in enumerate(param_monos)}
    zero = fld.raw(0)
    rows = [[t.terms.get(e, zero) for t in composed] for e in param_monos]
    return len(composed) - len(pivots(fld, rows))


def evaluation_matrix(field, points, m: int) -> list:
    """Rows = points, columns = degree-m monomials in graded-lex order."""
    return [monomial_values(field, list(p), m) for p in points]


def image_by_poly_eval(v, params) -> tuple:
    """The image of one parameter point: each coordinate by `poly_eval`."""
    return tuple(poly_eval(c, params) for c in v.coords)


def a_m_by_point_evaluation(v, m: int) -> int:
    """a_m as the corank of the degree-m evaluation matrix at the grid's
    images, each computed by evaluating the coordinate polynomials."""
    params = v.domain.unisolvent_params(v.field, v.coords, m)
    vecs = [image_by_poly_eval(v, q) for q in params]
    return binomial(v.amb + m, m) - len(pivots(v.field, evaluation_matrix(v.field, vecs, m)))


def _rref(rows, inv, mul, sub):
    """Reduced row echelon form by Gauss-Jordan elimination in the field
    given by `inv`, `mul` and `sub`; returns (rows, pivot columns)."""
    a = [list(row) for row in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        s = inv(a[r][c])
        a[r] = [mul(s, x) for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [sub(x, mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def fraction_elimination_rank(rows) -> int:
    """Rank over Q by plain Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    return len(_rref(rows, lambda a: 1 / a, operator.mul, operator.sub)[1])


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) by plain Gaussian elimination on residues."""
    rows = [[x % p for x in row] for row in rows]
    return len(
        _rref(
            rows,
            lambda a: pow(a, p - 2, p),
            lambda x, y: x * y % p,
            lambda x, y: (x - y) % p,
        )[1]
    )


def null_space_by_rref(f, rows) -> list:
    """Canonical kernel basis of raw rows over the field f, read off the
    reduced row echelon form: one vector per free column, 1 there, minus
    the free column of the reduced rows at the pivots."""
    ncols = len(rows[0])
    a, found = _rref([[f.raw(x) for x in row] for row in rows], f.inv, f.mul, f.sub)
    basis = []
    for fc in (c for c in range(ncols) if c not in found):
        v = [f.raw(0)] * ncols
        v[fc] = f.raw(1)
        for r, pc in enumerate(found):
            v[pc] = f.neg(a[r][fc])
        basis.append(v)
    return basis


def nu_vector_by_rank(cfg: PointConfig) -> NuVector:
    """nu-vector with one rank per independence test and per point."""
    fld = cfg.field
    spans_ok = len(pivots(fld, cfg.points)) == cfg.c + 1
    values = []
    for i in range(cfg.c):
        counts = set()
        for subset in itertools.combinations(cfg.points, i + 1):
            rows = [list(q) for q in subset]
            if len(pivots(fld, rows)) != i + 1:
                continue
            counts.add(sum(1 for q in cfg.points if len(pivots(fld, rows + [list(q)])) == i + 1))
        values.append(counts.pop() if len(counts) == 1 else None)
    return NuVector(tuple(values), spans_ok and None not in values)


def extract_three_regular_by_scan(cfg: PointConfig) -> PointConfig:
    """First (2c+1)-subset in lexicographic order that spans P^c and has
    hilbert(2) = 2c+1, found by ranking every candidate."""
    c, fld = cfg.c, cfg.field
    size = 2 * c + 1
    if len(cfg) < size or cfg.span_dim() != c:
        raise ValueError("need at least 2c+1 points spanning P^c")
    for subset in itertools.combinations(range(len(cfg)), size):
        points = [cfg.points[i] for i in subset]
        if (
            len(pivots(fld, points)) == c + 1
            and len(pivots(fld, evaluation_matrix(fld, points, 2))) == size
        ):
            return cfg.subset(subset)
    raise ExtractionError(f"no spanning 3-regular subset of {size} points")


def sqrt_by_tonelli_shanks(a: int, p: int):
    """A square root of a mod an odd prime p, or None for a non-square."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def weierstrass_points_by_sqrt(p: int, f_coeffs) -> list:
    """Affine points of y^2 = f(x) over GF(p): x ascending, then (x, y) with
    the smaller root y, then (x, p - y) when y != 0."""
    pts = []
    for x in range(p):
        fx = sum(c * pow(x, i, p) for i, c in enumerate(f_coeffs)) % p
        y = sqrt_by_tonelli_shanks(fx, p)
        if y is None:
            continue
        if y == 0:
            pts.append((x, 0))
        else:
            y = min(y, p - y)
            pts += [(x, y), (x, p - y)]
    return pts


def table_parameters(v) -> list:
    """Every rational parameter of a curve over a small GF(p), in the order
    `rational_parameters` must list them: the affine points of y^2 = f(x) as
    `point_array` lists them, or on P^1 (1, t) for t < p and then (0, 1)."""
    if isinstance(v.domain, WeierstrassDomain):
        return [tuple(pt) for pt in v.domain.point_array().tolist()]
    return [(1, t) for t in range(v.field.p)] + [(0, 1)]


def certify_by_row_scan(v) -> None:
    """Raise what full-scan certification of the curve `v` over GF(p) must
    raise: FieldTooSmallError for fewer rational parameters than amb+1,
    VerificationError for a base point, a collision of two parameters in
    the image, or a table of rank below amb+1."""
    p = v.field.p
    if isinstance(v.domain, ProjectiveDomain):
        params = [(1, t) for t in range(p)] + [(0, 1)]
    else:
        params = weierstrass_points_by_sqrt(p, v.domain.f_coeffs)
    terms = [[(e, int(c)) for e, c in poly.terms.items()] for poly in v.coords]
    exps = {e for poly in terms for e, _ in poly}
    table = []
    for q in params:
        mono = {e: pow(q[0], e[0], p) * pow(q[1], e[1], p) for e in exps}
        table.append([sum(c * mono[e] for e, c in poly) % p for poly in terms])
    if len(table) < v.amb + 1:
        raise FieldTooSmallError(f"{len(table)} parameters for P^{v.amb}")
    keys = set()
    for vec in table:
        if all(x == 0 for x in vec):
            raise VerificationError("base point")
        lead = next(x for x in vec if x != 0)
        inv = pow(lead, p - 2, p)
        keys.add(tuple(x * inv % p for x in vec))
    if len(keys) != len(table):
        raise VerificationError("collision")
    if _row_by_row_rank(table, p) != v.amb + 1:
        raise VerificationError("degenerate span")


def _row_by_row_rank(rows, p: int) -> int:
    """Rank mod p of many short rows: reduce each row against the monic
    basis rows kept so far (each zero at the pivots of the earlier ones),
    stopping once the basis fills the columns."""
    basis = []
    for row in rows:
        for piv, b in basis:
            if row[piv]:
                f = row[piv]
                row = [(x - f * y) % p for x, y in zip(row, b)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is not None:
            inv = pow(row[piv], p - 2, p)
            basis.append((piv, [x * inv % p for x in row]))
            if len(basis) == len(row):
                break
    return len(basis)


def secant_dims_by_rank(y, k_max: int, trials: int = 3, seed: int = 0) -> list:
    """[s_0, .., s_{k_max}] of the quadratic embedding `y`: for each k, the
    largest rank, minus 1, over `trials` stacked matrices of tangent rows of
    the product polynomials at k+1 points drawn afresh."""
    v = y.base
    fld = v.field
    products = [v.coords[i] * v.coords[j]
                for i in range(v.amb + 1) for j in range(i, v.amb + 1)]
    jac = [[poly_diff(f, var) for f in products] for var in range(v.domain.nvars)]
    top = fld.p if fld.is_prime_field else 1000
    dims = []
    for k in range(k_max + 1):
        best = -1
        for trial in range(trials):
            rng = random.Random(repr(("secant oracle", v.label, k, seed, trial)))
            rows = []
            while len(rows) < (k + 1) * (len(jac) + 1):
                params = []
                for b in v.domain.blocks:
                    params += [1] + [rng.randrange(1, top) for _ in range(b - 1)]
                cone = [poly_eval(f, params) for f in products]
                if any(cone):
                    rows.append(cone)
                    rows += [[poly_eval(df, params) for df in row] for row in jac]
            best = max(best, len(pivots(fld, rows)) - 1)
        dims.append(best)
    return dims


def tangent_ranks_by_echelon(y, seed: int, trial: int) -> list:
    """One Terracini trial of `secants.zak_invariants`, point by point: the
    same parameter stream (a zero image is skipped, 8 in a row raise), and
    entry k is the rank, minus 1, of one `Echelon` holding the tangent rows
    of the first k+1 points; the run ends once it fills the span, or after
    span_dim + 2 points."""
    v, fld = y.base, y.base.field
    jac = [[poly_diff(c, var) for c in v.coords] for var in range(v.domain.nvars)]
    pairs = [(i, j) for i in range(v.amb + 1) for j in range(i, v.amb + 1)]
    rng = random.Random(("terracini", v.label, seed, trial).__repr__())
    basis = Echelon(fld)
    ranks = []
    while len(ranks) < y.span_dim + 2 and (not ranks or ranks[-1] < y.span_dim):
        for _attempt in range(8):
            params = secants._random_params(v.domain, fld, rng)
            xs = [poly_eval(c, params) for c in v.coords]
            if any(xs):
                break
        else:
            raise secants.TerraciniError(f"{v.label}: could not sample a nonzero point")
        basis.add([xs[i] * xs[j] for i, j in pairs])
        for partials in jac:
            dx = [poly_eval(d, params) for d in partials]
            basis.add([dx[i] * xs[j] + xs[i] * dx[j] for i, j in pairs])
        ranks.append(len(basis) - 1)
    return ranks


def coordinate_simplex(field, c: int) -> PointConfig:
    """The c+1 coordinate points of P^c."""
    vecs = [[1 if j == i else 0 for j in range(c + 1)] for i in range(c + 1)]
    return PointConfig(field, vecs)
