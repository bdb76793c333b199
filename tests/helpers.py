"""Shared test utilities, kept independent of the library's counting paths.

symbolic_a_m computes hypersurface counts by expanding monomial-composed
parametrizations into parameter monomials and taking an exact kernel
dimension; it never evaluates at points, so it is a genuinely independent
oracle for the grid-evaluation counts in hypersurfaces.cohomology.

nu_vector_by_rank and extract_three_regular_by_scan are the plain searches
that the incremental-echelon versions in hypersurfaces.pointconfig replace:
one fresh `rank` per (subset, point) and a lexicographic scan of every
(2c+1)-subset.

fraction_elimination_rank, rank_mod_p and null_space_by_rref are plain
Gauss-Jordan eliminations, kept apart from the library's `Echelon` and
numpy kernels so that the property tests compare two implementations.

certify_by_row_scan is the full-scan certificate of a curve over GF(p) as a
per-row loop (every rational parameter evaluated through the coordinates,
each image scaled to lead entry 1, then the rank of the whole table), and
weierstrass_points_by_sqrt enumerates the points of y^2 = f(x) with one
Tonelli-Shanks square root per x; the library does both on arrays.
"""

import itertools
import operator
from fractions import Fraction

from hypersurfaces.exactcore import Matrix, MPoly, monomials, rank
from hypersurfaces.pointconfig import (
    ExtractionError,
    NuVector,
    PointConfig,
    evaluation_matrix,
)
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
    flat = []
    for e in param_monos:
        for t in composed:
            flat.append(t.terms.get(e, zero))
    mat = Matrix(fld, len(param_monos), len(composed), flat)
    return mat.cols - rank(mat)


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


def null_space_by_rref(m: Matrix) -> list:
    """Canonical kernel basis read off the reduced row echelon form: one
    vector per free column, 1 there, minus the free column of the reduced
    rows at the pivots."""
    f = m.field
    a, pivots = _rref(m.raw_rows(), f.inv, f.mul, f.sub)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [f.raw(0)] * m.cols
        v[fc] = f.raw(1)
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(a[r][fc])
        basis.append(v)
    return basis


def nu_vector_by_rank(cfg: PointConfig) -> NuVector:
    """nu-vector with one rank per independence test and per point."""
    fld = cfg.field
    spans_ok = rank(Matrix.from_rows(fld, cfg.points)) == cfg.c + 1
    values = []
    for i in range(cfg.c):
        counts = set()
        for subset in itertools.combinations(cfg.points, i + 1):
            rows = [list(q) for q in subset]
            if rank(Matrix.from_rows(fld, rows)) != i + 1:
                continue
            counts.add(
                sum(1 for q in cfg.points if rank(Matrix.from_rows(fld, rows + [list(q)])) == i + 1)
            )
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
            rank(Matrix.from_rows(fld, points)) == c + 1
            and rank(evaluation_matrix(fld, points, 2)) == size
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
