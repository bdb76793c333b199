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
from hypersurfaces.varieties import WeierstrassDomain


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
