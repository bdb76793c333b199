"""Shared test utilities, kept independent of the library's counting paths.

symbolic_a_m computes hypersurface counts by expanding monomial-composed
parametrizations into parameter monomials and taking an exact kernel
dimension; it never evaluates at points, so it is a genuinely independent
oracle for the grid-evaluation counts in hypersurfaces.cohomology.
"""

from hypersurfaces.exactcore import Matrix, MPoly, kernel_dim, monomials
from hypersurfaces.varieties import ProjectiveDomain, WeierstrassDomain


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
    return kernel_dim(mat)
