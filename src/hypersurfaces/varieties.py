"""Constructors for explicit low-degree projective varieties over exact fields.

Each ParamVariety carries exact coordinate polynomials together with a
parameter domain that can produce sample points and the point set on
which hypersurface counts are exact: products of projective spaces for
rational parametrizations (rational normal curves, scrolls, Veronese,
scroll sections and their projections) or a plane-curve point enumerator
for elliptic and genus-2 curves presented by y^2 = f(x).

A construction states only what it claims, the degree d and the genus g;
the dimension n is its domain's and the ambient dimension amb is one less
than the number of its coordinates, so neither can disagree with them.
Claimed metadata is never trusted: constructions are certified and fail
loudly instead of returning a variety whose invariants might silently be
wrong.  The randomised constructions (scroll sections, projections from a
general point, multisecant projections, hyperplane sections of scrolls)
share one retry policy, `_retry`: a refused draw is followed by a fresh
one, but a field too small for the certificate or a usage error is never
retried.  Nondegeneracy is the exact rank of the coordinates' coefficient
matrix, that is the span over the algebraic closure.  A curve is then
certified by one exact count.  Its coordinates are sections of a line
bundle L of degree D (the forms' degree on P^1, the top pole order on
y^2 = f(x)) on a smooth source of genus g, and (D, g) must be the claimed
(d, g).  For some m with dm >= 2g+1, up to the Gruson-Lazarsfeld-Peskine
bound m = d - amb + 1, the degree-m forms must reach rank dm + 1 - g on
the curve: they then restrict onto H^0(L^m), which is very ample, so the
coordinates embed the source as a smooth curve of degree d.  The counts
a_m are exact (`ParamVariety.count`) and memoised, so certification and
the ledgers share them.  Every variety is evaluated by one cached
`MPolyArray` of its coordinates (`ParamVariety.evaluator`), over either
field, only at the parameter points a job needs: each count's grid, the
points a sample draws, the secant points of a multisecant projection.
Every count keeps the exponent rows of each degree's independent
monomials, and the next degree ranks only their products with a variable
(`exactcore.span_basis`), so its cost follows the rank, not the number of
monomials; only a surface over GF(p) ranks the `monomial_values` of its
images.  Every rank and linear relation
here is `exactcore.pivots` or `exactcore.null_space` of plain rows.  A
surface is certified by its coefficient rank alone.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .exactcore import (
    QQ,
    Field,
    MPoly,
    MPolyArray,
    PrimeField,
    binomial,
    monomial_values,
    monomials,
    null_space,
    pivots,
    span_basis,
)
from .pointconfig import PointConfig, _normalize

__all__ = [
    "ConstructionError",
    "FieldTooSmallError",
    "ProjectionError",
    "VerificationError",
    "ProjectiveDomain",
    "WeierstrassDomain",
    "ProjectionCenter",
    "ParamVariety",
    "rational_normal_curve",
    "scroll_surface",
    "veronese_surface",
    "scroll_section_curve",
    "elliptic_normal_curve",
    "hyperelliptic_g2_curve",
    "project",
    "project_from_general_point",
    "multisecant_projection",
    "sample_points",
    "rational_parameters",
    "linear_section_curve",
    "CONSTRUCTIONS",
    "from_descriptor",
]


class ConstructionError(RuntimeError):
    """A variety failed its post-construction certification."""


class FieldTooSmallError(ConstructionError):
    """The base field has too few points for the requested sample or for
    the point set of an exact count (the certificate of a curve included)."""


class ProjectionError(ConstructionError):
    """The projection center meets the variety or its secant locus."""


class VerificationError(ConstructionError):
    """Numeric verification of claimed metadata or of a count ledger failed."""


# curves over GF(p) up to this modulus list every rational parameter point
TABLE_LIMIT = 1 << 16


# ------------------------------------------------------------------ univariate helpers
# polynomials as raw coefficient lists, low degree first


def _poly_trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_deg(coeffs: list) -> int:
    return len(coeffs) - 1


def _poly_deriv(f: Field, coeffs: list) -> list:
    return _poly_trim([f.mul(c, f.raw(i)) for i, c in enumerate(coeffs)][1:])


def _poly_mod(f: Field, a: list, b: list) -> list:
    a = list(a)
    db, lb = _poly_deg(b), b[-1]
    inv = f.inv(lb)
    while _poly_deg(a) >= db and a:
        shift = _poly_deg(a) - db
        q = f.mul(a[-1], inv)
        for i, c in enumerate(b):
            a[shift + i] = f.sub(a[shift + i], f.mul(q, c))
        _poly_trim(a)
    return a

def _poly_gcd(f: Field, a: list, b: list) -> list:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(f, a, b)
    if a:
        inv = f.inv(a[-1])
        a = [f.mul(c, inv) for c in a]
    return a


def _is_squarefree(f: Field, coeffs: list) -> bool:
    return _poly_deg(_poly_gcd(f, coeffs, _poly_deriv(f, coeffs))) == 0


# ------------------------------------------------------------------ parameter domains


def _draw_order(n: int, rng: random.Random) -> Iterator[int]:
    """range(n) in uniformly random order, drawn lazily: Fisher-Yates that
    keeps only the positions it has swapped, so k draws cost O(k)."""
    swapped: dict = {}
    for k in range(n):
        j = rng.randrange(k, n)
        yield swapped.get(j, j)
        swapped[j] = swapped.pop(k, k)


def _table_draw(points: np.ndarray, rng: random.Random) -> Iterator[tuple]:
    """The rows of an int64 point table in `_draw_order`, as tuples."""
    for i in _draw_order(len(points), rng):
        yield tuple(points[i].tolist())


class ProjectiveDomain:
    """Product of projective parameter spaces; blocks list the homogeneous
    coordinate counts of the factors, e.g. (2,) for P^1, (2, 2) for P^1 x P^1,
    (3,) for P^2."""

    def __init__(self, blocks: Sequence[int]):
        self.blocks = tuple(int(b) for b in blocks)
        if any(b < 2 for b in self.blocks):
            raise ValueError("each block needs at least 2 homogeneous coordinates")
        self.nvars = sum(self.blocks)

    @property
    def dim(self) -> int:
        """Dimension of the product: one less than each block, summed."""
        return self.nvars - len(self.blocks)

    def is_curve_line(self) -> bool:
        return self.blocks == (2,)

    def count_available(self, field: Field) -> Optional[int]:
        if not field.is_prime_field:
            return None
        total = 1
        for b in self.blocks:
            pts = sum(field.p**i for i in range(b))
            total *= pts
        return total

    def unisolvent_params(self, field: Field, coords: Sequence[MPoly], m: int) -> list:
        """Parameter points on which no nonzero composed degree-m form vanishes.

        The first coordinate of each block is set to 1; every other variable
        j runs over 0..D_j with D_j = m * (its top exponent in `coords`).  A
        polynomial of degree <= D_j in each variable that vanishes on this
        tensor grid is zero, and the affine chart is dense, so a degree-m
        form vanishes on the grid exactly when it vanishes on the variety.
        """
        axes = []
        start = 0
        for b in self.blocks:
            axes.append((1,))
            for j in range(start + 1, start + b):
                top = m * max((e[j] for c in coords for e in c.terms), default=0)
                if field.is_prime_field and field.p <= top:
                    raise FieldTooSmallError(
                        f"exact degree-{m} counts need p > {top} "
                        f"(an evaluation grid 0..{top}), got {field!r}"
                    )
                axes.append(range(top + 1))
            start += b
        return list(itertools.product(*axes))

    def point_array(self, field: PrimeField) -> np.ndarray:
        """The rational points of P^1 over GF(p), one int64 row each:
        (1, t) for t < p, then (0, 1)."""
        if not self.is_curve_line():
            raise ValueError("only P^1 lists its rational points")
        points = np.ones((field.p + 1, 2), dtype=np.int64)
        points[:, 1] = np.arange(field.p + 1)
        points[field.p] = (0, 1)
        return points

    def parameter_stream(self, field: Field, seed: int) -> Iterator[tuple]:
        rng = random.Random(("domain", self.blocks, seed).__repr__())
        if self.is_curve_line() and field.is_prime_field and field.p <= TABLE_LIMIT:
            yield from _table_draw(self.point_array(field), rng)
            return
        seen = set()
        if field.is_prime_field:
            p = field.p
            total = self.count_available(field)
            while len(seen) < total:  # stop once every point has been yielded
                pt = []
                for b in self.blocks:
                    # mostly affine charts, occasionally a point at infinity
                    if rng.random() < 0.05:
                        lead = rng.randrange(b)
                    else:
                        lead = 0
                    block = [0] * lead + [1] + [rng.randrange(p) for _ in range(b - 1 - lead)]
                    pt.extend(block)
                pt = tuple(pt)
                if pt not in seen:
                    seen.add(pt)
                    yield pt
        else:
            while True:
                pt = []
                for b in self.blocks:
                    pt.extend([1] + [rng.randint(-(10**6), 10**6) for _ in range(b - 1)])
                pt = tuple(pt)
                if pt not in seen:
                    seen.add(pt)
                    yield pt


@functools.lru_cache(maxsize=4)
def _weierstrass_points(p: int, f_coeffs: tuple) -> np.ndarray:
    """Affine points of y^2 = f(x) over GF(p), one (x, y) row each, with x
    ascending; for each x, (x, y) with the smaller square root y first, then
    (x, p - y) when y != 0.  Cached by (p, f), so every domain on one model
    shares the read-only array."""
    xs = np.arange(p, dtype=np.int64)
    fx = np.zeros(p, dtype=np.int64)
    for c in reversed(f_coeffs):  # Horner
        fx = (fx * xs + c) % p
    # root[a] = the least square root y of a, or -1 for a non-square;
    # the least roots are 0..(p-1)/2, and their squares are distinct
    half = xs[: (p + 1) // 2]
    root = np.full(p, -1, dtype=np.int64)
    root[half * half % p] = half
    ys = root[fx]
    x, y = xs[ys >= 0], ys[ys >= 0]
    pairs = np.stack([x, y, x, p - y], axis=1).reshape(-1, 2, 2)
    keep = np.stack([np.ones(len(y), dtype=bool), y != 0], axis=1)
    points = pairs[keep]
    points.setflags(write=False)  # the cache is shared: keep it read-only
    return points


class WeierstrassDomain:
    """Rational points (x, y) of y^2 = f(x) over GF(p), enumerated once per
    (p, f) into a shared read-only int64 array; tuples are built only for
    the points taken.  The enumeration takes O(p) memory, so p is at most
    TABLE_LIMIT.

    Serves both elliptic (deg f = 3) and genus-2 (deg f = 5) models; the
    point at infinity is deliberately not represented, since coordinate
    functions are polynomials in (x, y).
    """

    nvars = 2
    dim = 1

    def __init__(self, field: PrimeField, f_coeffs: Sequence[int]):
        if not field.is_prime_field:
            raise ValueError("Weierstrass domains need a prime field")
        if field.p == 2:
            raise ValueError("p = 2 not supported for y^2 = f(x) models")
        if field.p > TABLE_LIMIT:  # the points are enumerated over every x
            raise ValueError(f"y^2 = f(x) models need p <= {TABLE_LIMIT}, got {field.p}")
        self.field = field
        self.f_coeffs = tuple(field.raw(c) for c in f_coeffs)

    def point_array(self) -> np.ndarray:
        """Affine points in `_weierstrass_points` order."""
        return _weierstrass_points(self.field.p, self.f_coeffs)

    def count_available(self, field: Field) -> int:
        return len(self.point_array())

    def unisolvent_params(self, field: Field, coords: Sequence[MPoly], m: int) -> list:
        """The first m*N + 1 affine points, N the top pole order of `coords`
        at infinity: a composed degree-m form has pole order <= m*N, so if
        it is nonzero it has at most m*N zeros (Bezout)."""
        fdeg = len(self.f_coeffs) - 1
        top = max(_section_pole_order(*_weierstrass_split(c), fdeg) for c in coords)
        need = m * top + 1
        pts = self.point_array()
        if len(pts) < need:
            raise FieldTooSmallError(
                f"exact degree-{m} counts need {need} affine points, "
                f"y^2 = f(x) over {field!r} has {len(pts)}"
            )
        return [tuple(pt) for pt in pts[:need].tolist()]

    def parameter_stream(self, field: Field, seed: int) -> Iterator[tuple]:
        rng = random.Random(("weierstrass", self.f_coeffs, seed).__repr__())
        return _table_draw(self.point_array(), rng)


# ------------------------------------------------------------------ the variety object


@dataclass(frozen=True)
class ProjectionCenter:
    """A linear center Lambda spanned by independent coordinate vectors."""

    ambient: int
    basis: tuple

    def __post_init__(self):
        if not self.basis:
            raise ValueError("a projection center needs at least one basis vector")
        if any(len(v) != self.ambient + 1 for v in self.basis):
            raise ValueError("center vectors must have ambient+1 coordinates")

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    def validate(self, fld: Field) -> None:
        # coerced first: a residue class may be given by any integer
        if len(pivots(fld, [[fld.raw(x) for x in v] for v in self.basis])) != len(self.basis):
            raise ValueError("projection-center basis is linearly dependent")


class ParamVariety:
    """A parametrised variety with verified degree/genus metadata.

    A construction states only its claims, the degree d and the genus g
    (-1 for a surface), which `_certify` checks.  The rest is derived: the
    ambient dimension amb is one less than the number of coordinates, the
    dimension n is the domain's, and the codimension c is amb - n.
    Linear normality is not stated either; profiles compute it as
    h^1(I(1)) = 0.

    Immutable after construction.  `evaluator` is the one way the
    coordinates are evaluated: counts evaluate their grids with it, and
    samples the points they draw.  Over GF(p) it evaluates them at int64
    residues, over Q, times one common denominator, in integers.
    `counts` memoises the exact a_m by m (filled by `count`, for
    certification and `cohomology.a_m` alike): a count depends on nothing
    but the variety and m.  Beside it, `bases` keeps by m the degree-m
    monomials that each count found independent on the variety, a_m fewer
    than all of them, as their exponent rows (an int array, a row per
    monomial, in `monomials()` order): the count of degree m + 1 needs only
    their products with a variable (but for a surface over GF(p)), and
    Terracini ranks its tangent rows at the degree-2 ones.
    """

    def __init__(
        self,
        label: str,
        d: int,
        g: int,
        fld: Field,
        coords: Sequence[MPoly],
        domain,
        construction: dict,
    ):
        self.label = label
        self.d = d
        self.g = g
        self.field = fld
        self.coords = tuple(coords)
        self.domain = domain
        self.construction = dict(construction)
        self.counts: dict = {}
        self.bases: dict = {}
        if not self.coords:
            raise ValueError("need at least one coordinate polynomial")
        self.amb = len(self.coords) - 1
        self.n = domain.dim
        for c in self.coords:
            if c.nvars != domain.nvars:
                raise ValueError("coordinate polynomial variable count mismatch")

    @property
    def c(self) -> int:
        return self.amb - self.n

    @property
    def is_curve(self) -> bool:
        return self.n == 1

    def __repr__(self) -> str:
        return (
            f"ParamVariety({self.label}: n={self.n}, amb={self.amb}, "
            f"d={self.d}, g={self.g}, field={self.field!r})"
        )

    # -------------------------------------------------------- evaluation

    @functools.cached_property
    def evaluator(self) -> MPolyArray:
        """The coordinates as one `MPolyArray`, a row per parameter point:
        their values over GF(p), and over Q their values times one common
        denominator, at integer points."""
        return MPolyArray(self.coords)

    # -------------------------------------------------------- counts

    def count(self, m: int) -> int:
        """a_m, the number of independent degree-m forms vanishing on the
        variety, m >= 1; exact, and memoised in `counts` (a failure is not)."""
        if m < 1:
            raise ValueError("need m >= 1")
        count = self.counts.get(m)
        if count is None:
            count = self.counts[m] = _count(self, m)
        return count

    # -------------------------------------------------------- sampling

    def sample_points(self, count: int, seed: int = 0) -> PointConfig:
        return sample_points(self, count, seed)

    def descriptor(self) -> dict:
        return {
            "label": self.label,
            "n": self.n,
            "c": self.c,
            "d": self.d,
            "g": self.g,
            "field": "Q" if not self.field.is_prime_field else self.field.p,
            "seed": self.construction.get("seed", 0),
            "construction": self.construction,
        }


def rational_parameters(v: ParamVariety) -> Optional[np.ndarray]:
    """Every rational parameter point of a curve over GF(p), p <= TABLE_LIMIT,
    one int64 row each: the points of y^2 = f(x) in `point_array` order, or
    (1, t) for t < p and then (0, 1) on P^1.  None for any other variety."""
    fld = v.field
    if not (v.is_curve and fld.is_prime_field and fld.p <= TABLE_LIMIT):
        return None
    if isinstance(v.domain, WeierstrassDomain):
        return v.domain.point_array()
    return v.domain.point_array(fld)


def sample_points(v: ParamVariety, count: int, seed: int = 0) -> PointConfig:
    """Deterministic-from-seed list of `count` distinct points on `v`.  A
    curve with `rational_parameters` draws them in a random order, any
    other variety from its domain's `parameter_stream`; the drawn points
    go through `v.evaluator` `count` at a time.  Each nonzero image is
    normalised once, and the normalised points are what `PointConfig` gets;
    over Q the images are D times the rational ones, which they do not see."""
    if count < 1:
        raise ValueError("need count >= 1")
    avail = v.domain.count_available(v.field)
    if avail is not None and count > avail:
        raise FieldTooSmallError(
            f"{v.label}: requested {count} points but the parameter space "
            f"over {v.field!r} only provides {avail}"
        )
    fld = v.field
    table = rational_parameters(v)
    if table is not None:
        rng = random.Random(("sample", v.label, seed).__repr__())
        order = _draw_order(len(table), rng)
        batches = (table[b] for b in iter(lambda: list(itertools.islice(order, count)), []))
    else:
        stream = itertools.islice(v.domain.parameter_stream(fld, seed), count * 4 + 64)
        batches = iter(lambda: list(itertools.islice(stream, count)), [])
    images = itertools.chain.from_iterable(v.evaluator(b).tolist() for b in batches)
    points: dict = {}  # the distinct normalised images, in drawn order
    for vec in images:
        if any(vec):
            points[_normalize(fld, vec)] = None
            if len(points) == count:
                break
    if len(points) < count:
        raise FieldTooSmallError(
            f"{v.label}: could only realise {len(points)} of {count} distinct points"
        )
    return PointConfig(fld, points)


# ------------------------------------------------------------------ counts and certificates


def _count(v: ParamVariety, m: int) -> int:
    """a_m = C(amb+m, m) - dim W_m, where W_m is the space of degree-m forms
    restricted to the variety, and dim W_m is the rank of degree-m forms at
    the images of the domain's unisolvent grid (a form vanishes there
    exactly when it vanishes on the variety).

    It keeps in `v.bases[m]` the exponent rows of degree-m monomials whose
    restrictions are a basis of W_m: the `span_basis`, at the grid's images
    under `v.evaluator`, of a basis of W_{m-1}.  That is the one `v.bases`
    keeps, or else the constant for m = 1, every variable for m = 2, and
    for m > 2 the one that counting degree m-1 first keeps.  Over Q the
    images are D times the rational ones, for the coordinates' common
    denominator D, so each row is D^m times its rational row and its rank
    is unchanged.  A surface over GF(p) still ranks the `monomial_values`
    rows of its images."""
    try:
        params = v.domain.unisolvent_params(v.field, v.coords, m)
    except FieldTooSmallError as err:
        raise FieldTooSmallError(f"{v.label}: {err}") from None
    fld = v.field
    rows = v.evaluator(params)
    if fld.is_prime_field and not v.is_curve:
        # waits on ROADMAP item 1, step 1: the bench harness keeps every
        # round, and surfaces on the products read +14% peak RSS there
        found = pivots(fld, [monomial_values(fld, row, m) for row in rows.tolist()])
        basis = np.array(monomials(v.amb + 1, m), dtype=np.intp)[found]
    else:
        lower = v.bases.get(m - 1)
        if lower is None and m > 2:
            v.counts[m - 1] = _count(v, m - 1)
            lower = v.bases[m - 1]
        elif lower is None:  # every variable, or the constant
            width = v.amb + 1
            lower = np.eye(width, dtype=np.intp) if m == 2 else np.zeros((1, width), dtype=np.intp)
        basis = span_basis(fld, rows, lower)
    v.bases[m] = basis
    return binomial(v.amb + m, m) - len(basis)


# a prime below 2^31: over Q the grid is ranked modulo it first
_LEDGER_PRIME = (1 << 31) - 1


def _basis_mod_ledger_prime(v: ParamVariety, m: int) -> np.ndarray:
    """The exponent rows of the degree-m monomials that `_count` finds
    independent modulo _LEDGER_PRIME at the grid's images over Q.  The
    reduced coordinates are the integer ones of `v.evaluator`, so each row
    is a multiple of its row over Q by a power of their common denominator,
    and the reduced curve is counted on the same grids.  A minor of those
    integer rows that is nonzero modulo the prime is nonzero, so the
    monomials are independent over Q too, and their number is a lower bound
    on the rank over Q."""
    fq = PrimeField(_LEDGER_PRIME)
    coords = [MPoly(fq, v.domain.nvars, terms) for terms in v.evaluator.terms]
    reduced = ParamVariety(v.label, v.d, v.g, fq, coords, v.domain, v.construction)
    _count(reduced, m)
    return reduced.bases[m]


def _coefficient_rows(fld: Field, coords: Sequence[MPoly]) -> list:
    """The coordinates' coefficient matrix: a row per monomial that occurs
    in one of them, in sorted order, and a column per coordinate.  Its
    kernel holds the linear relations among the coordinates."""
    zero = fld.raw(0)
    monos = sorted({e for c in coords for e in c.terms})
    return [[c.terms.get(e, zero) for c in coords] for e in monos]


def _coefficient_rank(v: ParamVariety) -> int:
    """Rank of `_coefficient_rows`.  A linear form vanishes on the image over the
    algebraic closure exactly when it is a linear relation among the
    coordinate polynomials: the parameter spaces are irreducible, and on
    y^2 = f(x) with deg f odd, A(x) + B(x) y vanishes only when A = B = 0
    (A^2 = B^2 f would need an even and an odd degree to agree)."""
    if isinstance(v.domain, WeierstrassDomain) and any(
        e[1] > 1 for c in v.coords for e in c.terms
    ):
        raise ValueError("Weierstrass coordinates must have y-degree <= 1")
    return len(pivots(v.field, _coefficient_rows(v.field, v.coords)))


def _weierstrass_split(poly: MPoly) -> tuple:
    """Split a y-degree-<=1 polynomial in (x, y) into (A, B) with poly = A + B y."""
    fld = poly.field
    A: list = []
    B: list = []
    for (ex, ey), coeff in poly.terms.items():
        target = A if ey == 0 else B
        if ey > 1:
            raise ValueError("y-degree above 1")
        while len(target) <= ex:
            target.append(fld.raw(0))
        target[ex] = coeff
    return _poly_trim(A), _poly_trim(B)


def _section_pole_order(A: list, B: list, fdeg: int) -> int:
    # pole orders at the infinity place: x has order 2, y has order fdeg
    pole = -1
    if A:
        pole = max(pole, 2 * _poly_deg(A))
    if B:
        pole = max(pole, 2 * _poly_deg(B) + fdeg)
    return pole


def _degree_and_genus(v: ParamVariety) -> tuple:
    """(D, g) of a curve's coordinates: the degree D of the line bundle L
    they are sections of, and the genus g of their smooth source."""
    if isinstance(v.domain, WeierstrassDomain):
        f = _poly_trim(list(v.domain.f_coeffs))
        fdeg = _poly_deg(f)
        if fdeg % 2 == 0 or not _is_squarefree(v.field, f):
            raise VerificationError(f"{v.label}: y^2 = f(x) needs f squarefree of odd degree")
        top = max(_section_pole_order(*_weierstrass_split(c), fdeg) for c in v.coords)
        return top, (fdeg - 1) // 2
    if isinstance(v.domain, ProjectiveDomain) and v.domain.is_curve_line():
        degrees = {sum(e) for c in v.coords for e in c.terms}
        if len(degrees) != 1:
            raise ValueError("curve coordinates are not equi-homogeneous")
        return degrees.pop(), 0
    raise ValueError("curves are certified on P^1 or on y^2 = f(x)")


def _restricts_onto(v: ParamVariety, m: int, last: bool) -> bool:
    """Whether the degree-m forms reach rank dm + 1 - g on the curve, which
    is h^0(L^m) and so the most they can reach.  At m = 1 the rank is the
    coefficient rank, amb + 1.  Over Q a hit of the rank modulo
    _LEDGER_PRIME proves it, and that prime's independent monomials are
    then the basis of degree m; the exact count is the fallback at the
    `last` degree only."""
    target = v.d * m + 1 - v.g
    total = binomial(v.amb + m, m)
    if m == 1:
        return v.amb + 1 == target
    if total < target:
        return False
    if v.field.is_prime_field:
        return total - v.count(m) == target
    basis = _basis_mod_ledger_prime(v, m)
    if len(basis) == target:
        v.counts[m] = total - target
        v.bases[m] = basis
        return True
    return last and total - v.count(m) == target


def _certify_curve(v: ParamVariety) -> None:
    """The Riemann-Roch certificate of a closed embedding of degree d.

    The claimed (d, g) must be the coordinates' (D, g).  Then for the first
    m >= 1 with dm >= 2g+1, up to the Gruson-Lazarsfeld-Peskine bound
    m = d - amb + 1 (a smooth curve has h^1(I(m)) = 0 from there on), the
    degree-m forms must restrict onto H^0(L^m).  L^m is very ample
    (Hartshorne IV.3.2), so the coordinates, composed with the degree-m
    Veronese map, give a closed embedding of the source.  Ranks do not
    change under field extension, so the certificate holds over the
    algebraic closure."""
    D, genus = _degree_and_genus(v)
    if (v.d, v.g) != (D, genus):
        raise VerificationError(
            f"{v.label}: claims degree {v.d} and genus {v.g}, its coordinates "
            f"have degree {D} on a source of genus {genus}"
        )
    lo = max(1, -(-(2 * v.g + 1) // v.d))
    hi = max(lo, v.d - v.amb + 1)
    if not any(_restricts_onto(v, m, m == hi) for m in range(lo, hi + 1)):
        raise VerificationError(
            f"{v.label}: not a smooth curve of degree {v.d} and genus {v.g}: the "
            f"degree-m forms fall short of rank dm + 1 - g for m = {lo}..{hi}"
        )


def _certify(v: ParamVariety) -> ParamVariety:
    """Certify `v`: its coefficient rank, then the certificate of a curve.
    A surface is certified by its coefficient rank alone."""
    span = _coefficient_rank(v)
    if span != v.amb + 1:
        raise VerificationError(
            f"{v.label}: image is degenerate (span rank {span} < {v.amb + 1})"
        )
    if v.is_curve:
        _certify_curve(v)
    return v


def _rand_scalar(fld: Field, rng: random.Random):
    if fld.is_prime_field:
        return fld.raw(rng.randrange(fld.p))
    return fld.raw(rng.randint(-99, 99))


def _retry(
    tries: int,
    attempt: Callable[[int], ParamVariety],
    failure: Callable[[Optional[ConstructionError]], Exception],
) -> ParamVariety:
    """The retry policy of the randomised constructions: `attempt(i)` for
    i = 0, 1, ... until one returns.  A `ConstructionError` moves on to the
    next try; a `FieldTooSmallError` propagates at once, since the field is
    too small for every draw, and so does any other exception (a usage
    error).  When all `tries` fail, raises `failure(last error)`."""
    last = None
    for i in range(tries):
        try:
            return attempt(i)
        except FieldTooSmallError:
            raise
        except ConstructionError as err:
            last = err
    raise failure(last)


# ------------------------------------------------------------------ constructors


def rational_normal_curve(r: int, fld: Field) -> ParamVariety:
    """The degree-r rational normal curve (s^r, s^{r-1} t, ..., t^r)."""
    if r < 2:
        raise ValueError("need r >= 2")
    coords = [MPoly(fld, 2, {(r - i, i): 1}) for i in range(r + 1)]
    return _certify(ParamVariety(
        label=f"rnc({r})", d=r, g=0, fld=fld, coords=coords,
        domain=ProjectiveDomain((2,)), construction={"name": "rnc", "r": r},
    ))


def scroll_surface(a: int, b: int, fld: Field) -> ParamVariety:
    """The rational normal surface scroll S(a, b) in P^{a+b+1}."""
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    coords = []
    for i in range(a + 1):
        coords.append(MPoly(fld, 4, {(a - i, i, 1, 0): 1}))
    for j in range(b + 1):
        coords.append(MPoly(fld, 4, {(b - j, j, 0, 1): 1}))
    return _certify(ParamVariety(
        label=f"scroll({a},{b})", d=a + b, g=-1, fld=fld, coords=coords,
        domain=ProjectiveDomain((2, 2)), construction={"name": "scroll", "a": a, "b": b},
    ))


def veronese_surface(fld: Field) -> ParamVariety:
    """The Veronese surface in P^5: all degree-2 monomials of (x, y, z)."""
    coords = [MPoly(fld, 3, {e: 1}) for e in monomials(3, 2)]
    return _certify(ParamVariety(
        label="veronese", d=4, g=-1, fld=fld, coords=coords,
        domain=ProjectiveDomain((3,)), construction={"name": "veronese"},
    ))


def _random_coprime_forms(fld: Field, deg_beta: int, deg_alpha: int, rng: random.Random):
    """Random coefficient lists (beta, alpha) whose homogenisations share no
    projective root: trivial affine gcd and not both top coefficients zero."""
    for _ in range(64):
        beta = [_rand_scalar(fld, rng) for _ in range(deg_beta + 1)]
        alpha = [_rand_scalar(fld, rng) for _ in range(deg_alpha + 1)]
        if beta[-1] == 0 and alpha[-1] == 0:
            continue
        a_trim, b_trim = _poly_trim(list(alpha)), _poly_trim(list(beta))
        if not a_trim or not b_trim:
            continue
        if _poly_deg(_poly_gcd(fld, a_trim, b_trim)) == 0:
            return beta, alpha
    raise ConstructionError("could not draw coprime section forms")


def _section_coords(fld: Field, a: int, b: int, beta: list, alpha: list) -> list:
    """Coordinates of the curve [u : v] = [beta(s,t) : alpha(s,t)] on S(a, b):
    beta s^(a-i) t^i for i = 0..a, then alpha s^(b-j) t^j for j = 0..b, each
    form homogenised at the degree of its coefficient list (low degree first)."""
    bpoly, apoly = (
        MPoly(fld, 2, {(len(f) - 1 - j, j): c for j, c in enumerate(f) if c != 0})
        for f in (beta, alpha)
    )
    return [bpoly * MPoly(fld, 2, {(a - i, i): 1}) for i in range(a + 1)] + [
        apoly * MPoly(fld, 2, {(b - j, j): 1}) for j in range(b + 1)
    ]


def scroll_section_curve(
    a: int, b: int, k: int, fld: Field, seed: int = 0
) -> ParamVariety:
    """A section-type curve on S(a, b) of fiber offset k: substitute the
    fiber coordinate [u : v] = [beta(s,t) : alpha(s,t)] with random coprime
    forms of degrees b+k and a+k.  Degree a+b+k, genus 0; certification is
    retried with fresh randomness on failure."""
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    if k < 0:
        raise ValueError("need k >= 0")

    def attempt(i: int) -> ParamVariety:
        rng = random.Random(("scroll-section", a, b, k, seed, i).__repr__())
        beta, alpha = _random_coprime_forms(fld, b + k, a + k, rng)
        coords = _section_coords(fld, a, b, beta, alpha)
        if k == 0:
            # the minimal-class section spans only a hyperplane: a+b+2
            # forms of degree a+b satisfy one linear relation; drop a
            # coordinate supporting it to land in the span
            rel = null_space(fld, _coefficient_rows(fld, coords))
            if len(rel) != 1:
                raise ConstructionError("section forms unexpectedly degenerate")
            drop = next(j for j, x in enumerate(rel[0]) if x != 0)
            coords = [cpoly for j, cpoly in enumerate(coords) if j != drop]
        return _certify(ParamVariety(
            label=f"scroll-section({a},{b};k={k})", d=a + b + k, g=0, fld=fld,
            coords=coords, domain=ProjectiveDomain((2,)),
            construction={"name": "scroll_section", "a": a, "b": b, "k": k, "seed": seed},
        ))

    return _retry(8, attempt, lambda last: ConstructionError(
        f"scroll_section_curve({a},{b},{k}) failed after retries: {last}"
    ))


def _riemann_roch_basis(fld: Field, n: int, y_pole: int) -> list:
    """Monomial basis of the functions with pole order <= n at the infinity
    place of y^2 = f(x): x^i (order 2i) and x^i y (order 2i + y_pole),
    listed by increasing pole order."""
    basis = []
    for order in range(n + 1):
        if order % 2 == 0:
            basis.append((order, MPoly(fld, 2, {(order // 2, 0): 1})))
        elif order >= y_pole and (order - y_pole) % 2 == 0:
            basis.append((order, MPoly(fld, 2, {((order - y_pole) // 2, 1): 1})))
    return [poly for _, poly in sorted(basis, key=lambda t: t[0])]


def elliptic_normal_curve(
    c: int, p: int, weierstrass_coeffs: tuple = (1, 1)
) -> ParamVariety:
    """Degree-(c+2) embedding of the elliptic curve y^2 = x^3 + Ax + B into
    P^{c+1} by the complete system of pole order c+2 at infinity."""
    if c < 2:
        raise ValueError("need c >= 2")
    fld = PrimeField(p)
    if p in (2, 3):
        raise ValueError("short Weierstrass models need p >= 5")
    A, B = (fld.raw(x) for x in weierstrass_coeffs)
    disc = (4 * int(A) ** 3 + 27 * int(B) ** 2) % p
    if disc == 0:
        raise ConstructionError(f"curve y^2 = x^3 + {A}x + {B} is singular mod {p}")
    return _certify(ParamVariety(
        label=f"elliptic({c};p={p})", d=c + 2, g=1, fld=fld,
        coords=_riemann_roch_basis(fld, c + 2, y_pole=3),
        domain=WeierstrassDomain(fld, [int(B), int(A), 0, 1]),
        construction={"name": "elliptic", "c": c, "p": p, "weierstrass": [int(A), int(B)]},
    ))


# f(x) = 1 + x + x^5, low degree first: the genus-2 model used by default
GENUS2_DEFAULT_F = (1, 1, 0, 0, 0, 1)


def hyperelliptic_g2_curve(c: int, p: int, f_coeffs: Sequence[int] = GENUS2_DEFAULT_F) -> ParamVariety:
    """Degree-(c+3) embedding of the genus-2 curve y^2 = f(x) (deg f = 5,
    squarefree) into P^{c+1} by the complete system of pole order c+3 at the
    infinity place."""
    if c < 2:
        raise ValueError("need c >= 2")
    fld = PrimeField(p)
    if p == 2:
        raise ValueError("p = 2 not supported")
    f_raw = [fld.raw(x) for x in f_coeffs]
    if len(f_raw) != 6 or f_raw[5] == 0:
        raise ValueError("f must have degree exactly 5")
    if not _is_squarefree(fld, f_raw):
        raise ConstructionError(f"f is not squarefree mod {p}")
    return _certify(ParamVariety(
        label=f"genus2({c};p={p})", d=c + 3, g=2, fld=fld,
        coords=_riemann_roch_basis(fld, c + 3, y_pole=5),
        domain=WeierstrassDomain(fld, [int(x) for x in f_raw]),
        construction={"name": "genus2", "c": c, "p": p, "f_coeffs": [int(x) for x in f_raw]},
    ))


# ------------------------------------------------------------------ projections


def project(v: ParamVariety, center: ProjectionCenter) -> ParamVariety:
    """Linear projection of `v` away from `center`; the image must stay
    nondegenerate of the same dimension and degree (certified, not assumed)."""
    fld = v.field
    construction = {
        "name": "project",
        "base": v.construction,
        "center": [[int(x) if fld.is_prime_field else str(x) for x in b] for b in center.basis],
        "seed": v.construction.get("seed", 0),
    }
    return _project(v, center, f"{v.label}/proj{center.dim}", construction)


def _project(
    v: ParamVariety, center: ProjectionCenter, label: str, construction: dict
) -> ParamVariety:
    """`project`, certifying the image under its final label and descriptor."""
    if center.ambient != v.amb:
        raise ValueError("center lives in a different ambient space")
    center.validate(v.field)
    if not center.dim < v.amb - v.n - 1:
        raise ValueError("center too large: image could not stay nondegenerate")
    new_amb = v.amb - center.dim - 1
    plane_genus = (v.d - 1) * (v.d - 2) // 2
    if v.is_curve and new_amb == 2 and v.g != plane_genus:
        raise ValueError(
            f"{v.label}: the image lies in P^2, where a smooth curve of degree {v.d} "
            f"has genus {plane_genus}, not {v.g}"
        )
    fld = v.field
    ann = null_space(fld, center.basis)
    new_coords = []
    for row in ann:
        acc = MPoly.zero(fld, v.coords[0].nvars)
        for coeff, cpoly in zip(row, v.coords):
            if coeff != 0:
                acc = acc + cpoly * coeff
        new_coords.append(acc)
    out = ParamVariety(
        label=label, d=v.d, g=v.g, fld=fld, coords=new_coords, domain=v.domain,
        construction=construction,
    )
    try:
        return _certify(out)
    except VerificationError as err:
        raise ProjectionError(
            f"{v.label}: center meets the secant locus ({err})"
        ) from err


def project_from_general_point(v: ParamVariety, seed: int = 0) -> ParamVariety:
    """Projection from a random point, retried until certification passes."""
    rng = random.Random(("general-point", v.label, seed).__repr__())

    def attempt(i: int) -> ParamVariety:
        vec = [_rand_scalar(v.field, rng) for _ in range(v.amb + 1)]
        if all(x == 0 for x in vec):
            raise ConstructionError("drew the zero vector as the center")
        center = tuple(int(x) if v.field.is_prime_field else x for x in vec)
        return project(v, ProjectionCenter(v.amb, (center,)))

    return _retry(16, attempt, lambda last: ProjectionError(
        f"no usable general projection point found: {last}"
    ))


def multisecant_projection(
    c: int, k: int, g: int, p: int, seed: int = 0
) -> ParamVariety:
    """Curve of genus g and degree d = c+k-1 in P^{c+1} obtained by
    projecting a linearly normal source curve away from a general
    (k-3-g)-plane inside the span of k-g of its points; the span of those
    points maps to a (k-g)-secant line of the image."""
    if not 1 <= k <= c:
        raise ValueError("need 1 <= k <= c")
    if not 0 <= g <= k - 3:
        raise ValueError("need 0 <= g <= k-3")
    if g > 2:
        raise ValueError("source curves implemented for g in {0, 1, 2} only")
    d = c + k - 1
    if g == 0:
        source = rational_normal_curve(d, PrimeField(p))
    elif g == 1:
        source = elliptic_normal_curve(d - 2, p)
    else:
        source = hyperelliptic_g2_curve(d - 3, p)
    fld = source.field
    npts = k - g
    ncenter = k - 2 - g  # basis vectors for the (k-3-g)-plane

    def attempt(i: int) -> ParamVariety:
        rng = random.Random(("multisecant", c, k, g, p, seed, i).__repr__())
        stream = source.domain.parameter_stream(fld, rng.randrange(1 << 30))
        params = list(itertools.islice(stream, npts))
        pts = source.evaluator(params).tolist()
        if len(pivots(fld, pts)) != npts:
            raise ConstructionError("secant points not independent")
        combo = [[rng.randrange(1, p) for _ in range(npts)] for _ in range(ncenter)]
        basis = [tuple(sum(coeff * x for coeff, x in zip(row, col)) % p for col in zip(*pts))
                 for row in combo]
        if len(pivots(fld, basis)) != ncenter:
            raise ConstructionError("center basis degenerate")
        # no chosen point may sit inside the center (they must survive to
        # pairwise-distinct points of the secant line)
        if any(len(pivots(fld, [*basis, pt])) == ncenter for pt in pts):
            raise ConstructionError("a secant point fell into the center")
        construction = {"name": "multisecant", "c": c, "k": k, "g": g, "p": p,
                        "seed": seed, "attempt": i}
        out = _project(source, ProjectionCenter(source.amb, tuple(basis)),
                       f"multisecant(c={c},k={k},g={g})", construction)
        # certify the multisecant line: the chosen points map to >= k-g
        # distinct collinear points, their images under the projection
        images = out.evaluator(params).tolist()
        keys = {_normalize(fld, img) for img in images}
        if len(keys) != npts or len(pivots(fld, images)) != 2:
            raise ConstructionError("secant-line certificate failed")
        return out

    return _retry(12, attempt, lambda last: ConstructionError(
        f"multisecant_projection(c={c},k={k},g={g}) failed after retries: {last}"
    ))


def linear_section_curve(v: ParamVariety, seed: int = 0) -> ParamVariety:
    """A generic hyperplane section of a parametrised surface, realised as a
    curve: for scrolls the hyperplane cuts each ruling in one point, giving
    a section-type curve; for the Veronese surface the pullback of a smooth
    conic through a rational point is used."""
    if v.n != 2:
        raise ValueError("linear sections are implemented for surfaces")
    fld = v.field
    name = v.construction.get("name")
    if name == "scroll":
        a, b = v.construction["a"], v.construction["b"]
        rng = random.Random(("section", v.label, seed).__repr__())

        def attempt(i: int) -> ParamVariety:
            h = [_rand_scalar(fld, rng) for _ in range(v.amb + 1)]
            # h = u A(s,t) + v B(s,t); the fiber over [s:t] is cut at
            # [u:v] = [B : -A]
            acoef, bcoef = h[: a + 1], h[a + 1 :]
            at, bt = _poly_trim(list(acoef)), _poly_trim(list(bcoef))
            if not at or not bt or _poly_deg(_poly_gcd(fld, at, bt)) > 0:
                raise ConstructionError("the hyperplane contains a ruling")
            beta = [fld.raw(x) for x in bcoef]
            alpha = [fld.neg(fld.raw(x)) for x in acoef]
            coords = _section_coords(fld, a, b, beta, alpha)
            # drop a coordinate with nonzero hyperplane coefficient: an iso
            # from the hyperplane onto P^{amb-1}
            drop = next(j for j, x in enumerate(h) if x != 0)
            return _certify(ParamVariety(
                label=f"{v.label}|H", d=v.d, g=0, fld=fld,
                coords=[cp for j, cp in enumerate(coords) if j != drop],
                domain=ProjectiveDomain((2,)),
                construction={"name": "scroll_hyperplane_section", "a": a, "b": b,
                              "seed": seed, "attempt": i},
            ))

        return _retry(16, attempt, lambda last: ConstructionError(
            f"no transverse hyperplane section found for {v.label}"
        ))
    if name == "veronese":
        # pull back along the standard conic (s^2, st, t^2): the composition
        # is a quartic curve spanning a hyperplane of P^5; drop one
        # coordinate supporting the hyperplane to land in P^4
        conic = [MPoly(fld, 2, {(2, 0): 1}), MPoly(fld, 2, {(1, 1): 1}), MPoly(fld, 2, {(0, 2): 1})]
        composed = []
        for cpoly in v.coords:
            acc = MPoly.zero(fld, 2)
            for exp, coeff in cpoly.terms.items():
                term = MPoly.constant(fld, 2, coeff)
                for var, e in enumerate(exp):
                    for _ in range(e):
                        term = term * conic[var]
                acc = acc + term
            composed.append(acc)
        # coords of the Veronese are (x^2, xy, xz, y^2, yz, z^2); along the
        # conic, xz = y^2, so coordinates 2 and 3 coincide: the image spans
        # the hyperplane w2 = w3.  New coordinates: w0, w1, w2, w4, w5.
        kept = [composed[i] for i in (0, 1, 2, 4, 5)]
        return _certify(ParamVariety(
            label=f"{v.label}|H", d=4, g=0, fld=fld, coords=kept,
            domain=ProjectiveDomain((2,)),
            construction={"name": "veronese_conic_section", "seed": seed},
        ))
    raise ValueError(f"no section recipe for construction {name!r}")


# ------------------------------------------------------------------ descriptors


@dataclass(frozen=True)
class Construction:
    """A construction name of the descriptors.  `build` takes its fields by
    keyword, and `fld` unless it takes the prime `p` (prime-only).  The
    `curve` and `secants` commands offer it as `spelling`; the `curve` and
    `secants` numbers are its place in their choices (None: not offered)."""

    build: Callable[..., ParamVariety]
    spelling: Optional[str] = None
    curve: Optional[int] = None
    secants: Optional[int] = None

    @property
    def fields(self) -> tuple:
        """The descriptor fields `build` reads."""
        return tuple(n for n in inspect.signature(self.build).parameters if n != "fld")

    @property
    def prime_only(self) -> bool:
        return "fld" not in inspect.signature(self.build).parameters


def _rebuild_projection(fld: Field, base: dict, center: list) -> ParamVariety:
    """`project` from a center given as a nonempty list of nonempty
    coordinate lists: integers over GF(p), and over Q integers or the
    rational strings that `project` writes."""
    def entry(x):
        if not (_is_integer(x) or isinstance(x, str) and not fld.is_prime_field):
            raise ValueError
        return x if fld.is_prime_field else Fraction(x)

    try:
        if not (isinstance(center, list) and center
                and all(isinstance(b, list) and b for b in center)):
            raise ValueError
        basis = tuple(tuple(map(entry, b)) for b in center)
    except (ValueError, ZeroDivisionError):
        kind = "integers" if fld.is_prime_field else "integers or rational strings"
        raise ValueError(f"construction 'project' field 'center' must be a nonempty "
                         f"list of coordinate lists of {kind}, got {center!r}") from None
    source = _construct(_entry(base), base, fld)
    return project(source, ProjectionCenter(source.amb, basis))


# Builders call the public constructors by name, so a wrapper installed on
# the module (a tracer, a test double) sees the call.  The CLI offers the
# `project` entry as the projection of `rnc` from a general point.
CONSTRUCTIONS = {
    "rnc": Construction(lambda fld, r: rational_normal_curve(r, fld), "rnc", curve=0, secants=0),
    "scroll": Construction(lambda fld, a, b: scroll_surface(a, b, fld), "scroll", secants=1),
    "veronese": Construction(lambda fld: veronese_surface(fld), "veronese", secants=2),
    "scroll_section": Construction(
        lambda fld, a, b, k, seed: scroll_section_curve(a, b, k, fld, seed),
        "scroll-section", curve=3, secants=4,
    ),
    "elliptic": Construction(
        lambda c, p, weierstrass: elliptic_normal_curve(c, p, tuple(weierstrass)),
        "elliptic", curve=1,
    ),
    "genus2": Construction(
        lambda c, p, f_coeffs: hyperelliptic_g2_curve(c, p, f_coeffs), "genus2", curve=2
    ),
    "multisecant": Construction(
        lambda c, k, g, p, seed: multisecant_projection(c, k, g, p, seed), "multisecant", curve=4
    ),
    "project": Construction(_rebuild_projection, "projected-rnc", curve=5, secants=3),
    "scroll_hyperplane_section": Construction(
        lambda fld, a, b, seed: linear_section_curve(scroll_surface(a, b, fld), seed)
    ),
    "veronese_conic_section": Construction(
        lambda fld, seed: linear_section_curve(veronese_surface(fld), seed)
    ),
}


# descriptor fields whose value is not one integer: integer lists, and the
# source construction and center of a projection (read by `_rebuild_projection`)
_INTEGER_LIST_FIELDS = ("weierstrass", "f_coeffs")
_PROJECTION_FIELDS = ("base", "center")


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_descriptor(desc: dict) -> ParamVariety:
    """Deterministically rebuild a variety from its descriptor JSON."""
    for key in ("field", "construction"):
        if key not in desc:
            raise ValueError(f"descriptor lacks field {key!r}")
    cons, spec = desc["construction"], desc["field"]
    entry = _entry(cons)
    if spec != "Q" and not _is_integer(spec):
        raise ValueError(
            f"construction {cons['name']!r} field 'field' must be 'Q' or an integer, "
            f"got {spec!r}"
        )
    return _construct(entry, cons, QQ if spec == "Q" else PrimeField(spec))


def _entry(cons: dict) -> Construction:
    """The table entry of a construction object, once its fields are all
    present and of the right type."""
    if not isinstance(cons, dict):
        raise ValueError(f"a construction is an object with a name, got {cons!r}")
    name = cons.get("name")
    entry = CONSTRUCTIONS.get(name)
    if entry is None:
        raise ValueError(f"unknown construction {name!r}")
    for f in entry.fields:
        if f not in cons:
            raise ValueError(f"construction {name!r} lacks field {f!r}")
        value = cons[f]
        if f in _INTEGER_LIST_FIELDS:
            if not (isinstance(value, (list, tuple)) and all(map(_is_integer, value))):
                raise ValueError(
                    f"construction {name!r} field {f!r} must be a list of integers, "
                    f"got {value!r}"
                )
        elif f not in _PROJECTION_FIELDS and not _is_integer(value):
            raise ValueError(
                f"construction {name!r} field {f!r} must be an integer, got {value!r}"
            )
    return entry


def _construct(entry: Construction, cons: dict, fld: Field) -> ParamVariety:
    kwargs = {f: cons[f] for f in entry.fields}
    return entry.build(**kwargs) if entry.prime_only else entry.build(fld=fld, **kwargs)
