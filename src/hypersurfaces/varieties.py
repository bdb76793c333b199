"""Constructors for explicit low-degree projective varieties over exact fields.

Each ParamVariety carries exact coordinate polynomials together with a
parameter domain that can produce sample points and the point set on
which hypersurface counts are exact: products of projective spaces for
rational parametrizations (rational normal curves, scrolls, Veronese,
scroll sections and their projections) or a plane-curve point enumerator
for elliptic and genus-2 curves presented by y^2 = f(x).

Claimed metadata is never trusted: constructions are certified (distinct
images over all rational parameters, a hyperplane degree count, and a
nondegeneracy rank) and fail loudly instead of returning a variety whose
invariants might silently be wrong.  Over GF(p), p <= FULL_SCAN_LIMIT, a
curve's images are checked on its whole coordinate table as one int64
array.  Nondegeneracy is the exact rank of the coordinates' coefficient
matrix, that is the span over the algebraic closure: a curve whose
coordinates are independent forms is accepted even when its GF(p)-points
happen to lie in a hyperplane.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .exactcore import (
    QQ,
    Field,
    Matrix,
    MPoly,
    PrimeField,
    monomials,
    null_space,
    rank,
)
from .pointconfig import PointConfig

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
    "linear_section_curve",
    "from_descriptor",
]


class ConstructionError(RuntimeError):
    """A variety failed its post-construction certification."""


class FieldTooSmallError(ConstructionError):
    """The base field has too few points for the requested sample, for the
    point set of an exact count, or for a full-scan certificate."""


class ProjectionError(ConstructionError):
    """The projection center meets the variety or its secant locus."""


class VerificationError(ConstructionError):
    """Numeric verification of claimed metadata or of a count ledger failed."""


# above this modulus, exhaustive rational-point scans give way to sampling
FULL_SCAN_LIMIT = 1 << 16


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


def _poly_mul(f: Field, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [f.raw(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(ca, cb))
    return _poly_trim(out)


def _distinct_root_count(f: Field, coeffs: list) -> int:
    """Number of distinct roots in the algebraic closure: deg(h / gcd(h, h'))."""
    coeffs = _poly_trim(list(coeffs))
    if _poly_deg(coeffs) < 1:
        return 0
    g = _poly_gcd(f, coeffs, _poly_deriv(f, coeffs))
    return _poly_deg(coeffs) - _poly_deg(g)


# ------------------------------------------------------------------ parameter domains


class ProjectiveDomain:
    """Product of projective parameter spaces; blocks list the homogeneous
    coordinate counts of the factors, e.g. (2,) for P^1, (2, 2) for P^1 x P^1,
    (3,) for P^2."""

    kind = "projective"

    def __init__(self, blocks: Sequence[int]):
        self.blocks = tuple(int(b) for b in blocks)
        if any(b < 2 for b in self.blocks):
            raise ValueError("each block needs at least 2 homogeneous coordinates")
        self.nvars = sum(self.blocks)

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

    def line_parameters(self, field: Field) -> list:
        """Canonical order of all P^1 parameters over GF(p): (1, t) then (0, 1)."""
        assert self.is_curve_line() and field.is_prime_field
        return [(1, t) for t in range(field.p)] + [(0, 1)]

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

    def parameter_stream(self, field: Field, seed: int) -> Iterator[tuple]:
        rng = random.Random(("domain", self.blocks, seed).__repr__())
        if self.is_curve_line() and field.is_prime_field and field.p <= FULL_SCAN_LIMIT:
            order = list(range(field.p + 1))
            rng.shuffle(order)
            params = self.line_parameters(field)
            for i in order:
                yield params[i]
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


class WeierstrassDomain:
    """Rational points (x, y) of y^2 = f(x) over GF(p), cached once.

    Serves both elliptic (deg f = 3) and genus-2 (deg f = 5) models; the
    point at infinity is deliberately not represented, since coordinate
    functions are polynomials in (x, y).
    """

    kind = "weierstrass"
    nvars = 2

    def __init__(self, field: PrimeField, f_coeffs: Sequence[int]):
        if not field.is_prime_field:
            raise ValueError("Weierstrass domains need a prime field")
        if field.p == 2:
            raise ValueError("p = 2 not supported for y^2 = f(x) models")
        self.field = field
        self.f_coeffs = tuple(field.raw(c) for c in f_coeffs)
        self._points: Optional[list] = None

    def points(self) -> list:
        """Affine points with x ascending; for each x, (x, y) with the smaller
        square root y first, then (x, p - y) when y != 0."""
        if self._points is None:
            p = self.field.p
            xs = np.arange(p, dtype=np.int64)
            fx = np.zeros(p, dtype=np.int64)
            for c in reversed(self.f_coeffs):  # Horner
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
            self._points = [tuple(pt) for pt in pairs[keep].tolist()]
        return self._points

    def count_available(self, field: Field) -> int:
        return len(self.points())

    def unisolvent_params(self, field: Field, coords: Sequence[MPoly], m: int) -> list:
        """The first m*N + 1 affine points, N the top pole order of `coords`
        at infinity: a composed degree-m form has pole order <= m*N, so if
        it is nonzero it has at most m*N zeros (Bezout)."""
        fdeg = len(self.f_coeffs) - 1
        top = max(_section_pole_order(*_weierstrass_split(c), fdeg) for c in coords)
        need = m * top + 1
        pts = self.points()
        if len(pts) < need:
            raise FieldTooSmallError(
                f"exact degree-{m} counts need {need} affine points, "
                f"y^2 = f(x) over {field!r} has {len(pts)}"
            )
        return pts[:need]

    def parameter_stream(self, field: Field, seed: int) -> Iterator[tuple]:
        pts = self.points()
        order = list(range(len(pts)))
        random.Random(("weierstrass", self.f_coeffs, seed).__repr__()).shuffle(order)
        for i in order:
            yield pts[i]


# ------------------------------------------------------------------ the variety object


@dataclass(frozen=True)
class ProjectionCenter:
    """A linear center Lambda spanned by independent coordinate vectors."""

    ambient: int
    basis: tuple

    def __post_init__(self):
        rows = [list(v) for v in self.basis]
        if any(len(r) != self.ambient + 1 for r in rows):
            raise ValueError("center vectors must have ambient+1 coordinates")

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    def validate(self, fld: Field) -> None:
        m = Matrix.from_rows(fld, [list(v) for v in self.basis])
        if rank(m) != len(self.basis):
            raise ValueError("projection-center basis is linearly dependent")


class ParamVariety:
    """A parametrised variety with verified degree/genus metadata.

    Immutable after construction; the coordinate table over GF(p) (all
    rational parameter points evaluated through the coordinates) is built
    lazily and cached as a read-only int64 array, and backs sampling and
    the injectivity scan.
    """

    def __init__(
        self,
        label: str,
        n: int,
        amb: int,
        d: int,
        g: int,
        fld: Field,
        coords: Sequence[MPoly],
        domain,
        linearly_normal: bool,
        construction: dict,
    ):
        self.label = label
        self.n = n
        self.amb = amb
        self.d = d
        self.g = g
        self.field = fld
        self.coords = tuple(coords)
        self.domain = domain
        self.linearly_normal = linearly_normal
        self.construction = dict(construction)
        self._table: Optional[np.ndarray] = None
        if len(self.coords) != amb + 1:
            raise ValueError("need amb+1 coordinate polynomials")
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

    def eval_params(self, params: Sequence) -> tuple:
        return tuple(c.eval(list(params)) for c in self.coords)

    def _line_coeff_matrix(self) -> tuple:
        """Dehomogenised coefficient matrix for a single-P^1 curve: entry
        [j][i] is the coefficient of t^j in coord_i(1, t); also returns the
        common homogeneous degree."""
        deg = max(c.degree() for c in self.coords)
        cm = [[self.field.raw(0)] * (len(self.coords)) for _ in range(deg + 1)]
        for i, c in enumerate(self.coords):
            for (es, et), coeff in c.terms.items():
                if es + et != deg:
                    raise ValueError("curve coordinates are not equi-homogeneous")
                cm[et][i] = coeff
        return cm, deg

    def coordinate_table(self) -> np.ndarray:
        """Coordinate vectors at every rational parameter point, one int64
        row each, in the domain's canonical order (GF(p) curves only)."""
        if self._table is not None:
            return self._table
        fld = self.field
        if not fld.is_prime_field:
            raise ValueError("coordinate tables exist only over prime fields")
        p = fld.p
        if isinstance(self.domain, ProjectiveDomain) and self.domain.is_curve_line():
            cm, deg = self._line_coeff_matrix()
            coeff = np.array([[int(v) for v in row] for row in cm], dtype=np.int64)
            ts = np.arange(p, dtype=np.int64)
            powers = np.ones((p + 1, deg + 1), dtype=np.int64)
            for j in range(1, deg + 1):
                powers[:p, j] = powers[:p, j - 1] * ts % p
            powers[p, :deg] = 0  # the parameter at infinity picks the t^deg row
            table = powers @ coeff % p
        elif isinstance(self.domain, WeierstrassDomain):
            xs, ys = np.array(self.domain.points(), dtype=np.int64).reshape(-1, 2).T
            cols = []
            xpow_cache = {0: np.ones_like(xs)}

            def xpow(k):
                if k not in xpow_cache:
                    xpow_cache[k] = xpow_cache[k - 1] * xs % p
                return xpow_cache[k]

            for c in self.coords:
                col = np.zeros_like(xs)
                for (ex, ey), coeff in c.terms.items():
                    term = xpow(ex) * int(coeff) % p
                    if ey == 1:
                        term = term * ys % p
                    elif ey > 1:
                        raise ValueError("Weierstrass coordinates must have y-degree <= 1")
                    col = (col + term) % p
                cols.append(col)
            table = np.stack(cols, axis=1)
        else:
            raise ValueError("coordinate tables are only built for curves")
        table.setflags(write=False)  # the cache is shared: keep it read-only
        self._table = table
        return table

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


def sample_points(v: ParamVariety, count: int, seed: int = 0) -> PointConfig:
    """Deterministic-from-seed list of `count` distinct points on `v`."""
    avail = v.domain.count_available(v.field)
    if avail is not None and count > avail:
        raise FieldTooSmallError(
            f"{v.label}: requested {count} points but the parameter space "
            f"over {v.field!r} only provides {avail}"
        )
    fld = v.field
    vecs = []
    seen = set()
    budget = count * 4 + 64
    if fld.is_prime_field and v.is_curve and fld.p <= FULL_SCAN_LIMIT:
        table = v.coordinate_table()
        order = list(range(len(table)))
        random.Random(("sample", v.label, seed).__repr__()).shuffle(order)
        for i in order:
            vec = tuple(table[i].tolist())
            if all(x == 0 for x in vec):
                continue
            key = _normalize_key(fld, vec)
            if key in seen:
                continue
            seen.add(key)
            vecs.append(vec)
            if len(vecs) == count:
                break
    else:
        for params in v.domain.parameter_stream(fld, seed):
            budget -= 1
            if budget < 0:
                break
            vec = v.eval_params(params)
            if all(x == 0 for x in vec):
                continue
            key = _normalize_key(fld, vec)
            if key in seen:
                continue
            seen.add(key)
            vecs.append(vec)
            if len(vecs) == count:
                break
    if len(vecs) < count:
        raise FieldTooSmallError(
            f"{v.label}: could only realise {len(vecs)} of {count} distinct points"
        )
    return PointConfig(fld, vecs)


def _normalize_key(fld: Field, vec) -> tuple:
    lead_idx = next(i for i, x in enumerate(vec) if x != 0)
    inv = fld.inv(vec[lead_idx])
    return tuple(fld.mul(x, inv) for x in vec)


# ------------------------------------------------------------------ verification


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise a^(p-2) mod p by square and multiply: the inverse of each
    nonzero residue.  Products stay below p^2, so int64 is exact for
    p < 2^31."""
    out = np.ones_like(a)
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _coefficient_rank(v: ParamVariety) -> int:
    """Rank of the coordinates' coefficient matrix (a row per monomial, a
    column per coordinate).  A linear form vanishes on the image over the
    algebraic closure exactly when it is a linear relation among the
    coordinate polynomials: the parameter spaces are irreducible, and on
    y^2 = f(x) with deg f odd, A(x) + B(x) y vanishes only when A = B = 0
    (A^2 = B^2 f would need an even and an odd degree to agree)."""
    if isinstance(v.domain, WeierstrassDomain) and any(
        e[1] > 1 for c in v.coords for e in c.terms
    ):
        raise ValueError("Weierstrass coordinates must have y-degree <= 1")
    zero = v.field.raw(0)
    monos = sorted({e for c in v.coords for e in c.terms})
    rows = [[c.terms.get(e, zero) for c in v.coords] for e in monos]
    return rank(Matrix.from_rows(v.field, rows))


def _verify_injective_and_nondegenerate(v: ParamVariety, sample_size: int = 0) -> None:
    fld = v.field
    if fld.is_prime_field and v.is_curve and fld.p <= FULL_SCAN_LIMIT:
        table = v.coordinate_table()
        if len(table) < v.amb + 1:
            raise FieldTooSmallError(
                f"{v.label}: {fld!r} has {len(table)} rational parameters, "
                f"spanning P^{v.amb} needs {v.amb + 1}"
            )
        nonzero = table != 0
        if not nonzero.any(axis=1).all():
            raise VerificationError(f"{v.label}: parametrization has a base point")
        # scale each row to lead entry 1 and count the distinct rows; the
        # residues are below p <= 2^16, so a row packs into uint16 bytes
        lead = table[np.arange(len(table)), nonzero.argmax(axis=1)]
        keys = table * _inverse_mod(lead, fld.p)[:, None] % fld.p
        keys = np.ascontiguousarray(keys, dtype=np.uint16)
        images = len(np.unique(keys.view(np.dtype((np.void, keys.strides[0])))))
        if images != len(table):
            raise VerificationError(
                f"{v.label}: parameter points collide in the image "
                f"({len(table)} parameters, {images} images)"
            )
    else:
        size = sample_size or 3 * (v.amb + 1)
        cfg = sample_points(v, size, seed=987)
        if len(set(cfg.points)) != size:
            raise VerificationError(f"{v.label}: sampled images not distinct")
    span = _coefficient_rank(v)
    if span != v.amb + 1:
        raise VerificationError(
            f"{v.label}: image is degenerate (span rank {span} < {v.amb + 1})"
        )


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


def _verify_degree_curve(v: ParamVariety, seed: int, trials: int = 5) -> None:
    """Exact distinct-intersection count against random hyperplanes.

    A trial computes the number of distinct geometric intersection points of
    the curve with a random hyperplane (squarefree-part degree of the
    pulled-back form).  Some trial must reach d and none may exceed it.
    """
    fld = v.field
    rng = random.Random(("degree", v.label, seed).__repr__())
    best = -1
    for _ in range(trials):
        h = [_rand_scalar(fld, rng) for _ in range(v.amb + 1)]
        if all(x == 0 for x in h):
            continue
        if isinstance(v.domain, ProjectiveDomain) and v.domain.is_curve_line():
            cm, deg = v._line_coeff_matrix()
            hpoly = [
                _dot(fld, row, h)
                for row in cm
            ]
            _poly_trim(hpoly)
            if not hpoly:
                continue  # hyperplane contains the curve: impossible post-span check
            count = _distinct_root_count(fld, hpoly)
            if _poly_deg(hpoly) < deg:
                count += 1  # the parameter at infinity lies on the hyperplane
        elif isinstance(v.domain, WeierstrassDomain):
            section = MPoly.zero(fld, 2)
            for hi, c in zip(h, v.coords):
                section = section + c * hi
            A, B = _weierstrass_split(section)
            if not B or not A or _poly_deg(_poly_gcd(fld, A, B)) > 0:
                continue  # degenerate trial
            fdeg = _poly_deg(list(v.domain.f_coeffs))
            n_max = max(
                _section_pole_order(*_weierstrass_split(c), fdeg) for c in v.coords
            )
            r = _poly_sub(fld, _poly_mul(fld, A, A),
                          _poly_mul(fld, _poly_mul(fld, B, B), list(v.domain.f_coeffs)))
            count = _distinct_root_count(fld, r)
            if _section_pole_order(A, B, fdeg) < n_max:
                count += 1  # hyperplane through the image of the infinity place
        else:
            return  # degree checks are defined for curves only
        if count > v.d:
            raise VerificationError(
                f"{v.label}: hyperplane meets the curve in {count} > d = {v.d} points"
            )
        best = max(best, count)
        if best == v.d:
            return
    raise VerificationError(
        f"{v.label}: degree check reached only {best} of d = {v.d} intersection points"
    )


def _poly_sub(fld: Field, a: list, b: list) -> list:
    out = [fld.raw(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = fld.sub(out[i], c)
    return _poly_trim(out)


def _dot(fld: Field, row, h):
    acc = fld.raw(0)
    for a, b in zip(row, h):
        acc = fld.add(acc, fld.mul(a, fld.raw(b)))
    return acc


def _rand_scalar(fld: Field, rng: random.Random):
    if fld.is_prime_field:
        return fld.raw(rng.randrange(fld.p))
    return fld.raw(rng.randint(-99, 99))


def _certify(v: ParamVariety, seed: int) -> ParamVariety:
    _verify_injective_and_nondegenerate(v)
    if v.is_curve:
        _verify_degree_curve(v, seed)
    return v


# ------------------------------------------------------------------ constructors


def rational_normal_curve(r: int, fld: Field) -> ParamVariety:
    """The degree-r rational normal curve (s^r, s^{r-1} t, ..., t^r)."""
    if r < 2:
        raise ValueError("need r >= 2")
    coords = [MPoly(fld, 2, {(r - i, i): 1}) for i in range(r + 1)]
    v = ParamVariety(
        label=f"rnc({r})",
        n=1,
        amb=r,
        d=r,
        g=0,
        fld=fld,
        coords=coords,
        domain=ProjectiveDomain((2,)),
        linearly_normal=True,
        construction={"name": "rnc", "r": r},
    )
    return _certify(v, seed=0)


def scroll_surface(a: int, b: int, fld: Field) -> ParamVariety:
    """The rational normal surface scroll S(a, b) in P^{a+b+1}."""
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    coords = []
    for i in range(a + 1):
        coords.append(MPoly(fld, 4, {(a - i, i, 1, 0): 1}))
    for j in range(b + 1):
        coords.append(MPoly(fld, 4, {(b - j, j, 0, 1): 1}))
    v = ParamVariety(
        label=f"scroll({a},{b})",
        n=2,
        amb=a + b + 1,
        d=a + b,
        g=-1,
        fld=fld,
        coords=coords,
        domain=ProjectiveDomain((2, 2)),
        linearly_normal=True,
        construction={"name": "scroll", "a": a, "b": b},
    )
    _verify_injective_and_nondegenerate(v)
    return v


def veronese_surface(fld: Field) -> ParamVariety:
    """The Veronese surface in P^5: all degree-2 monomials of (x, y, z)."""
    coords = [MPoly(fld, 3, {e: 1}) for e in monomials(3, 2)]
    v = ParamVariety(
        label="veronese",
        n=2,
        amb=5,
        d=4,
        g=-1,
        fld=fld,
        coords=coords,
        domain=ProjectiveDomain((3,)),
        linearly_normal=True,
        construction={"name": "veronese"},
    )
    _verify_injective_and_nondegenerate(v)
    return v


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


def _homogenize(fld: Field, coeffs: list, deg: int) -> MPoly:
    terms = {}
    for j, c in enumerate(coeffs):
        if c != 0:
            terms[(deg - j, j)] = c
    return MPoly(fld, 2, terms)


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
    last_err: Optional[Exception] = None
    for attempt in range(8):
        rng = random.Random(("scroll-section", a, b, k, seed, attempt).__repr__())
        try:
            beta, alpha = _random_coprime_forms(fld, b + k, a + k, rng)
            bpoly = _homogenize(fld, beta, b + k)
            apoly = _homogenize(fld, alpha, a + k)
            coords = []
            for i in range(a + 1):
                coords.append(bpoly * MPoly(fld, 2, {(a - i, i): 1}))
            for j in range(b + 1):
                coords.append(apoly * MPoly(fld, 2, {(b - j, j): 1}))
            amb = a + b + 1
            if k == 0:
                # the minimal-class section spans only a hyperplane: a+b+2
                # forms of degree a+b satisfy one linear relation; drop a
                # coordinate supporting it to land in the span
                monos = monomials(2, a + b)
                col_rows = [
                    [cpoly.terms.get(e, fld.raw(0)) for cpoly in coords]
                    for e in monos
                ]
                rel = null_space(Matrix.from_rows(fld, col_rows))
                if len(rel) != 1:
                    raise ConstructionError("section forms unexpectedly degenerate")
                drop = next(i for i, x in enumerate(rel[0]) if x != 0)
                coords = [cpoly for i, cpoly in enumerate(coords) if i != drop]
                amb = a + b
            v = ParamVariety(
                label=f"scroll-section({a},{b};k={k})",
                n=1,
                amb=amb,
                d=a + b + k,
                g=0,
                fld=fld,
                coords=coords,
                domain=ProjectiveDomain((2,)),
                linearly_normal=(k == 0),
                construction={
                    "name": "scroll_section",
                    "a": a,
                    "b": b,
                    "k": k,
                    "seed": seed,
                },
            )
            return _certify(v, seed=seed + attempt)
        except ConstructionError as err:
            last_err = err
    raise ConstructionError(
        f"scroll_section_curve({a},{b},{k}) failed after retries: {last_err}"
    )


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
    n = c + 2
    f_coeffs = [int(B), int(A), 0, 1]
    domain = WeierstrassDomain(fld, f_coeffs)
    coords = _riemann_roch_basis(fld, n, y_pole=3)
    assert len(coords) == n
    v = ParamVariety(
        label=f"elliptic({c};p={p})",
        n=1,
        amb=c + 1,
        d=c + 2,
        g=1,
        fld=fld,
        coords=coords,
        domain=domain,
        linearly_normal=True,
        construction={
            "name": "elliptic",
            "c": c,
            "p": p,
            "weierstrass": [int(A), int(B)],
        },
    )
    return _certify(v, seed=1)


def hyperelliptic_g2_curve(c: int, p: int, f_coeffs: Sequence[int] = (1, 1, 0, 0, 0, 1)) -> ParamVariety:
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
    if _poly_deg(_poly_gcd(fld, list(f_raw), _poly_deriv(fld, list(f_raw)))) > 0:
        raise ConstructionError(f"f is not squarefree mod {p}")
    n = c + 3
    domain = WeierstrassDomain(fld, [int(x) for x in f_raw])
    coords = _riemann_roch_basis(fld, n, y_pole=5)
    assert len(coords) == n - 1
    v = ParamVariety(
        label=f"genus2({c};p={p})",
        n=1,
        amb=c + 1,
        d=c + 3,
        g=2,
        fld=fld,
        coords=coords,
        domain=domain,
        linearly_normal=True,
        construction={
            "name": "genus2",
            "c": c,
            "p": p,
            "f_coeffs": [int(x) for x in f_raw],
        },
    )
    return _certify(v, seed=2)


# ------------------------------------------------------------------ projections


def project(v: ParamVariety, center: ProjectionCenter) -> ParamVariety:
    """Linear projection of `v` away from `center`; the image must stay
    nondegenerate of the same dimension and degree (certified, not assumed)."""
    if center.ambient != v.amb:
        raise ValueError("center lives in a different ambient space")
    center.validate(v.field)
    if not center.dim < v.amb - v.n - 1:
        raise ValueError("center too large: image could not stay nondegenerate")
    fld = v.field
    ann = null_space(Matrix.from_rows(fld, [list(b) for b in center.basis]))
    new_amb = v.amb - center.dim - 1
    assert len(ann) == new_amb + 1
    new_coords = []
    for row in ann:
        acc = MPoly.zero(fld, v.coords[0].nvars)
        for coeff, cpoly in zip(row, v.coords):
            if coeff != 0:
                acc = acc + cpoly * coeff
        new_coords.append(acc)
    if isinstance(v.domain, ProjectiveDomain) and v.domain.is_curve_line():
        # a common factor of the composed coordinates means the center meets
        # the curve (degree would silently drop)
        gcd = []
        for cpoly in new_coords:
            unis = [fld.raw(0)] * (max(cpoly.degree(), 0) + 1)
            for (es, et), coeff in cpoly.terms.items():
                unis[et] = coeff
            gcd = _poly_gcd(fld, gcd, _poly_trim(unis)) if gcd else _poly_trim(list(unis))
        tops = [
            cpoly.terms.get((0, cpoly.degree()), fld.raw(0)) for cpoly in new_coords
        ]
        if _poly_deg(gcd) > 0 or all(t == 0 for t in tops):
            raise ProjectionError(f"{v.label}: projection center meets the curve")
    out = ParamVariety(
        label=f"{v.label}/proj{center.dim}",
        n=v.n,
        amb=new_amb,
        d=v.d,
        g=v.g,
        fld=fld,
        coords=new_coords,
        domain=v.domain,
        linearly_normal=False,
        construction={
            "name": "project",
            "base": v.construction,
            "center": [[int(x) if fld.is_prime_field else str(x) for x in b] for b in center.basis],
            "seed": v.construction.get("seed", 0),
        },
    )
    try:
        return _certify(out, seed=13)
    except VerificationError as err:
        raise ProjectionError(
            f"{v.label}: center meets the secant locus ({err})"
        ) from err


def project_from_general_point(v: ParamVariety, seed: int = 0) -> ParamVariety:
    """Projection from a random point, retried until certification passes."""
    rng = random.Random(("general-point", v.label, seed).__repr__())
    last: Optional[Exception] = None
    for _ in range(16):
        vec = [_rand_scalar(v.field, rng) for _ in range(v.amb + 1)]
        if all(x == 0 for x in vec):
            continue
        try:
            return project(v, ProjectionCenter(v.amb, (tuple(int(x) if v.field.is_prime_field else x for x in vec),)))
        except ConstructionError as err:
            last = err
    raise ProjectionError(f"no usable general projection point found: {last}")


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
    last: Optional[Exception] = None
    for attempt in range(12):
        rng = random.Random(("multisecant", c, k, g, p, seed, attempt).__repr__())
        stream = source.domain.parameter_stream(fld, rng.randrange(1 << 30))
        params = list(itertools.islice(stream, npts))
        pts = [source.eval_params(q) for q in params]
        if rank(Matrix.from_rows(fld, [list(x) for x in pts])) != npts:
            last = ConstructionError("secant points not independent")
            continue
        combo = [[rng.randrange(1, p) for _ in range(npts)] for _ in range(ncenter)]
        basis = []
        for row in combo:
            vec = [0] * (source.amb + 1)
            for coeff, pt in zip(row, pts):
                for i, x in enumerate(pt):
                    vec[i] = (vec[i] + coeff * x) % p
            basis.append(tuple(vec))
        bmat = Matrix.from_rows(fld, [list(b) for b in basis])
        if rank(bmat) != ncenter:
            last = ConstructionError("center basis degenerate")
            continue
        # no chosen point may sit inside the center (they must survive to
        # pairwise-distinct points of the secant line)
        if any(
            rank(Matrix.from_rows(fld, [list(b) for b in basis] + [list(pt)]))
            == ncenter
            for pt in pts
        ):
            last = ConstructionError("a secant point fell into the center")
            continue
        try:
            out = project(source, ProjectionCenter(source.amb, tuple(basis)))
        except ConstructionError as err:
            last = err
            continue
        # certify the multisecant line: the chosen points map to >= k-g
        # distinct collinear points
        ann = null_space(bmat)
        images = []
        for pt in pts:
            img = tuple(_dot(fld, row, pt) for row in ann)
            images.append(img)
        keys = {_normalize_key(fld, img) for img in images}
        img_rank = rank(Matrix.from_rows(fld, [list(i) for i in images]))
        if len(keys) != npts or img_rank != 2:
            last = ConstructionError("secant-line certificate failed")
            continue
        out.label = f"multisecant(c={c},k={k},g={g})"
        out.construction = {
            "name": "multisecant",
            "c": c,
            "k": k,
            "g": g,
            "p": p,
            "seed": seed,
            "attempt": attempt,
        }
        return out
    raise ConstructionError(
        f"multisecant_projection(c={c},k={k},g={g}) failed after retries: {last}"
    )


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
        for attempt in range(16):
            h = [_rand_scalar(fld, rng) for _ in range(v.amb + 1)]
            # h = u A(s,t) + v B(s,t); the fiber over [s:t] is cut at
            # [u:v] = [B : -A]
            acoef = [h[i] for i in range(a + 1)]
            bcoef = [h[a + 1 + j] for j in range(b + 1)]
            at, bt = _poly_trim(list(acoef)), _poly_trim(list(bcoef))
            if not at or not bt:
                continue
            if _poly_deg(_poly_gcd(fld, at, bt)) > 0:
                continue
            beta = [fld.raw(x) for x in bcoef]
            alpha = [fld.neg(fld.raw(x)) for x in acoef]
            coords = []
            bpoly = _homogenize(fld, beta, b)
            apoly = _homogenize(fld, alpha, a)
            for i in range(a + 1):
                coords.append(bpoly * MPoly(fld, 2, {(a - i, i): 1}))
            for j in range(b + 1):
                coords.append(apoly * MPoly(fld, 2, {(b - j, j): 1}))
            # drop a coordinate with nonzero hyperplane coefficient: an iso
            # from the hyperplane onto P^{amb-1}
            drop = next(i for i, x in enumerate(h) if x != 0)
            kept = [cp for i, cp in enumerate(coords) if i != drop]
            try:
                out = ParamVariety(
                    label=f"{v.label}|H",
                    n=1,
                    amb=v.amb - 1,
                    d=v.d,
                    g=0,
                    fld=fld,
                    coords=kept,
                    domain=ProjectiveDomain((2,)),
                    linearly_normal=True,
                    construction={"name": "scroll_hyperplane_section", "a": a, "b": b, "seed": seed, "attempt": attempt},
                )
                return _certify(out, seed=seed + attempt)
            except ConstructionError:
                continue
        raise ConstructionError(f"no transverse hyperplane section found for {v.label}")
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
        out = ParamVariety(
            label=f"{v.label}|H",
            n=1,
            amb=4,
            d=4,
            g=0,
            fld=fld,
            coords=kept,
            domain=ProjectiveDomain((2,)),
            linearly_normal=True,
            construction={"name": "veronese_conic_section", "seed": seed},
        )
        return _certify(out, seed=seed)
    raise ValueError(f"no section recipe for construction {name!r}")


# ------------------------------------------------------------------ descriptors


def from_descriptor(desc: dict) -> ParamVariety:
    """Deterministically rebuild a variety from its descriptor JSON."""
    fld: Field = QQ if desc["field"] == "Q" else PrimeField(int(desc["field"]))
    return _build(desc["construction"], fld)


def _build(cons: dict, fld: Field) -> ParamVariety:
    name = cons["name"]
    if name == "rnc":
        return rational_normal_curve(cons["r"], fld)
    if name == "scroll":
        return scroll_surface(cons["a"], cons["b"], fld)
    if name == "veronese":
        return veronese_surface(fld)
    if name == "scroll_section":
        return scroll_section_curve(cons["a"], cons["b"], cons["k"], fld, cons.get("seed", 0))
    if name == "elliptic":
        return elliptic_normal_curve(cons["c"], cons["p"], tuple(cons["weierstrass"]))
    if name == "genus2":
        return hyperelliptic_g2_curve(cons["c"], cons["p"], cons["f_coeffs"])
    if name == "multisecant":
        return multisecant_projection(cons["c"], cons["k"], cons["g"], cons["p"], cons.get("seed", 0))
    if name == "project":
        base = _build(cons["base"], fld)
        basis = tuple(
            tuple(int(x) if fld.is_prime_field else Fraction(str(x)) for x in b)
            for b in cons["center"]
        )
        return project(base, ProjectionCenter(base.amb, basis))
    if name == "scroll_hyperplane_section":
        return linear_section_curve(scroll_surface(cons["a"], cons["b"], fld), cons["seed"])
    if name == "veronese_conic_section":
        return linear_section_curve(veronese_surface(fld), cons["seed"])
    raise ValueError(f"unknown construction {name!r}")
