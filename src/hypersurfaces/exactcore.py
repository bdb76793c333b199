"""Exact fields, dense matrix rank/kernel, and sparse multivariate polynomials.

Two ground fields are supported: arbitrary-precision rationals and prime
fields GF(p).  Field elements are raw Python values (Fractions over Q,
residues in [0, p) over GF(p)); the field objects do the arithmetic.

There is one pure-Python elimination, the incremental `Echelon`: monic rows
over GF(p), and fraction-free primitive integer rows over Q.  Prime fields
take only p < 2^31, so `rank` ranks every one of them by a vectorised int64
numpy elimination, and uses `Echelon` for Q.  That elimination also takes
int64 arrays directly, and reports which columns it found independent: a
`monomial_products` array (the products of chosen degree-(m-1) monomials
with a variable at an array of points; every degree-m monomial when all
degree-(m-1) ones are chosen), or the transposed tangent rows of a
Terracini trial, whose pivots are the rows independent of all earlier
ones.  `MPolyArray` is the one evaluator of a list of MPolys at many
points, as `poly_eval` does at one point: Terracini's tangent rows and the
coordinates of a variety at the points a job needs.  Over GF(p) it works
on int64 arrays of residues.  Over Q it clears the polynomials of one
common denominator and evaluates them in Python ints at integer points, in
numpy object arrays, so the rows built from the values go into `Echelon`
as integer rows, and no Fraction arithmetic is done.  It and
`monomial_products` evaluate monomials the same way over both fields, as
products of per-variable power tables, reduced mod p over GF(p) only.
`poly_eval`, their per-point reference, serves only `MPoly.eval`; what is
still per point is `monomial_values`, for the ranks of a surface over GF(p)
and of a point set.  `null_space` back-substitutes in the echelon.
Pivoting is deterministic (first nonzero) and no floating point is used
anywhere.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "FieldMismatchError",
    "QQ",
    "PrimeField",
    "RationalField",
    "Matrix",
    "MPoly",
    "MPolyArray",
    "monomials",
    "monomial_products",
    "binomial",
    "rank",
    "Echelon",
    "poly_eval",
    "poly_diff",
]

# the bound on prime fields: the numpy elimination needs p*p to fit in int64
_NUMPY_PRIME_LIMIT = 1 << 31
# MPolyArray sums products of residues below 2^31 with 16-bit halves of the
# coefficients: up to 2^15 terms keep each sum below 2^63
_MONOMIAL_LIMIT = 1 << 15


class FieldMismatchError(ValueError):
    """Raised when values from different fields meet in one operation."""


def binomial(a: int, b: int) -> int:
    """Binomial coefficient with C(a,b) = 0 whenever b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of arbitrary-precision rationals (a singleton, use QQ)."""

    is_prime_field = False

    def raw(self, value) -> Fraction:
        """Coerce to the internal representation (Fraction keeps lowest
        terms and a positive denominator)."""
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return Fraction(1) / a

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")


QQ = RationalField()


class PrimeField:
    """GF(p) with residues stored in [0, p), for a prime p < 2^31 (checked
    at construction), so that every prime field runs on the int64 kernel.
    """

    is_prime_field = True

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {p!r}")
        if p >= _NUMPY_PRIME_LIMIT:
            raise ValueError(f"modulus {p} is too large: prime fields need p < 2^31")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def raw(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.raw(value.numerator) * self.inv(self.raw(value.denominator)) % self.p
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))


Field = Union[RationalField, PrimeField]


def _same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"mixed fields {a!r} and {b!r}")


class Matrix:
    """Dense matrix over one exact field, row-major and immutable, with raw
    entries (ints or Fractions)."""

    __slots__ = ("field", "rows", "cols", "_data")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"entry count {len(entries)} does not match {rows}x{cols}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self._data = tuple(map(field.raw, entries))

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(field, nrows, ncols, flat)

    def raw_rows(self) -> list:
        c = self.cols
        return [list(self._data[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def _pivots_modp_numpy(rows, p: int) -> np.ndarray:
    """Pivot columns of a row echelon form over GF(p), by vectorised
    elimination; needs p < 2^31.  The columns it returns are independent
    and their number is the rank.  On an input that is not wide (no more
    columns than rows) they are the column rank profile: each returned
    column is independent of the columns before it, and each skipped one
    depends on them.  On a wide input they are only some independent set:
    the columns (0,1), (0,2), (1,0), (1,1) give [1, 2], not the profile
    [0, 2].

    `rows` is a list of integer rows or an int64 array; the array is read,
    never written.  The loop runs over the shorter side: a wide matrix is
    eliminated as its transpose, and the rows that become pivots there,
    tracked through the row swaps, are the independent columns.  Each step
    subtracts less than p^2 from an entry, so the trailing block is reduced
    mod p only when `slack` more steps could leave int64; the pivot column
    and row are reduced as they are used.
    """
    a = np.asarray(rows, dtype=np.int64) % p
    if a.size == 0:
        return np.zeros(0, dtype=np.intp)
    wide = a.shape[1] > a.shape[0]
    if wide:
        a = np.ascontiguousarray(a.T)
    nrows, ncols = a.shape
    order = list(range(nrows))  # order[i]: the input row now at row i
    pivots = []
    steps = slack = (np.iinfo(np.int64).max - p) // (p - 1) ** 2
    r = 0
    for c in range(ncols):
        if steps == 0:
            a[r:, c:] %= p
            steps = slack
        col = a[r:, c]
        col %= p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])  # first nonzero in column order
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            order[r], order[piv] = order[piv], order[r]
        row = a[r, c:]
        row %= p
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        a[r + 1 :, c:] -= a[r + 1 :, c, None] * row
        steps -= 1
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # the first r rows span what input rows order[:r] span, and are independent
    return np.array(sorted(order[:r]) if wide else pivots, dtype=np.intp)


def rank(m: Matrix) -> int:
    """Row rank of `m` over its field."""
    if m.rows == 0 or m.cols == 0:
        return 0
    f = m.field
    if f.is_prime_field:
        return len(_pivots_modp_numpy(m.raw_rows(), f.p))
    return len(Echelon(f, m.raw_rows()))


def _integer_row(vec: Sequence) -> list:
    """A rational vector scaled by the lcm of its denominators."""
    if all(type(x) is int for x in vec):
        return list(vec)
    den = 1
    for x in vec:
        if isinstance(x, Fraction):
            den = den * x.denominator // math.gcd(den, x.denominator)
        elif not isinstance(x, int):
            raise TypeError(f"cannot coerce {x!r} into QQ")
    return [
        x.numerator * (den // x.denominator) if isinstance(x, Fraction) else x * den
        for x in vec
    ]


class Echelon:
    """Row echelon basis over one field that grows one raw vector at a time.

    Over GF(p) each stored row has a 1 at its pivot column.  Over Q it is a
    primitive integer row (content 1, positive pivot): a vector is reduced
    by cross-multiplying with gcd-reduced multipliers, so, as in Bareiss's
    fraction-free elimination, no Fraction arithmetic is done.  Each row has
    a 0 at the pivot of every earlier row, so reducing a vector against the
    rows in insertion order clears all pivots.  `add` keeps a nonzero
    remainder as a new row; `contains` is the membership test that `rank`
    cannot give.  The number of rows is the rank of everything added.
    """

    __slots__ = ("field", "rows", "pivots")

    def __init__(self, field: Field, vectors: Iterable[Sequence] = ()):
        self.field = field
        self.rows: list = []
        self.pivots: list = []
        for vec in vectors:
            self.add(vec)

    def __len__(self) -> int:
        return len(self.rows)

    def copy(self) -> "Echelon":
        out = Echelon(self.field)
        out.rows = list(self.rows)  # rows are tuples, never changed once stored
        out.pivots = list(self.pivots)
        return out

    def _remainder(self, vec: Sequence) -> list:
        prime = self.field.is_prime_field
        if prime:
            raw = self.field.raw
            v = [raw(x) for x in vec]
        else:
            v = _integer_row(vec)
        if self.rows and len(v) != len(self.rows[0]):
            raise ValueError(f"vector length {len(v)} != {len(self.rows[0])}")
        if prime:
            p = self.field.p
            for row, c in zip(self.rows, self.pivots):
                f = v[c]
                if f:
                    v = [(a - f * b) % p for a, b in zip(v, row)]
        else:
            gcd = math.gcd
            for row, c in zip(self.rows, self.pivots):
                f = v[c]
                if f:
                    g = gcd(f, row[c])
                    f, h = f // g, row[c] // g
                    v = [h * a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        """True when `vec` lies in the span of the rows."""
        return not any(self._remainder(vec))

    def add(self, vec: Sequence) -> bool:
        """Append `vec` to the basis; False (basis unchanged) if it is
        already in the span."""
        v = self._remainder(vec)
        c = next((j for j, a in enumerate(v) if a), None)
        if c is None:
            return False
        # rows are built as lists: a tuple grown from a generator is resized
        # to its length, and when freed it joins a free list (lengths below
        # 20) that only fresh tuples of that length draw from, so it stays
        # allocated
        f = self.field
        if f.is_prime_field:
            inv = f.inv(v[c])
            self.rows.append(tuple([f.mul(a, inv) for a in v]))
        else:
            g = math.gcd(*v) if v[c] > 0 else -math.gcd(*v)
            self.rows.append(tuple([a // g for a in v]))
        self.pivots.append(c)
        return True


def null_space(m: Matrix) -> list:
    """Canonical basis of the right kernel {x : m x = 0}, as raw row vectors.

    One basis vector per free column, in increasing column order; entry at
    the free column is 1 and the other free entries are 0, which fixes the
    vector (it is what the reduced row echelon form gives).  Deterministic,
    so downstream constructions that depend on the choice of complement
    are reproducible.
    """
    f = m.field
    ech = Echelon(f, m.raw_rows())
    # back substitution, from the last pivot up
    steps = sorted(zip(ech.pivots, ech.rows), reverse=True)
    free = sorted(set(range(m.cols)) - set(ech.pivots))
    basis = []
    for fc in free:
        v = [f.raw(0)] * m.cols
        v[fc] = f.raw(1)
        for c, row in steps:
            s = f.raw(sum(row[j] * v[j] for j in range(c + 1, m.cols) if v[j]))
            v[c] = f.neg(f.mul(s, f.inv(f.raw(row[c]))))
        basis.append(v)
    return basis


def monomials(v: int, m: int) -> list:
    """All degree-m exponent vectors in v variables, graded-lex order.

    Within the fixed degree m the order is lexicographic descending on the
    exponent vector, e.g. (3,0), (2,1), (1,2), (0,3) for v=2, m=3; the list
    has length C(v-1+m, m).  This order is the single global convention for
    evaluation-matrix columns and quadratic-embedding coordinates.
    """
    if v < 1:
        raise ValueError("need at least one variable")
    if m < 0:
        raise ValueError("degree must be nonnegative")
    # one variable at a time: each prefix with the degree it leaves, the
    # next exponent descending
    prefixes = [((), m)]
    for _ in range(v - 1):
        prefixes = [(pre + (e,), rem - e) for pre, rem in prefixes for e in range(rem, -1, -1)]
    return [pre + (rem,) for pre, rem in prefixes]


@functools.lru_cache(maxsize=None)
def _monomial_plan(v: int, m: int) -> tuple:
    """Build steps for the degree-1..m monomial levels in v variables.

    Level k lists, for each degree-k monomial in monomials() order, the
    index of its parent in level k-1 and the variable that multiplies it
    (the first one with a positive exponent).
    """
    monomials(v, m)  # argument checks
    prev = {(0,) * v: 0}
    plan = []
    for deg in range(1, m + 1):
        level = monomials(v, deg)
        steps = []
        for e in level:
            i = next(k for k, ek in enumerate(e) if ek > 0)
            steps.append((prev[e[:i] + (e[i] - 1,) + e[i + 1 :]], i))
        plan.append(tuple(steps))
        prev = {e: k for k, e in enumerate(level)}
    return tuple(plan)


@functools.lru_cache(maxsize=None)
def _product_plan(v: int, m: int) -> tuple:
    """(exponents, products) for degree m >= 1 in v variables: the exponent
    vectors of the degree-(m-1) monomials, a row each in monomials() order,
    and at [j, i] the index in monomials(v, m) of x_i times monomial j."""
    lower = monomials(v, m - 1)
    where = {e: k for k, e in enumerate(monomials(v, m))}
    products = np.array(
        [[where[e[:i] + (e[i] + 1,) + e[i + 1 :]] for i in range(v)] for e in lower],
        dtype=np.intp,
    )
    exponents = np.array(lower, dtype=np.intp)
    exponents.setflags(write=False)  # cached and shared
    products.setflags(write=False)
    return exponents, products


def monomial_products(
    points: np.ndarray, basis: np.ndarray, m: int, p: Optional[int] = None
) -> tuple:
    """Values of the distinct products x_i * mu, for every variable x_i and
    every degree-(m-1) monomial mu in `basis` (indices into monomials()),
    at every row of `points`: an int64 residue array over GF(p), p < 2^31,
    or, for p None, an object array of Python ints, with no reduction.

    Returns (values, index): a row per point and a column per product, and
    the products' indices into monomials(v, m), ascending.  Each mu is
    evaluated as a product of powers, each x_i * mu as one product more.
    """
    exponents, products = _product_plan(points.shape[1], m)
    index, first = np.unique(products[basis].ravel(), return_index=True)
    mu, var = np.divmod(first, points.shape[1])
    vals = _power_products(points, exponents[basis], p)
    return _reduce(vals[mu] * points.T[var], p).T, index


def _reduce(a: np.ndarray, p: Optional[int]) -> np.ndarray:
    """`a` modulo p, or `a` itself for p None (integers over Q)."""
    return a if p is None else a % p


def _power_products(points: np.ndarray, exponents: np.ndarray, p: Optional[int]) -> np.ndarray:
    """Values of the monomials with the given exponent rows at every row of
    `points`, as `monomial_products` takes them: a row per monomial, a
    column per point.  Each is a product of powers taken from one power
    table per variable."""
    vals = np.ones((len(exponents), len(points)), dtype=points.dtype)
    for i, x in enumerate(points.T):
        powers = [np.ones_like(x)]
        for _ in range(int(exponents[:, i].max(initial=0))):
            powers.append(_reduce(powers[-1] * x, p))
        vals = _reduce(vals * np.stack(powers)[exponents[:, i]], p)
    return vals


def monomial_values(field: Field, point: Sequence, m: int) -> list:
    """Values of all degree-m monomials at `point`, aligned with monomials().

    Computed level by level (each monomial is a variable times a lower-degree
    one) from a cached plan, so the cost is one multiplication per entry.
    """
    pt = [field.raw(x) for x in point]
    mul = field.mul
    vals = [field.raw(1)]
    for steps in _monomial_plan(len(pt), m):
        vals = [mul(vals[j], pt[i]) for j, i in steps]
    return vals


class MPoly:
    """Sparse multivariate polynomial with exact coefficients.

    Terms map exponent tuples (length nvars) to nonzero raw coefficients.
    Instances are treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for exp, coeff in dict(terms).items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != nvars or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp}")
                c = field.raw(coeff)
                if c != 0:
                    clean[exp] = c
        self.terms = clean

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "MPoly":
        return cls(field, nvars)

    @classmethod
    def constant(cls, field: Field, nvars: int, c) -> "MPoly":
        return cls(field, nvars, {(0,) * nvars: c})

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def _check(self, other: "MPoly") -> None:
        _same_field(self.field, other.field)
        if self.nvars != other.nvars:
            raise ValueError("operand variable counts differ")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        f = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(terms.get(e, f.raw(0)), c)
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        out = MPoly.zero(f, self.nvars)
        out.terms = terms
        return out

    def __neg__(self) -> "MPoly":
        f = self.field
        out = MPoly.zero(f, self.nvars)
        out.terms = {e: f.neg(c) for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        f = self.field
        if not isinstance(other, MPoly):
            c = f.raw(other)
            out = MPoly.zero(f, self.nvars)
            if c != 0:
                out.terms = {e: f.mul(v, c) for e, v in self.terms.items()}
            return out
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(terms.get(e, f.raw(0)), f.mul(c1, c2))
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = MPoly.zero(f, self.nvars)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def eval(self, point: Sequence):
        return poly_eval(self, point)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (-sum(t), tuple(-x for x in t))):
            mono = "*".join(
                f"x{i}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k > 0
            )
            bits.append(f"{self.terms[e]}{'*' + mono if mono else ''}")
        return "MPoly(" + " + ".join(bits) + ")"


def poly_eval(f: MPoly, point: Sequence):
    """Exact raw value of f at `point` (length must equal nvars), the point
    coerced into the field: the per-point reference that `MPolyArray`
    evaluates the same as, many points at a time."""
    fld = f.field
    if len(point) != f.nvars:
        raise ValueError(f"point length {len(point)} != nvars {f.nvars}")
    pt = [fld.raw(x) for x in point]
    total = fld.raw(0)
    for exp, coeff in f.terms.items():
        v = coeff
        for x, e in zip(pt, exp):
            if e:
                v = fld.mul(v, pow(x, e) if not fld.is_prime_field else pow(x, e, fld.p))
        total = fld.add(total, v)
    return total


def poly_diff(f: MPoly, var: int) -> MPoly:
    """Formal partial derivative of f with respect to variable `var`."""
    if not 0 <= var < f.nvars:
        raise ValueError("variable index out of range")
    fld = f.field
    terms = {}
    for exp, coeff in f.terms.items():
        e = exp[var]
        if e == 0:
            continue
        nexp = exp[:var] + (e - 1,) + exp[var + 1 :]
        c = fld.mul(coeff, fld.raw(e))
        if c != 0:
            terms[nexp] = fld.add(terms.get(nexp, fld.raw(0)), c)
    out = MPoly.zero(fld, f.nvars)
    out.terms = {e: c for e, c in terms.items() if c != 0}
    return out


class MPolyArray:
    """MPolys over one field evaluated together at many points: the
    column-wise counterpart of `poly_eval`.

    The distinct monomials of all the polynomials are evaluated once per
    point from per-variable power tables, and their values are combined by
    one product with the coefficient matrix.  Over GF(p), p < 2^31, the
    points are int64 residues, and the coefficients are split into 16-bit
    halves, so each sum stays in int64 for up to `_MONOMIAL_LIMIT` distinct
    monomials.  Over Q the polynomials are cleared of one common
    denominator D, which `terms` holds as integer coefficients by exponent
    vector, and are evaluated in Python ints at integer points: each value
    is D times the polynomial's, so a row of products of k values is D^k
    times its rational row, and ranks are unchanged without any Fraction
    arithmetic.
    """

    __slots__ = ("p", "nvars", "terms", "exponents", "coeffs")

    def __init__(self, polys: Sequence[MPoly]):
        if not polys:
            raise ValueError("need at least one polynomial")
        fld, nvars = polys[0].field, polys[0].nvars
        for f in polys:
            _same_field(fld, f.field)
            if f.nvars != nvars:
                raise ValueError("polynomial variable counts differ")
        if fld.is_prime_field:
            self.p, self.terms = fld.p, [f.terms for f in polys]
        else:
            scaled = iter(_integer_row([c for f in polys for c in f.terms.values()]))
            self.p, self.terms = None, [{e: next(scaled) for e in f.terms} for f in polys]
        exps = sorted({e for t in self.terms for e in t})
        if self.p and len(exps) > _MONOMIAL_LIMIT:
            raise ValueError(
                f"array evaluation takes at most {_MONOMIAL_LIMIT} distinct monomials, "
                f"got {len(exps)}"
            )
        where = {e: k for k, e in enumerate(exps)}
        coeffs = np.zeros((len(exps), len(polys)), dtype=np.int64 if self.p else object)
        for j, t in enumerate(self.terms):
            for e, c in t.items():
                coeffs[where[e], j] = c
        self.nvars = nvars
        self.exponents = np.array(exps, dtype=np.intp).reshape(len(exps), nvars)
        self.coeffs = coeffs

    def __call__(self, points: Sequence) -> np.ndarray:
        """Values at every point, a row each: a row per point, a column per
        polynomial.  Over GF(p) an int64 array of residues; over Q an object
        array of Python ints, D times the values at integer points."""
        p = self.p
        points = np.asarray(points, dtype=np.int64 if p else object)
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise ValueError(f"points must be an array of {self.nvars}-vectors")
        vals = _power_products(points, self.exponents, p).T
        if p is None:
            return vals @ self.coeffs
        return ((vals @ (self.coeffs >> 16) % p << 16) + vals @ (self.coeffs & 0xFFFF)) % p
