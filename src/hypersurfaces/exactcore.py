"""Exact fields, dense matrix rank/kernel, and sparse multivariate polynomials.

Two ground fields are supported: arbitrary-precision rationals and prime
fields GF(p).  Field elements are raw Python values (Fractions over Q,
residues in [0, p) over GF(p)); the field objects do the arithmetic.

There is one pure-Python elimination, the incremental `Echelon`: monic rows
over GF(p), and fraction-free primitive integer rows over Q.  `rank` uses it
for Q and for 62-bit primes, and a vectorised int64 numpy elimination for
p < 2^31; `null_space` back-substitutes in it.  Pivoting is deterministic
(first nonzero) and no floating point is used anywhere.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "FieldMismatchError",
    "QQ",
    "PrimeField",
    "RationalField",
    "Matrix",
    "MPoly",
    "monomials",
    "binomial",
    "rank",
    "Echelon",
    "poly_eval",
    "poly_diff",
]

# numpy elimination needs p*p to fit in int64.
_NUMPY_PRIME_LIMIT = 1 << 31
_PRIME_LIMIT = 1 << 62
_PRIMALITY_CHECK_LIMIT = 1 << 31


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
    """GF(p) with residues stored in [0, p).

    Primality is verified at construction for p < 2^31; larger moduli (up
    to 62 bits) must be vouched for with ``trust_prime=True``.
    """

    is_prime_field = True

    def __init__(self, p: int, trust_prime: bool = False):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {p!r}")
        if p >= _PRIME_LIMIT:
            raise ValueError(f"modulus {p} exceeds the 62-bit cap")
        if p < _PRIMALITY_CHECK_LIMIT:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        elif not trust_prime:
            raise ValueError(
                f"modulus {p} is above the primality-check limit; "
                "pass trust_prime=True to accept it unverified"
            )
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


def _rank_modp_numpy(rows: list, p: int) -> int:
    """Row rank over GF(p) by vectorised elimination; needs p < 2^31."""
    if not rows or not rows[0]:
        return 0
    a = np.array(rows, dtype=np.int64) % p
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])  # first nonzero in column order
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = (a[r, c:] * inv) % p
        below = a[r + 1 :, c]
        mask = below != 0
        if mask.any():
            a[r + 1 :, c:][mask] = (
                a[r + 1 :, c:][mask] - np.outer(below[mask], a[r, c:])
            ) % p
        r += 1
        if r == nrows:
            break
    return r


def rank(m: Matrix) -> int:
    """Row rank of `m` over its field."""
    if m.rows == 0 or m.cols == 0:
        return 0
    f = m.field
    if f.is_prime_field and f.p < _NUMPY_PRIME_LIMIT:
        return _rank_modp_numpy(m.raw_rows(), f.p)
    return len(Echelon(f, m.raw_rows()))


def _integer_row(vec: Sequence) -> list:
    """A rational vector scaled by the lcm of its denominators."""
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
        f = self.field
        if f.is_prime_field:
            inv = f.inv(v[c])
            self.rows.append(tuple(f.mul(a, inv) for a in v))
        else:
            g = math.gcd(*v) if v[c] > 0 else -math.gcd(*v)
            self.rows.append(tuple(a // g for a in v))
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
    out = []

    def rec(prefix: tuple, remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), m, v)
    return out


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

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {exp: 1})

    @classmethod
    def monomial(cls, field: Field, exp: Sequence[int], coeff=1) -> "MPoly":
        exp = tuple(exp)
        return cls(field, len(exp), {exp: coeff})

    def is_zero(self) -> bool:
        return not self.terms

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

    def scale(self, c) -> "MPoly":
        return self * c

    def eval(self, point: Sequence):
        return poly_eval(self, point)

    def diff(self, var: int) -> "MPoly":
        return poly_diff(self, var)

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
    """Exact raw value of f at `point` (length must equal nvars)."""
    if len(point) != f.nvars:
        raise ValueError(f"point length {len(point)} != nvars {f.nvars}")
    fld = f.field
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
