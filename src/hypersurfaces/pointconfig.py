"""Finite point configurations in projective space over an exact field.

A PointConfig holds pairwise-distinct points of P^c with canonically
normalised homogeneous coordinates.  It answers the questions that drive
everything else: how many degree-m forms vanish on the set (via the rank of
the degree-m forms' values at the points), how regular the set is, whether
it sits in linear (semi-)uniform position, and, constructively, how to
extract a spanning 3-regular subset of 2c+1 points from a larger
semi-uniform set.

The span and the extraction's spanning check rank the coordinates with
`exactcore.pivots`; the Hilbert function carries each degree's
`exactcore.span_basis` to the next, as a variety's counts do.

Both subset searches walk one generator, `_independent_subsets`: a
depth-first search in lexicographic index order that carries each prefix's
`Echelon` down to its extensions and never extends a dependent prefix.  The
nu-vector walks the point coordinates and tests each other point by one
reduction against the subset's echelon; the extraction walks the degree-2
`monomial_products` of the points.  Both are exponential in their number.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .exactcore import (QQ, Echelon, Field, PrimeField, _integer_row, binomial,
                        monomial_products, pivots, span_basis)

__all__ = [
    "PointConfig",
    "NuVector",
    "ExtractionError",
    "extract_three_regular",
]

NU_SIZE_CAP = 16


class ExtractionError(RuntimeError):
    """Search for a certified spanning 3-regular subset came up empty."""


@dataclass(frozen=True)
class NuVector:
    """Span-occupancy counts nu(0..c-1) and the semi-uniformity verdict.

    values[i] is the common number of configuration points on the span of
    any linearly independent (i+1)-subset.  None means the counts were not
    constant, or that no (i+1)-subset is independent (one point of P^2
    gives (1, None)); either way semi_uniform is False.
    """

    values: tuple
    semi_uniform: bool


def _normalize(field: Field, vec) -> tuple:
    """`vec` coerced into `field` and scaled so its first nonzero entry is
    1; a vector already so scaled is only coerced."""
    raw = [field.raw(v) for v in vec]
    lead = next((v for v in raw if v != 0), None)
    if lead is None:
        raise ValueError("zero vector is not a projective point")
    if lead == 1:
        return tuple(raw)
    inv = field.inv(lead)
    return tuple([field.mul(v, inv) for v in raw])


class PointConfig:
    """Distinct points of P^c; immutable after construction.

    Coordinates are normalised so the first nonzero entry is 1; repeated
    points and zero vectors are rejected outright rather than cleaned.
    """

    __slots__ = ("field", "c", "points")

    def __init__(self, field: Field, vectors):
        pts = []
        seen = set()
        length = None
        for vec in vectors:
            vec = list(vec)
            if length is None:
                length = len(vec)
                if length < 2:
                    raise ValueError("ambient dimension must be at least 1")
            elif len(vec) != length:
                raise ValueError("points have inconsistent coordinate lengths")
            norm = _normalize(field, vec)
            if norm in seen:
                raise ValueError(f"repeated projective point {norm}")
            seen.add(norm)
            pts.append(norm)
        if not pts:
            raise ValueError("a point configuration must be nonempty")
        self.field = field
        self.c = length - 1
        self.points = tuple(pts)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointConfig)
            and self.field == other.field
            and self.points == other.points
        )

    def __repr__(self) -> str:
        return f"PointConfig({len(self.points)} points in P^{self.c} over {self.field!r})"

    # ------------------------------------------------------------ geometry

    def span_dim(self) -> int:
        """Dimension of the projective span."""
        return len(pivots(self.field, self.points)) - 1

    def _bases(self) -> Iterator[np.ndarray]:
        """The exponent rows of a basis of the degree-m forms restricted to
        the points, for m = 0, 1, 2, ...: the constant, then each degree's
        `span_basis` of the one before, as counts carry theirs."""
        points = _point_array(self)
        basis = np.zeros((1, self.c + 1), dtype=np.intp)
        while True:
            yield basis
            basis = span_basis(self.field, points, basis)

    def hilbert(self, m: int) -> int:
        """Hilbert function value: the rank of the degree-m forms' values at
        the points."""
        if m < 0:
            raise ValueError("degree must be nonnegative")
        return len(next(itertools.islice(self._bases(), m, None)))

    def h0_ideal(self, m: int) -> int:
        """Number of independent degree-m forms vanishing on the set."""
        if m < 1:
            raise ValueError("degree must be at least 1")
        return binomial(self.c + m, m) - self.hilbert(m)

    def hilbert_function(self) -> list:
        """[hilbert(0), ..., hilbert(r-1)] for r the regularity: the values up
        to the first that reaches |G|, which degree |G|-1 does.  Every later
        value is |G| as well, since a form separating a point times a linear
        form not vanishing there separates it one degree up."""
        values = []
        for basis in self._bases():
            values.append(len(basis))
            if values[-1] == len(self.points):
                return values

    def regularity(self) -> int:
        """Least r >= 1 such that degree-(r-1) forms separate the points."""
        return len(self.hilbert_function())

    def separates_point(self, p_index: int, m: int) -> bool:
        """True when some degree-m form vanishes on all points but the chosen one."""
        if not 0 <= p_index < len(self.points):
            raise ValueError("point index out of range")
        if m < 1:
            raise ValueError("degree must be at least 1")
        if len(self.points) == 1:
            return True
        rest = self.remove(p_index)
        return rest.h0_ideal(m) > self.h0_ideal(m)

    def subset(self, indices) -> "PointConfig":
        return PointConfig(self.field, [self.points[i] for i in indices])

    def remove(self, index: int) -> "PointConfig":
        return self.subset([i for i in range(len(self.points)) if i != index])

    # ------------------------------------------------------------ position

    def nu_vector(self, force: bool = False) -> NuVector:
        """Enumerate spans of independent (i+1)-subsets for i < c and count
        configuration points on each; the set is in linear semi-uniform
        position when it spans P^c and each count depends only on i.

        The independent subsets come from `_independent_subsets`, so each
        costs one reduction of its last point against its prefix's echelon,
        and one reduction per point outside it (its own i+1 points are on
        the span).  A dependent subset has no count, and neither has any
        subset that extends it.  A level stops at its second distinct count.
        The number of subsets is exponential in the configuration size, so
        it refuses inputs above `NU_SIZE_CAP` points unless forced.
        """
        npts = len(self.points)
        if npts > NU_SIZE_CAP and not force:
            raise ValueError(
                f"nu_vector enumerates subsets; {npts} points exceeds the cap "
                f"{NU_SIZE_CAP} (pass force=True to override)"
            )
        spans_ok = self.span_dim() == self.c
        values = []
        uniform = spans_ok
        for i in range(self.c):
            counts = set()
            for subset, span in _independent_subsets(self.field, self.points, i + 1):
                inside = set(subset)
                counts.add(i + 1 + sum(
                    1 for j, q in enumerate(self.points)
                    if j not in inside and span.contains(q)
                ))
                if len(counts) > 1:
                    break
            if len(counts) == 1:
                values.append(counts.pop())
            else:
                values.append(None)
                uniform = False
        return NuVector(tuple(values), uniform)

    # ------------------------------------------------------------ serialization

    def to_text(self) -> str:
        """Point-file format: `field p|Q`, then `c npoints`, then one point
        per line as c+1 integers interpreted in the field (over Q, the point
        scaled by the lcm of its denominators)."""
        prime = self.field.is_prime_field
        head = f"field {self.field.p}" if prime else "field Q"
        rows = [" ".join(map(str, p if prime else _integer_row(p))) for p in self.points]
        return "\n".join([head, f"{self.c} {len(self.points)}"] + rows) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PointConfig":
        """Parse the point-file format; a line that does not read as what
        its place expects raises ValueError naming the line."""
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) < 3:
            raise ValueError("point file needs a field line, a size line and points")
        head = lines[0].split()
        if len(head) != 2 or head[0] != "field" or not (head[1] == "Q" or head[1].isdecimal()):
            raise ValueError(f"field line {lines[0]!r}: expected 'field Q' or 'field <prime>'")
        try:
            field: Field = QQ if head[1] == "Q" else PrimeField(int(head[1]))
        except ValueError as err:
            raise ValueError(f"field line {lines[0]!r}: {err}") from None
        dims = _integers(lines[1])
        if dims is None or len(dims) != 2 or min(dims) < 1:
            raise ValueError(
                f"size line {lines[1]!r}: expected two integers, c >= 1 and npoints >= 1"
            )
        c, npoints = dims
        if len(lines) != 2 + npoints:
            raise ValueError(f"expected {npoints} point lines, found {len(lines) - 2}")
        vectors = []
        for ln in lines[2:]:
            coords = _integers(ln)
            if coords is None or len(coords) != c + 1:
                raise ValueError(f"point line {ln!r}: expected {c + 1} integer coordinates")
            vectors.append(coords)
        return cls(field, vectors)

    def write_text(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def read_text(cls, path) -> "PointConfig":
        with open(path) as fh:
            return cls.from_text(fh.read())


def _independent_subsets(field: Field, rows, size: int):
    """Yield (indices, echelon) for every linearly independent `size`-subset
    of `rows`, in lexicographic index order; `echelon` spans the subset's rows.

    The walk is depth first: each prefix's echelon is copied into its
    extensions, so a candidate costs one reduction, and a dependent prefix
    is never extended, since every superset of a dependent set is
    dependent.
    """
    npts = len(rows)

    def walk(start: int, chosen: tuple, span: Echelon):
        if len(chosen) == size:
            yield chosen, span
            return
        for i in range(start, npts - (size - len(chosen)) + 1):
            grown = span.copy()
            if grown.add(rows[i]):
                yield from walk(i + 1, chosen + (i,), grown)

    return walk(0, (), Echelon(field))


def _integers(line: str):
    """The whitespace-separated integers of a line, or None if a token is
    not one."""
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        return None


def _point_array(config: PointConfig) -> np.ndarray:
    """The points as `monomial_products` takes them: int64 residues over
    GF(p); over Q each point scaled by the lcm of its denominators, Python
    ints in an object array.  A scaled point is the same projective point,
    and its row of a degree-m evaluation is only scaled."""
    if config.field.is_prime_field:
        return np.array(config.points, dtype=np.int64)
    return np.array([_integer_row(p) for p in config.points], dtype=object)


def extract_three_regular(config: PointConfig) -> PointConfig:
    """Certified spanning 3-regular subset of 2c+1 points.

    Candidates are the (2c+1)-subsets whose degree-2 evaluation rows are
    independent, from `_independent_subsets` in lexicographic index order;
    a prefix whose rows are dependent is pruned there, since no superset of
    it can reach hilbert(2) = 2c+1.  Each full candidate is certified by
    that rank and the spanning check before being returned, so correctness
    never depends on the search order.  The lexicographically smallest
    certified subset wins, which keeps the result deterministic.
    """
    c = config.c
    size = 2 * c + 1
    npts = len(config.points)
    if npts < size:
        raise ValueError(f"need at least {size} points in P^{c}, have {npts}")
    if config.span_dim() != c:
        raise ValueError("configuration does not span the ambient space")
    fld = config.field
    points = _point_array(config)
    unit = np.eye(c + 1, dtype=np.intp)  # the variables, whose products are every quadric
    quadrics = monomial_products(points, unit, fld.p if fld.is_prime_field else None)[0]
    for chosen, _ in _independent_subsets(fld, quadrics.tolist(), size):
        # hilbert(2) = |subset| certifies regularity <= 3
        if len(pivots(fld, [config.points[i] for i in chosen])) == c + 1:
            result = config.subset(chosen)
            assert result.regularity() <= 3
            return result
    verdict = ""
    if npts <= NU_SIZE_CAP:
        nv = config.nu_vector()
        verdict = (
            " (the input is in linear semi-uniform position: this should not happen)"
            if nv.semi_uniform
            else " (confirmed: the input is not in linear semi-uniform position)"
        )
    raise ExtractionError(
        f"no spanning 3-regular subset of {size} points found among "
        f"{npts} points{verdict}"
    )
