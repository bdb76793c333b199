"""Secant-variety invariants of quadratic embeddings, via Terracini's lemma.

The quadratic embedding of a parametrised variety X in P^r is the image Y
of X under all C(r+2, 2) pairwise coordinate products.  The dimension s_k
of its k-th secant variety is the rank, minus 1, of the affine tangent
spaces of Y at k+1 generic points (Terracini).  One nested pass gives
every s_k: each trial draws one point sequence, builds each point's n+1
tangent rows by the chain rule from the base coordinates and their
partials along the affine chart (both computed once per embedding), and
reads the rank of the rows of its first k+1 points; s_k is the maximum
over the trials.  The rows lie in the span of Y, so they are built only at
the span_dim + 1 products x_i x_j that the base's degree-2 count keeps as
a basis (i and j read off each product's exponent row), which the span
projects onto isomorphically; every rank is kept.  One loop serves both
fields: the points are evaluated in batches by one `MPolyArray`, and the
rows are ranked in chunks, each chunk finding the rows independent of all
rows before them.  Over GF(p) the rows are int64 residues and those are
the pivots of the numpy kernel on the transposed rows.  Over Q the base
coordinates and their partials are cleared of one common denominator D and
evaluated in integers at the integer parameter points, so each row is D^2
times its rational row, and the rows go into one fraction-free `Echelon`
per trial: no Fraction arithmetic is done.  The derived data are the
deficiencies delta_k = s_{k-1} + n + 1 - s_k, the last deficiency-free
index ell_2, the filling index k_2, and the total delta^2.

Zak's span-count identity a_2(X) = delta^2 - (k_2+1)(n+1) + C(c+n+2, 2)
and its companion inequalities are consistency checks: a failure means the
samples undersampled the generic rank, so the pass adds as many trials
again before giving up.  They cannot see a rank lost inside the run of
positive deficiencies, so they do not certify every s_k.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .cohomology import a_m
from .exactcore import (
    Echelon,
    Field,
    MPolyArray,
    binomial,
    pivots,
    poly_diff,
)
from .varieties import ParamVariety, ProjectiveDomain

__all__ = [
    "QuadraticEmbedding",
    "ZakInvariants",
    "veronese_square",
    "zak_invariants",
    "expected_table2_deltas",
    "Table2Comparison",
    "table2_row",
    "TerraciniError",
    "check_terracini_field",
]

_MIN_TERRACINI_PRIME = 10**6


class TerraciniError(RuntimeError):
    """Secant ranks failed the span-count identity even after retries."""


@dataclass(frozen=True)
class QuadraticEmbedding:
    """The quadratic embedding of `base` in P^N, N = C(amb+2, 2) - 1; span_dim
    is recomputed from the exact quadric count of the base, never copied
    from metadata.  `basis` lists span_dim + 1 of the products x_i x_j
    that are independent on the base, as their exponent rows: the degree-2
    basis its count keeps.  Every tangent row of Y lies in the span of Y,
    which those columns project isomorphically, so Terracini ranks the rows
    at those columns only."""

    base: ParamVariety
    N: int
    span_dim: int
    basis: tuple

    @functools.cached_property
    def products(self) -> tuple:
        """(first, second): int arrays with x_first[k] * x_second[k] the k-th
        product of `basis`, read off its exponent row: the first and the
        last variable with a positive exponent (the same one for a square)."""
        rows = np.array(self.basis, dtype=np.intp)
        return rows.argmax(axis=1), rows.shape[1] - 1 - rows[:, ::-1].argmax(axis=1)

    @functools.cached_property
    def tangent_polys(self) -> tuple:
        """The base coordinates, then their partial derivatives by each
        parameter variable that does not open a block: n + 1 rows of amb + 1
        polynomials.  Terracini draws every block's first variable as 1, and
        the variety is the closure of that affine chart's image (as in
        `unisolvent_params`), so the cone point and the partials along the
        chart span the tangent space of the cone."""
        v = self.base
        opens = set(itertools.accumulate(v.domain.blocks[:-1], initial=0))
        return (tuple(v.coords),) + tuple(
            tuple(poly_diff(c, var) for c in v.coords)
            for var in range(v.domain.nvars)
            if var not in opens
        )

    @functools.cached_property
    def tangent_values(self) -> MPolyArray:
        """`tangent_polys`, flattened row by row, as one `MPolyArray` with a
        row per parameter point; over Q their values are times one common
        denominator D, so that each tangent row is D^2 times its row over
        Q."""
        return MPolyArray([f for row in self.tangent_polys for f in row])


def veronese_square(v: ParamVariety) -> QuadraticEmbedding:
    """Quadratic embedding of `v`; needs polynomial coordinates (point-
    enumerator curves carry no parametrization to differentiate)."""
    if not isinstance(v.domain, ProjectiveDomain):
        raise ValueError(
            f"{v.label}: quadratic embedding needs a polynomial parametrization"
        )
    n_big = binomial(v.amb + 2, 2) - 1
    span_dim = n_big - a_m(v, 2)
    basis = tuple(map(tuple, v.bases[2].tolist()))
    return QuadraticEmbedding(base=v, N=n_big, span_dim=span_dim, basis=basis)


def _random_params(domain: ProjectiveDomain, fld, rng: random.Random) -> tuple:
    top = fld.p if fld.is_prime_field else 1000
    out = []
    for b in domain.blocks:
        out.extend([1] + [rng.randrange(1, top) for _ in range(b - 1)])
    return tuple(out)


def check_terracini_field(fld: Field) -> None:
    """Refuse a prime field too small for sampled Terracini ranks."""
    if fld.is_prime_field and fld.p <= _MIN_TERRACINI_PRIME:
        raise ValueError(
            f"Terracini sampling needs the rationals or p > 10^6, got {fld!r}"
        )


def _draw(v: ParamVariety, rng: random.Random, count: int, evaluate) -> list:
    """The values at the next `count` points of a trial's parameter stream
    whose image is nonzero.  `evaluate` maps a list of parameter points to
    their values and whether each image is nonzero; a zero image is
    skipped, and 8 in a row end the trial."""
    out: list = []
    misses = 0
    while len(out) < count:
        drawn = [_random_params(v.domain, v.field, rng) for _ in range(count - len(out))]
        values, nonzero = evaluate(drawn)
        for row, ok in zip(values, nonzero):
            if ok:
                out.append(row)
                misses = 0
            else:
                misses += 1
                if misses == 8:
                    raise TerraciniError(f"{v.label}: could not sample a nonzero point")
    return out


def _tangent_ranks(y: QuadraticEmbedding, seed: int, trial: int) -> list:
    """One Terracini trial: entry k is the rank, minus 1, of the tangent
    spaces of Y at the first k+1 points the trial draws.  The run ends once
    it fills the span, or after span_dim + 2 points.

    The rows are ranked in chunks.  A chunk asks for as many points as could
    fill the span at n+1 new dimensions each, one per tangent row, and
    finds which of [independent rows so far; chunk], cut at span_dim + 1
    rows, are independent of all rows before them.  The rank after each
    point is a prefix count of those, so no chunk draws a point past the
    one that fills the span, and the run stops there.  Over GF(p) those
    rows are the pivots of the kernel on the transpose, which is not wide;
    over Q they are the rows that one fraction-free `Echelon`, kept across
    the trial's chunks, takes in.
    """
    v, fld = y.base, y.base.field
    check_terracini_field(fld)
    rng = random.Random(("terracini", v.label, seed, trial).__repr__())
    p = fld.p if fld.is_prime_field else None
    width, per = v.amb + 1, v.n + 1  # coordinates; tangent rows per point
    full, limit = y.span_dim + 1, y.span_dim + 2
    first, second = y.products
    echelon = Echelon(fld)  # over Q: the independent rows so far

    def evaluate(drawn):
        values = y.tangent_values(drawn)
        return values, (values[:, :width] != 0).any(axis=1).tolist()

    def tangent_rows(count):
        vals = np.array(_draw(v, rng, count, evaluate)).reshape(count, per, width)
        xs = vals[:, :1]
        # chain rule on the products: row 0 of a point is twice its cone
        # point x_i x_j, row 1 + k its k-th partial dx_i x_j + x_i dx_j;
        # built in place, so that only two arrays of rows are alive at a
        # time.  Over GF(p) a sum of two products of residues below 2^31
        # stays below 2^63, so one reduction at the end keeps int64.
        rows, cross = vals[:, :, first], vals[:, :, second]
        rows *= xs[:, :, second]
        cross *= xs[:, :, first]
        rows += cross
        if p:
            rows %= p
        return rows.reshape(count * per, -1)

    def independent(rows, known):
        """Indices of the rows independent of all rows before them; the
        first `known` rows are."""
        if p:
            return pivots(fld, rows.T)
        # not `pivots`, which would eliminate the known rows again, in big
        # integers, every chunk: the echelon kept across chunks holds them
        gained = [i for i in range(known, len(rows)) if echelon.add(rows[i].tolist())]
        return np.array(list(range(known)) + gained, dtype=np.intp)

    # independent rows, then rows not yet ranked
    rows = np.zeros((0, full), dtype=np.int64 if p else object)
    known = ranked = drawn = 0  # independent rows; rows ranked and points drawn so far
    gains: list = []  # the point of each independent row
    while known < full and (len(rows) > known or drawn < limit):
        if len(rows) < full and drawn < limit:
            count = min(-(-(full - len(rows)) // per), limit - drawn)
            rows = np.concatenate([rows, tangent_rows(count)])
            drawn += count
        end = min(full, len(rows))
        kept = independent(rows[:end], known)
        gains += ((kept[known:] - known + ranked) // per).tolist()
        ranked += end - known
        rows = np.concatenate([rows[kept], rows[end:]])
        known = len(kept)
    return (np.cumsum(np.bincount(gains, minlength=drawn)) - 1).tolist()


def _secant_dims(runs: list) -> list:
    """[s_0, s_1, ...]: the maximum over the trial runs, each counting as
    its last entry (span_dim once it has filled) past its end."""
    if not runs:
        raise ValueError("need trials >= 1")
    return [max(r[min(k, len(r) - 1)] for r in runs) for k in range(max(map(len, runs)))]


@dataclass(frozen=True)
class ZakInvariants:
    label: str
    n: int
    c: int
    d: int
    a2: int
    span_dim: int
    s: dict
    delta: dict
    ell2: int
    k2: int
    delta2_total: int
    zak4_ok: bool
    zak5_ok: bool
    trials: int
    seed: int


def zak_invariants(v: ParamVariety, trials: int = 3, seed: int = 0) -> ZakInvariants:
    """Full secant-deficiency ledger of the quadratic embedding of `v`.

    Reads s_k from one nested Terracini pass until the secants fill the
    span, derives delta_k, ell_2, k_2 and delta^2, and checks them against
    Zak's identities; on failure the pass adds `trials` more trials (the
    first ones are kept) once before a hard error.
    """
    y = veronese_square(v)
    runs: list = []
    for attempt_trials in (trials, 2 * trials):
        runs += [_tangent_ranks(y, seed, t) for t in range(len(runs), attempt_trials)]
        dims = _secant_dims(runs)
        if dims[0] != v.n:
            raise TerraciniError(
                f"{v.label}: tangent rank gives dim {dims[0]} != n = {v.n}"
            )
        if dims[-1] < y.span_dim:
            raise TerraciniError(f"{v.label}: secants never fill the span")
        k2 = next(k for k, sk in enumerate(dims) if sk >= y.span_dim)
        s = dict(enumerate(dims[: k2 + 1]))
        for k in range(1, k2 + 1):
            if not s[k - 1] <= s[k] <= min(s[k - 1] + v.n + 1, y.span_dim):
                raise TerraciniError(f"{v.label}: rank sequence broken at k={k}: {s}")
        delta = {j: s[j - 1] + v.n + 1 - s[j] for j in range(1, k2 + 1)}
        zero_ks = [j for j in range(1, k2 + 1) if delta[j] == 0]
        ell2 = max(zero_ks) if zero_ks else 0
        delta2 = sum(delta[j] for j in range(ell2 + 1, k2 + 1))
        a2 = y.N - y.span_dim
        zak4 = a2 == delta2 - (k2 + 1) * (v.n + 1) + binomial(v.c + v.n + 2, 2)
        # the companion inequality chain: a2 is bounded by the deficiency sum
        # up to c+n (and by delta^2), with equality exactly when k2 = c+n
        sum_cn = sum(delta.get(j, 0) for j in range(ell2 + 1, v.c + v.n + 1))
        shift = binomial(v.c + 1, 2) - binomial(v.n + 1, 2)
        bound1 = sum_cn + shift
        bound2 = delta2 + shift
        if k2 == v.c + v.n:
            zak5 = a2 == bound1 == bound2
        else:
            zak5 = a2 <= bound1 <= bound2 and a2 < bound2
        if zak4 and zak5:
            return ZakInvariants(
                label=v.label,
                n=v.n,
                c=v.c,
                d=v.d,
                a2=a2,
                span_dim=y.span_dim,
                s=s,
                delta=delta,
                ell2=ell2,
                k2=k2,
                delta2_total=delta2,
                zak4_ok=True,
                zak5_ok=True,
                trials=attempt_trials,
                seed=seed,
            )
    raise TerraciniError(
        f"{v.label}: span-count checks failed even with doubled trials "
        f"(zak4={zak4}, zak5={zak5}; probable Terracini undersampling)"
    )


def expected_table2_deltas(n: int, c: int, degree_class: str, depth_class: str) -> dict:
    """Predicted deficiencies delta_{c+1} .. delta_{c+n+1} for the low-degree
    rows (degree_class in {c+1, c+2, c+3}; depth_class in {1, n, n+1}).

    Entries with k > k_2 are 0 by convention (the secants have already
    filled the span).  For n = 1 the depth classes 1 and n coincide.
    """
    if degree_class not in {"c+1", "c+2", "c+3"}:
        raise ValueError(f"unknown degree class {degree_class!r}")
    if depth_class not in {"1", "n", "n+1"}:
        raise ValueError(f"unknown depth class {depth_class!r}")
    ks = range(c + 1, c + n + 2)
    if degree_class == "c+1":
        return {k: (k - c if k <= c + n else 0) for k in ks}
    if degree_class == "c+2" and (depth_class == "1" or (depth_class == "n" and n == 1)):
        return {k: k - c - 1 for k in ks}
    if degree_class == "c+2" and depth_class == "n":
        out = {c + 1: 0, c + 2: 1}
        for k in range(c + 3, c + n + 1):
            out[k] = k - c
        out[c + n + 1] = 0
        return out
    if degree_class == "c+2" and depth_class == "n+1":
        out = {c + 1: 0}
        for k in range(c + 2, c + n + 1):
            out[k] = k - c
        out[c + n + 1] = 0
        return out
    if degree_class == "c+3" and depth_class == "n+1":
        if n == 1:
            # ACM curve of degree c+3: the span fills one step late, the
            # single positive deficiency sits at k = c+2
            return {c + 1: 0, c + 2: 1}
        out = {c + 1: 0, c + 2: 1}
        for k in range(c + 3, c + n + 1):
            out[k] = k - c
        out[c + n + 1] = 0
        return out
    raise ValueError(f"no tabulated row for degree {degree_class}, depth {depth_class}")


@dataclass(frozen=True)
class Table2Comparison:
    label: str
    degree_class: str
    depth_class: str
    expected: dict
    computed: dict
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


def table2_row(
    v: ParamVariety,
    degree_class: str,
    depth_class: str,
    trials: int = 3,
    seed: int = 0,
) -> Table2Comparison:
    """Compare computed deficiencies of `v` against a tabulated row, column
    by column over k = c+1 .. c+n+1 (entries beyond k_2 count as 0)."""
    inv = zak_invariants(v, trials=trials, seed=seed)
    expected = expected_table2_deltas(v.n, v.c, degree_class, depth_class)
    computed = {}
    mismatches = []
    for k, want in sorted(expected.items()):
        got = inv.delta.get(k, 0)
        computed[k] = got
        if got != want:
            mismatches.append((k, want, got))
    return Table2Comparison(
        label=v.label,
        degree_class=degree_class,
        depth_class=depth_class,
        expected=expected,
        computed=computed,
        mismatches=tuple(mismatches),
    )

