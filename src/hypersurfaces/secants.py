"""Secant-variety invariants of quadratic embeddings, via Terracini's lemma.

The quadratic embedding of a parametrised variety X in P^r is the image Y
of X under all C(r+2, 2) pairwise coordinate products.  The dimension s_k
of the k-th secant variety of Y is read off as the rank of a stacked
matrix of affine tangent spaces at k+1 random parameter points (Terracini),
maximised over several trials; the derived data are the deficiencies
delta_k = s_{k-1} + n + 1 - s_k, the last deficiency-free index ell_2, the
filling index k_2, and the total deficiency delta^2.

Every run is cross-checked against Zak's span-count identity
a_2(X) = delta^2 - (k_2+1)(n+1) + C(c+n+2, 2); a failure means the random
tangent samples undersampled the generic rank, so the run retries with a
doubled trial count before giving up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from .cohomology import a_m
from .exactcore import Matrix, binomial, monomials, poly_diff, rank
from .varieties import ParamVariety, ProjectiveDomain

__all__ = [
    "QuadraticEmbedding",
    "ZakInvariants",
    "veronese_square",
    "secant_dim",
    "zak_invariants",
    "expected_table2_deltas",
    "Table2Comparison",
    "table2_row",
    "TerraciniError",
]

_MIN_TERRACINI_PRIME = 10**6


class TerraciniError(RuntimeError):
    """Secant ranks failed the span-count identity even after retries."""


@dataclass(frozen=True)
class QuadraticEmbedding:
    """All pairwise coordinate products of a parametrised variety, in the
    global graded-lex pair order; span_dim is recomputed from the exact
    quadric count of the base, never copied from metadata."""

    base: ParamVariety
    coords2: tuple
    N: int
    span_dim: int


def veronese_square(v: ParamVariety) -> QuadraticEmbedding:
    """Quadratic embedding of `v`; needs polynomial coordinates (point-
    enumerator curves carry no parametrization to differentiate)."""
    if not isinstance(v.domain, ProjectiveDomain):
        raise ValueError(
            f"{v.label}: quadratic embedding needs a polynomial parametrization"
        )
    pair_order = monomials(v.amb + 1, 2)
    coords2 = []
    for exp in pair_order:
        idx = [i for i, e in enumerate(exp) for _ in range(e)]
        coords2.append(v.coords[idx[0]] * v.coords[idx[1]])
    n_big = binomial(v.amb + 2, 2) - 1
    span = n_big - a_m(v, 2)
    return QuadraticEmbedding(base=v, coords2=tuple(coords2), N=n_big, span_dim=span)


def _tangent_rows(y: QuadraticEmbedding, jac, params) -> list:
    """Affine cone point and all parameter partials at one parameter point."""
    pt = list(params)
    rows = [[c.eval(pt) for c in y.coords2]]
    for var_polys in jac:
        rows.append([dp.eval(pt) for dp in var_polys])
    return rows


def _jacobian(y: QuadraticEmbedding) -> list:
    nvars = y.base.domain.nvars
    return [[poly_diff(c, var) for c in y.coords2] for var in range(nvars)]


def _random_params(domain: ProjectiveDomain, fld, rng: random.Random) -> tuple:
    out = []
    for b in domain.blocks:
        if fld.is_prime_field:
            out.extend([1] + [rng.randrange(1, fld.p) for _ in range(b - 1)])
        else:
            out.extend([1] + [rng.randint(1, 999) for _ in range(b - 1)])
    return tuple(out)


def secant_dim(
    y: QuadraticEmbedding, k: int, trials: int = 3, seed: int = 0
) -> int:
    """dim S^k Y by Terracini: span of tangent spaces at k+1 generic points.

    The rank at any specific sample never exceeds the generic rank, so the
    maximum over trials is a certified lower bound that equals the true
    dimension once one sample is generic; the ambient field must be exact
    rationals or a prime field with p > 10^6 to make rank loss negligible.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    fld = y.base.field
    if fld.is_prime_field and fld.p <= _MIN_TERRACINI_PRIME:
        raise ValueError(
            f"Terracini sampling needs the rationals or p > 10^6, got {fld!r}"
        )
    jac = _jacobian(y)
    best = -1
    for trial in range(trials):
        rng = random.Random(("terracini", y.base.label, k, seed, trial).__repr__())
        rows: list = []
        for _ in range(k + 1):
            for _attempt in range(8):
                params = _random_params(y.base.domain, fld, rng)
                new_rows = _tangent_rows(y, jac, params)
                if any(any(x != 0 for x in row) for row in new_rows):
                    rows.extend(new_rows)
                    break
            else:
                raise TerraciniError(f"{y.base.label}: could not sample a nonzero point")
        m = Matrix.from_rows(fld, rows)
        best = max(best, rank(m) - 1)
    return best


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

    Computes s_k until the secants fill the span, derives delta_k, ell_2,
    k_2 and delta^2, and enforces the span-count identity; on failure the
    trial count is doubled once before a hard error.
    """
    y = veronese_square(v)
    for attempt_trials in (trials, 2 * trials):
        s = {0: secant_dim(y, 0, attempt_trials, seed)}
        if s[0] != v.n:
            raise TerraciniError(
                f"{v.label}: tangent rank gives dim {s[0]} != n = {v.n}"
            )
        k = 0
        while s[k] < y.span_dim:
            k += 1
            if k > y.span_dim + 1:
                raise TerraciniError(f"{v.label}: secants never fill the span")
            sk = secant_dim(y, k, attempt_trials, seed)
            if sk < s[k - 1] or sk > min(s[k - 1] + v.n + 1, y.span_dim):
                raise TerraciniError(
                    f"{v.label}: rank sequence broken at k={k}: {s} then {sk}"
                )
            s[k] = sk
        k2 = k
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

