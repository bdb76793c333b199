"""Closed-form counts of degree-m hypersurfaces through low-degree varieties.

For an n-dimensional nondegenerate variety of codimension c the number of
independent degree-m forms vanishing on it is governed by its degree class:

  F(n, c, m)     degree c+1 (minimal degree),
  G(t, n, c, m)  degree c+2 with arithmetic depth t,
  H(k, n, c, m)  arithmetically Cohen-Macaulay of degree c+k,
  u(c, g, d, m)  curves of genus g and degree d once the ideal deficiency
                 vanishes (Riemann-Roch count).

delta_small / delta_curve rank these values: delta_small(n, c, m, k) is the
k-th largest possible count for k <= 4, and delta_curve(c, m, k) solves the
curve case for all m >= c.  identity_suite() machine-checks the recurrences
and strict chains these functions satisfy.

All binomials follow the convention C(a, b) = 0 for b < 0 or a < b.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .exactcore import binomial

__all__ = [
    "F",
    "G",
    "H",
    "u",
    "WitnessClass",
    "DeltaAnswer",
    "delta_small",
    "delta_curve",
    "IdentityCheck",
    "IdentityReport",
    "identity_suite",
    "curve_invariants_for_rank",
]


def _F(n: int, c: int, m: int) -> int:
    # Unvalidated core formula; the recurrences below need it at n = 0.
    return binomial(m + n + c, n + c) - (
        (c + 1) * binomial(m + n - 1, n) + binomial(m + n - 1, n - 1)
    )


def _G(t: int, n: int, c: int, m: int) -> int:
    return binomial(m + n + c, n + c) - (
        (c + 2) * binomial(m + n - 1, n)
        + binomial(m + n - 1, n - 1)
        - binomial(m + t - 3, t - 2)
    )


def _H(k: int, n: int, c: int, m: int) -> int:
    return binomial(m + n + c, m) - (
        (c + k) * binomial(m + n - 1, n)
        + (2 - k) * binomial(m + n - 2, n - 1)
        + binomial(m + n - 2, n - 2)
    )


def F(n: int, c: int, m: int) -> int:
    """Hypersurface count for a variety of minimal degree c+1."""
    if n < 1 or c < 1 or m < 1:
        raise ValueError(f"F needs n >= 1, c >= 1, m >= 1; got {(n, c, m)}")
    return _F(n, c, m)


def G(t: int, n: int, c: int, m: int) -> int:
    """Hypersurface count for degree c+2 with arithmetic depth t (1 <= t <= n+1)."""
    if n < 1 or c < 1 or m < 2:
        raise ValueError(f"G needs n >= 1, c >= 1, m >= 2; got {(n, c, m)}")
    if not 1 <= t <= n + 1:
        raise ValueError(f"depth t={t} outside [1, n+1] for n={n}")
    return _G(t, n, c, m)


def H(k: int, n: int, c: int, m: int) -> int:
    """Hypersurface count for an arithmetically Cohen-Macaulay variety of degree c+k."""
    if n < 1 or c < 1 or m < 1:
        raise ValueError(f"H needs n >= 1, c >= 1, m >= 1; got {(n, c, m)}")
    if not 1 <= k <= c + 1:
        raise ValueError(f"k={k} outside [1, c+1] for c={c}")
    return _H(k, n, c, m)


def u(c: int, g: int, d: int, m: int) -> int:
    """Riemann-Roch hypersurface count for a genus-g degree-d curve in P^{c+1}
    with vanishing ideal deficiency in degree m."""
    if c < 2 or g < 0 or d < c + 1 or m < 1:
        raise ValueError(f"u needs c >= 2, g >= 0, d >= c+1, m >= 1; got {(c, g, d, m)}")
    return binomial(c + 1 + m, m) - (d * m + 1 - g)


class WitnessClass(str, Enum):
    """Family of varieties attaining a ranked count."""

    MINIMAL_DEGREE = "minimal_degree"
    DEL_PEZZO_DEPTH = "del_pezzo_depth"
    ALMOST_MINIMAL_DEPTH_T = "almost_minimal_depth_t"
    ACM_DEGREE_C_PLUS_K = "acm_degree_c_plus_k"
    CURVE_GENUS_G_DEGREE_D = "curve_genus_g_degree_d"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class DeltaAnswer:
    """A ranked hypersurface count together with its attaining family.

    `depth` is the arithmetic depth of the witness where that is what pins
    the family down; `genus`/`degree` identify curve witnesses.  When two
    families attain the same value, the second one is reported through
    `tied_with`/`tied_depth`.
    """

    value: int
    witness_class: WitnessClass
    depth: Optional[int] = None
    genus: Optional[int] = None
    degree: Optional[int] = None
    tied_with: Optional[WitnessClass] = None
    tied_depth: Optional[int] = None


def delta_small(n: int, c: int, m: int, k: int) -> DeltaAnswer:
    """The k-th largest hypersurface count over n-dimensional varieties of
    codimension c, for k <= 4.

    k=1: minimal degree.  k=2: degree c+2 of maximal depth n+1.  k=3: degree
    c+2 of depth n (for m=2 a second family of degree c+3 ties).  k=4 (needs
    n >= 2, m >= 3): the larger of the depth-(n-1) value and the ACM degree
    c+3 value, decided by the sign of m^2 + mn - n^2 - 5m - n + 6.
    """
    if c < 2 or m < 2:
        raise ValueError(f"need c >= 2 and m >= 2; got {(c, m)}")
    if n < 1:
        raise ValueError(f"need n >= 1; got n={n}")
    if k == 1:
        return DeltaAnswer(F(n, c, m), WitnessClass.MINIMAL_DEGREE, depth=n + 1)
    if k == 2:
        return DeltaAnswer(G(n + 1, n, c, m), WitnessClass.DEL_PEZZO_DEPTH, depth=n + 1)
    if k == 3:
        value = G(n, n, c, m)
        if m == 2 and c >= 3:
            # two families attain the same count: degree c+2 of depth n and
            # the ACM family of degree c+3
            return DeltaAnswer(
                value,
                WitnessClass.ALMOST_MINIMAL_DEPTH_T,
                depth=n,
                tied_with=WitnessClass.ACM_DEGREE_C_PLUS_K,
                tied_depth=n + 1,
            )
        return DeltaAnswer(value, WitnessClass.ALMOST_MINIMAL_DEPTH_T, depth=n)
    if k == 4:
        if n < 2 or m < 3:
            raise ValueError(
                f"rank k=4 is not covered for (n, m)={(n, m)}; "
                "needs n >= 2 and m >= 3 (for n=1 and m >= c use delta_curve)"
            )
        g_val = G(n - 1, n, c, m)
        h_val = H(3, n, c, m)
        disc = m * m + m * n - n * n - 5 * m - n + 6
        if disc > 0:
            return DeltaAnswer(g_val, WitnessClass.ALMOST_MINIMAL_DEPTH_T, depth=n - 1)
        if disc < 0:
            return DeltaAnswer(h_val, WitnessClass.ACM_DEGREE_C_PLUS_K, depth=n + 1)
        # discriminant zero: both candidates coincide, report both families
        assert g_val == h_val
        return DeltaAnswer(
            g_val,
            WitnessClass.ALMOST_MINIMAL_DEPTH_T,
            depth=n - 1,
            tied_with=WitnessClass.ACM_DEGREE_C_PLUS_K,
            tied_depth=n + 1,
        )
    raise ValueError(f"rank k={k} not covered (only k in 1..4)")


def curve_invariants_for_rank(c: int, k: int) -> tuple:
    """Invert k = C(j, 2) + (j - g), j = d - c: the unique (g, d) with
    0 <= g <= c-1 and c+1+g <= d <= 2c indexing the k-th largest count."""
    if not 1 <= k <= binomial(c, 2) + c:
        raise ValueError(f"k={k} outside [1, C(c,2)+c] for c={c}")
    j = 1
    while binomial(j, 2) + j < k:
        j += 1
    g = binomial(j, 2) + j - k
    d = c + j
    assert 0 <= g <= c - 1 and c + 1 + g <= d <= 2 * c
    return g, d


def delta_curve(c: int, m: int, k: int) -> DeltaAnswer:
    """The k-th largest hypersurface count over curves in P^{c+1}, valid for
    every m >= c and 1 <= k <= C(c,2)+c; the witness is the (unique) genus
    and degree solving the rank equation."""
    if c < 2:
        raise ValueError(f"need c >= 2; got c={c}")
    if m < c:
        raise ValueError(f"delta_curve needs m >= c; got m={m}, c={c}")
    g, d = curve_invariants_for_rank(c, k)
    return DeltaAnswer(
        u(c, g, d, m), WitnessClass.CURVE_GENUS_G_DEGREE_D, genus=g, degree=d
    )


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    description: str
    passed: bool
    counterexample: Optional[tuple] = None


@dataclass(frozen=True)
class IdentityReport:
    n_max: int
    c_max: int
    m_max: int
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else f"FAIL at {c.counterexample}"
            lines.append(f"{c.name:22s} {status}")
        n_ok = sum(c.passed for c in self.checks)
        lines.append(
            f"{n_ok}/{len(self.checks)} identity families PASS"
            if n_ok == len(self.checks)
            else f"{len(self.checks) - n_ok} identity families FAIL"
        )
        return "\n".join(lines)


def identity_suite(n_max: int, c_max: int, m_max: int) -> IdentityReport:
    """Exhaustively check the algebraic identities tying F, G_t and H_k
    together over 1 <= n <= n_max, 2 <= c <= c_max, 2 <= m <= m_max.

    Nine families are checked: the Pascal-type recurrences of F, G and H,
    the strict chains F > G_{n+1} > ... > G_1 and H_1 > ... > H_c, the
    coincidences H_1 = F and H_2 = G_{n+1}, the quadratic-case equality
    G_n = H_3 (m = 2), its strictness for m >= 3, and the combined
    two-column comparison diagram.
    """
    if n_max < 1 or c_max < 2 or m_max < 2:
        raise ValueError("grid bounds below minimal valid values")

    grid = [
        (n, c, m)
        for n in range(1, n_max + 1)
        for c in range(2, c_max + 1)
        for m in range(2, m_max + 1)
    ]

    def run(name: str, description: str, fn) -> IdentityCheck:
        for point in grid:
            witness = fn(*point)
            if witness is not None:
                return IdentityCheck(name, description, False, witness)
        return IdentityCheck(name, description, True)

    def chk_f_rec(n, c, m):
        if _F(n, c, m) != _F(n, c, m - 1) + _F(n - 1, c, m):
            return (n, c, m)

    def chk_g_rec(n, c, m):
        # the depth index drops with the dimension, mirroring how arithmetic
        # depth behaves under a general hyperplane section
        for t in range(1, n + 2):
            if _G(t, n, c, m) != _G(t, n, c, m - 1) + _G(t - 1, n - 1, c, m):
                return (t, n, c, m)

    def chk_fg_chain(n, c, m):
        chain = [F(n, c, m)] + [G(t, n, c, m) for t in range(n + 1, 0, -1)]
        for a, b in zip(chain, chain[1:]):
            if not a > b:
                return (n, c, m, tuple(chain))

    def chk_h_rec(n, c, m):
        for k in range(1, c + 2):
            if _H(k, n, c, m) != _H(k, n, c, m - 1) + _H(k, n - 1, c, m):
                return (k, n, c, m)

    def chk_h_eq_fg(n, c, m):
        if H(1, n, c, m) != F(n, c, m) or H(2, n, c, m) != G(n + 1, n, c, m):
            return (n, c, m)

    def chk_h_chain(n, c, m):
        vals = [H(k, n, c, m) for k in range(1, c + 1)]
        for a, b in zip(vals, vals[1:]):
            if not a > b:
                return (n, c, m, tuple(vals))

    def chk_gh_quadratic(n, c, m):
        if G(n, n, c, 2) != H(3, n, c, 2):
            return (n, c)

    def chk_gh_higher(n, c, m):
        if m >= 3 and not G(n, n, c, m) > H(3, n, c, m):
            return (n, c, m)

    def chk_diagram(n, c, m):
        # full two-column comparison: H-chain down to H_{c+1}, G-chain,
        # H_3 <= G_n with equality exactly when m = 2, and the gap
        # G_n - H_3 = C(m+n-3, n)
        hs = [H(k, n, c, m) for k in range(1, c + 2)]
        for a, b in zip(hs, hs[1:]):
            if not a > b:
                return (n, c, m, "H-chain")
        gn = G(n, n, c, m)
        h3 = H(3, n, c, m)
        if gn - h3 != binomial(m + n - 3, n):
            return (n, c, m, "G_n - H_3 gap")
        if (m == 2) != (gn == h3):
            return (n, c, m, "equality pattern")

    checks = (
        run("F-recurrence", "F(n,c,m) = F(n,c,m-1) + F(n-1,c,m)", chk_f_rec),
        run("G-recurrence", "G_t(n,c,m) = G_t(n,c,m-1) + G_{t-1}(n-1,c,m)", chk_g_rec),
        run("F-G-chain", "F > G_{n+1} > ... > G_1 strictly", chk_fg_chain),
        run("H-recurrence", "H_k(n,c,m) = H_k(n,c,m-1) + H_k(n-1,c,m)", chk_h_rec),
        run("H1=F-H2=G", "H_1 = F and H_2 = G_{n+1}", chk_h_eq_fg),
        run("H-chain", "H_1 > H_2 > ... > H_c strictly", chk_h_chain),
        run("Gn=H3-quadratic", "G_n = H_3 for m = 2", chk_gh_quadratic),
        run("Gn>H3-higher", "G_n > H_3 for m >= 3", chk_gh_higher),
        run("chain-diagram", "combined H/G comparison diagram", chk_diagram),
    )
    return IdentityReport(n_max, c_max, m_max, checks)
