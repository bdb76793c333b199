"""Hypersurface counts, ideal-deficiency profiles and regularity of parametrised varieties.

The count a_m of independent degree-m forms through a variety is exact and
deterministic: the parameter domain supplies a point set on which no
nonzero composed degree-m form vanishes (a tensor grid on an affine chart
for products of projective spaces, m*N + 1 affine points for y^2 = f(x)
models with coordinates of pole order <= N), so a_m is the corank of one
evaluation matrix at the images of those points.  Prime fields too small
to hold the point set raise FieldTooSmallError.

The count itself is `ParamVariety.count` in `varieties`, because the
certificate of a curve is one of these counts.  Every variety evaluates
its grid (on P^1, (1, t) for t = 0..top; on y^2 = f(x), its first points)
at once with its one `MPolyArray` evaluator: as int64 residues over GF(p)
(every prime field has p < 2^31), and over Q in integers, the coordinates
cleared of one common denominator D.  The evaluation matrix is then one
array of monomial products (`exactcore.monomial_products`): over GF(p)
ranked in numpy, over Q, where each row is D^m times its rational row,
fraction-free in one `Echelon`, with no Fraction arithmetic.  Only a
surface over GF(p) ranks the degree-m monomials at its images point by
point, as `PointConfig.hilbert` does at a point set.  Each count is
computed once per variety and memoised on it (a failure is not), so the
certificate, the ledger, the profile and the classification share it.

The deficiency numbers h^1(I(m)) then come from the Riemann-Roch ledger
a_m = u(c, g, d, m) + h^1(I(m)), valid whenever d <= 2c+1 (the twist
cohomology of the structure sheaf vanishes there), and drive the
regularity and monotonicity checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exactcore import Matrix, binomial, null_space
from .formulas import H as H_bound
from .formulas import u as u_count
from .pointconfig import PointConfig
from .varieties import (
    ConstructionError,
    ParamVariety,
    VerificationError,
    linear_section_curve,
    rational_parameters,
)

__all__ = [
    "a_m",
    "h1_ideal",
    "DeficiencyProfile",
    "deficiency_profile",
    "profile_csv",
    "verify_monotonic",
    "verify_reg_bound",
    "CurveClassification",
    "classify_a2_curve",
    "bound_check",
    "hyperplane_section_points",
]


def a_m(v: ParamVariety, m: int, seed: int = 0) -> int:
    """Number of independent degree-m forms vanishing on `v`.

    Exact for every variety: the count does not depend on `seed`, which is
    accepted for call compatibility only.  Memoised in `v.counts`.
    """
    return v.count(m)


def _derive(seed: int, tag: str, extra: int) -> int:
    return random.Random((seed, tag, extra).__repr__()).randrange(1 << 30)


def _require_ledger_curve(v: ParamVariety, op: str) -> None:
    if not v.is_curve:
        raise ValueError(f"{op} is defined for curves")
    if v.d > 2 * v.c + 1:
        raise ValueError(
            f"{op} unsupported for d = {v.d} > 2c+1 = {2 * v.c + 1}: the "
            "Riemann-Roch ledger needs vanishing twist cohomology"
        )


def h1_ideal(v: ParamVariety, m: int, seed: int = 0) -> int:
    """Ideal-sheaf deficiency h^1(I(m)) of a curve with d <= 2c+1 (exact;
    `seed` does not change it)."""
    _require_ledger_curve(v, "h1_ideal")
    if m < 1:
        raise ValueError("need m >= 1")
    val = a_m(v, m) - u_count(v.c, v.g, v.d, m)
    if val < 0:
        raise VerificationError(
            f"{v.label}: ledger violation, a_{m} below the Riemann-Roch count"
        )
    return val


@dataclass(frozen=True)
class DeficiencyProfile:
    """Per-degree counts for one curve: a(m), the Riemann-Roch part u(m),
    the deficiencies h1(m), and the regularity."""

    label: str
    c: int
    d: int
    g: int
    linearly_normal: bool
    a: dict
    h1: dict
    reg: int


def deficiency_profile(v: ParamVariety, seed: int = 0) -> DeficiencyProfile:
    """Compute h^1(I(m)) for m = 1, 2, ... until it vanishes (it is
    nonincreasing for d <= 2c+1, so the first zero is final), and derive the
    regularity from the last nonzero deficiency together with the genus.
    The profile is exact and does not depend on `seed`."""
    _require_ledger_curve(v, "deficiency_profile")
    a: dict = {}
    h1: dict = {}
    last_nonzero = 0
    for m in range(1, v.d + 3):
        am = a_m(v, m)
        a[m] = am
        h1[m] = am - u_count(v.c, v.g, v.d, m)
        if h1[m] < 0:
            raise VerificationError(f"{v.label}: ledger violation at m={m}")
        if h1[m] == 0:
            break
        last_nonzero = m
    else:
        raise VerificationError(f"{v.label}: deficiency failed to vanish by m = {v.d + 2}")
    if last_nonzero:
        reg = last_nonzero + 2
    else:
        # zero ideal deficiency: regularity is decided by the structure
        # sheaf, whose only surviving twist cohomology is h^1(O) = g
        reg = 2 if v.g == 0 else 3
    ln = h1[1] == 0
    return DeficiencyProfile(
        label=v.label, c=v.c, d=v.d, g=v.g, linearly_normal=ln, a=a, h1=h1, reg=reg
    )


def profile_csv(profile: DeficiencyProfile) -> str:
    lines = ["m,a_m,u,h1"]
    for m in sorted(profile.h1):
        u_val = profile.a[m] - profile.h1[m]
        lines.append(f"{m},{profile.a[m]},{u_val},{profile.h1[m]}")
    return "\n".join(lines) + "\n"


def verify_monotonic(profile: DeficiencyProfile) -> bool:
    """Strict decrease of h^1(I(m)) on 2 <= m <= reg-1 (needs d <= 2c and a
    non-linearly-normal curve)."""
    if profile.d > 2 * profile.c:
        raise ValueError("hypothesis d <= 2c violated")
    if profile.linearly_normal:
        raise ValueError("curve is linearly normal: nothing to check")
    for m in range(2, profile.reg):
        if not profile.h1[m - 1] > profile.h1[m]:
            return False
    return True


def verify_reg_bound(profile: DeficiencyProfile) -> bool:
    """reg <= d - c + 1 - g, with the extremal profile h1(m) = d-c-g-m
    enforced whenever equality holds (needs d <= 2c, not linearly normal)."""
    if profile.d > 2 * profile.c:
        raise ValueError("hypothesis d <= 2c violated")
    if profile.linearly_normal:
        raise ValueError("curve is linearly normal: nothing to check")
    bound = profile.d - profile.c + 1 - profile.g
    if profile.reg > bound:
        return False
    if profile.reg == bound:
        for m in range(1, profile.d - profile.c - profile.g + 1):
            if profile.h1.get(m) != profile.d - profile.c - profile.g - m:
                return False
    return True


@dataclass(frozen=True)
class CurveClassification:
    a2: int
    k: int
    case: str
    h1_2: int
    h1_identity_ok: bool
    witness_consistent: bool
    genus: int
    degree: int
    linearly_normal: bool


def classify_a2_curve(v: ParamVariety) -> CurveClassification:
    """Rank the curve's quadric count and name the family the classification
    assigns to that rank (ranks 1..4), cross-checking the deficiency identity
    h^1(I(2)) = 2(d-c) - 1 - g - k."""
    _require_ledger_curve(v, "classify_a2_curve")
    c, g, d = v.c, v.g, v.d
    a2 = a_m(v, 2)
    k = binomial(c + 1, 2) + 1 - a2
    if k < 1:
        raise VerificationError(f"{v.label}: quadric count exceeds the maximum")
    if k > c:
        raise ValueError(f"{v.label}: k = {k} > c, outside the classified range")
    h1_2 = h1_ideal(v, 2)
    identity_ok = h1_2 == 2 * (d - c) - 1 - g - k
    ln = h1_ideal(v, 1) == 0
    if k == 1:
        case, expect = "rational_normal_curve", (0, c + 1, True)
    elif k == 2:
        case, expect = "linearly_normal_genus_1", (1, c + 2, True)
    elif k == 3:
        if ln:
            case, expect = "linearly_normal_genus_2", (2, c + 3, True)
        else:
            case, expect = "projected_rational_normal_curve", (0, c + 2, False)
    elif k == 4:
        if ln:
            case, expect = "linearly_normal_genus_3", (3, c + 4, True)
        elif g == 0:
            case, expect = "rational_4secant_line", (0, c + 3, False)
        else:
            case, expect = "projected_elliptic_curve", (1, c + 3, False)
    else:
        case, expect = "beyond_classified_range", None
    consistent = expect is None or expect == (g, d, ln)
    return CurveClassification(
        a2=a2,
        k=k,
        case=case,
        h1_2=h1_2,
        h1_identity_ok=identity_ok,
        witness_consistent=consistent,
        genus=g,
        degree=d,
        linearly_normal=ln,
    )


def bound_check(v: ParamVariety, m: int, k: int) -> bool:
    """a_m(v) <= H_k(n, c, m) for any variety of degree >= c+k."""
    if not 1 <= k <= v.c + 1:
        raise ValueError(f"k = {k} outside [1, c+1]")
    if v.d < v.c + k:
        raise ValueError(f"bound needs d >= c+k = {v.c + k}, have d = {v.d}")
    return a_m(v, m) <= H_bound(k, v.n, v.c, m)


def hyperplane_section_points(v: ParamVariety, seed: int = 0, budget: int = 400):
    """A fully rational hyperplane section of a curve, as points of P^{amb-1}.

    Strategy: prescribe amb rational curve points, solve for the hyperplane
    through them, and scan the images of all rational parameters
    (`rational_parameters`, evaluated once) for its full zero set;
    the remaining intersection is forced to small degree, so a modest number
    of retries finds a completely split transverse section.  Surfaces are
    cut down to a section curve first.
    """
    if v.n == 2:
        return hyperplane_section_points(
            linear_section_curve(v, seed=_derive(seed, "surface-section", 0)),
            seed=seed,
            budget=budget,
        )
    if not v.is_curve:
        raise ValueError("sections are implemented for curves and surfaces")
    fld = v.field
    params = rational_parameters(v)
    if params is None:
        raise ValueError("rational sections need a scannable prime field")
    images = v.evaluator(params)
    rng = random.Random(("section-pts", v.label, seed).__repr__())
    npar = len(images)
    for _ in range(budget):
        picks = rng.sample(range(npar), v.amb)
        m = Matrix.from_rows(fld, [images[i].tolist() for i in picks])
        ann = null_space(m)
        if len(ann) != 1:
            continue
        h = [int(x) for x in ann[0]]
        zero_rows = images[images @ h % fld.p == 0].tolist()
        if len(zero_rows) != v.d:
            continue
        drop = next(i for i, x in enumerate(h) if x % fld.p != 0)
        pts = [tuple(x for i, x in enumerate(row) if i != drop) for row in zero_rows]
        try:
            return PointConfig(fld, pts)
        except ValueError:
            continue
    raise ConstructionError(
        f"{v.label}: no completely split hyperplane section in {budget} trials"
    )
