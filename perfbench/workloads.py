"""The benchmark's four workloads.

A workload turns a round seed into a list of operations.  An operation
builds one witness or input and computes its invariants through the
library's public API (`compute`, the timed part), then `check` compares
every value against the independent checker or a property the method must
have, and returns a record of the computed values for the run digest.

Round seeds feed only the inputs: construction seeds, sampling seeds and
generated point sets.  Different rounds therefore hold different witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checker

CURVE_PRIME = 10007
TERRACINI_PRIME = 1000003


@dataclass
class Op:
    label: str
    compute: Callable[[], object]
    check: Callable[[object, dict], tuple]  # (value, round state) -> (record, problem)


def _seeds(rng: random.Random, n: int) -> list:
    return [rng.randrange(1 << 30) for _ in range(n)]


def _problem(pairs) -> str:
    """First (name, got, want) triple that disagrees, as a message."""
    for name, got, want in pairs:
        if got != want:
            return f"{name}: got {got}, want {want}"
    return ""


# ------------------------------------------------------------------ curve-ledgers


def _curve_op(lib, label, build, cgd, pair, linearly_normal, seeds) -> Op:
    C = lib.cohomology
    c, g, d = cgd
    s1, s2, s3 = seeds

    def compute():
        v = build()
        return (v, C.h1_ideal(v, 1, s1), C.h1_ideal(v, 2, s1),
                C.a_m(v, 2, s2), C.a_m(v, 3, s2), C.deficiency_profile(v, s3))

    def check(value, state):
        v, h1_1, h1_2, a2, a3, prof = value
        h1 = [prof.h1[m] for m in sorted(prof.h1)]
        last_nonzero = max((m for m in prof.h1 if prof.h1[m]), default=0)
        record = [label, v.c, v.g, v.d, h1_1, h1_2, a2, a3, h1, prof.reg]
        problem = _problem([
            ("(c, g, d)", (v.c, v.g, v.d), cgd),
            ("(h1(1), h1(2))", (h1_1, h1_2), pair),
            ("a_2", a2, checker.u(c, g, d, 2) + pair[1]),
            ("a_3", a3, checker.u(c, g, d, 3) + prof.h1.get(3, 0)),
            ("profile h1(1)", prof.h1[1], pair[0]),
            ("profile h1(2)", prof.h1.get(2, pair[1]), pair[1]),
            ("profile a_m", [prof.a[m] for m in sorted(prof.a)],
             [checker.u(c, g, d, m) + prof.h1[m] for m in sorted(prof.h1)]),
            ("profile ends at h1 = 0", h1[-1], 0),
            ("h1 strictly decreasing", all(x > y for x, y in zip(h1, h1[1:])), True),
            ("linearly normal", prof.linearly_normal, linearly_normal),
            ("reg >= last nonzero h1 + 2", prof.reg >= last_nonzero + 2, True),
            ("reg <= bound", prof.reg <= checker.reg_bound(c, g, d, linearly_normal), True),
        ])
        return record, problem

    return Op(label, compute, check)


def curve_ledgers(lib, seed: int) -> list:
    """Table 1 rows for c = 5, 6, 7 and the verify-main curve witnesses over
    GF(10007): h1(1), h1(2), a_2, a_3 and the deficiency profile of each."""
    V = lib.varieties
    p = CURVE_PRIME
    fld = lib.exactcore.PrimeField(p)
    rng = random.Random(seed)
    ops = []
    for c, k, g, d in checker.constructible_table1_rows((5, 6, 7)):
        wseed = rng.randrange(1 << 30)
        if g == 0:
            def build(a=c + k - d, b=d - k, kk=d - c, s=wseed):
                return V.scroll_section_curve(a, b, kk, fld, seed=s)
        else:
            def build(c=c, k=k, g=g, s=wseed):
                return V.multisecant_projection(c, k, g, p, seed=s)
        ops.append(_curve_op(lib, f"table1(c={c},k={k},g={g},d={d})", build, (c, g, d),
                             checker.table1_pair(c, g, d, k), False, _seeds(rng, 3)))
    for r in (3, 4, 5):
        ops.append(_curve_op(lib, f"rnc({r})", lambda r=r: V.rational_normal_curve(r, fld),
                             (r - 1, 0, r), (0, 0), True, _seeds(rng, 3)))
    for c in (2, 3, 4):
        ops.append(_curve_op(lib, f"elliptic({c})", lambda c=c: V.elliptic_normal_curve(c, p),
                             (c, 1, c + 2), (0, 0), True, _seeds(rng, 3)))
    for c in (3, 4):
        ops.append(_curve_op(lib, f"genus2({c})", lambda c=c: V.hyperelliptic_g2_curve(c, p),
                             (c, 2, c + 3), (0, 0), True, _seeds(rng, 3)))
    for r in (4, 5, 6):
        wseed = rng.randrange(1 << 30)

        def build(r=r, s=wseed):
            return V.project_from_general_point(V.rational_normal_curve(r, fld), seed=s)
        # a projected rnc(r) is the rank-3 family of Table 1 with d = c+2
        ops.append(_curve_op(lib, f"projected rnc({r})", build, (r - 2, 0, r),
                             checker.table1_pair(r - 2, 0, r, 3), False, _seeds(rng, 3)))
    return ops


# ------------------------------------------------------------------ surface-counts


def surface_counts(lib, seed: int) -> list:
    """a_2, a_3, a_4 of the Veronese surface and four scrolls over GF(10007);
    one operation builds one surface and counts one a_m."""
    V, C = lib.varieties, lib.cohomology
    fld = lib.exactcore.PrimeField(CURVE_PRIME)
    rng = random.Random(seed)
    witnesses = [("veronese", lambda: V.veronese_surface(fld), 3)] + [
        (f"scroll({a},{b})", lambda a=a, b=b: V.scroll_surface(a, b, fld), a + b - 1)
        for a, b in ((1, 2), (2, 2), (2, 3), (1, 4))
    ]
    ops = []
    for label, build, c in witnesses:
        for m in (2, 3, 4):
            s = rng.randrange(1 << 30)

            def compute(build=build, m=m, s=s):
                v = build()
                return v, C.a_m(v, m, s)

            def check(value, state, label=f"{label} a_{m}", c=c, m=m):
                v, count = value
                return [label, v.c, count], _problem([
                    ("c", v.c, c), ("a_m", count, checker.surface_a_m(c, m))])

            ops.append(Op(f"{label} a_{m}", compute, check))
    return ops


# ------------------------------------------------------------------ secant-ledgers


def _secant_check(label, kind, r, shared_key):
    def check(value, state):
        v, inv = value
        s = [inv.s[k] for k in sorted(inv.s)]
        ledger = [v.n, v.c, inv.a2, inv.span_dim, s, sorted(inv.delta.items()),
                  inv.ell2, inv.k2, inv.delta2_total]
        led = checker.zak_ledger(inv.s, v.n, v.c, inv.a2)
        delta = inv.delta
        c, n = v.c, v.n
        pairs = [
            ("zak4_ok, zak5_ok", (inv.zak4_ok, inv.zak5_ok), (True, True)),
            ("recomputed zak4, zak5", (led["zak4"], led["zak5"]), (True, True)),
            ("delta, ell2, k2, delta2", (delta, inv.ell2, inv.k2, inv.delta2_total),
             (led["delta"], led["ell2"], led["k2"], led["delta2"])),
            ("s_0", inv.s[0], n),
        ]
        if kind == "rnc":
            pairs += [("s_k", s, [checker.rnc_secant_dim(r, k) for k in sorted(inv.s)]),
                      ("a_2", inv.a2, checker.u(r - 1, 0, r, 2))]
        elif kind == "curve":
            pairs.append(("s_k", s, [checker.curve_secant_dim(inv.span_dim, k)
                                     for k in sorted(inv.s)]))
        elif kind == "minimal":
            pairs += [("a_2", inv.a2, checker.surface_a_m(c, 2)),
                      ("delta_k, c < k <= c+n",
                       [delta.get(k, 0) for k in range(c + 1, c + n + 1)],
                       [checker.minimal_surface_delta(c, k) for k in range(c + 1, c + n + 1)])]
        elif kind == "projected":
            pairs.append(("delta_k, c < k <= c+n+1",
                          [delta.get(k, 0) for k in range(c + 1, c + n + 2)],
                          [checker.projected_delta(c, k) for k in range(c + 1, c + n + 2)]))
        if shared_key:
            # the ledger over Q must equal the one over GF(1000003)
            other = state.setdefault("ledgers", {}).setdefault(shared_key, ledger)
            pairs.append(("ledger over Q vs GF(1000003)", ledger, other))
        return [label] + ledger, _problem(pairs)

    return check


def secant_ledgers(lib, seed: int) -> list:
    """zak_invariants over GF(1000003), and over Q for four of the witnesses."""
    V, S, E = lib.varieties, lib.secants, lib.exactcore
    gf = E.PrimeField(TERRACINI_PRIME)
    rng = random.Random(seed)
    specs = [
        ("rnc(12)", "rnc", 12, lambda f, s: V.rational_normal_curve(12, f)),
        ("rnc(14)", "rnc", 14, lambda f, s: V.rational_normal_curve(14, f)),
        ("rnc(16)", "rnc", 16, lambda f, s: V.rational_normal_curve(16, f)),
        ("scroll(4,4)", "minimal", 0, lambda f, s: V.scroll_surface(4, 4, f)),
        ("scroll(3,5)", "minimal", 0, lambda f, s: V.scroll_surface(3, 5, f)),
        ("scroll(2,6)", "minimal", 0, lambda f, s: V.scroll_surface(2, 6, f)),
        ("projected scroll(1,4)", "projected", 0,
         lambda f, s: V.project_from_general_point(V.scroll_surface(1, 4, f), seed=s)),
        ("scroll-section(2,4;k=5)", "curve", 0,
         lambda f, s: V.scroll_section_curve(2, 4, 5, f, seed=s)),
    ]
    shared = [
        ("rnc(6)", "rnc", 6, lambda f, s: V.rational_normal_curve(6, f)),
        ("rnc(8)", "rnc", 8, lambda f, s: V.rational_normal_curve(8, f)),
        ("scroll(2,3)", "minimal", 0, lambda f, s: V.scroll_surface(2, 3, f)),
        ("veronese", "minimal", 0, lambda f, s: V.veronese_surface(f)),
    ]
    jobs = [(label, kind, r, build, gf, "", "") for label, kind, r, build in specs]
    for label, kind, r, build in shared:
        jobs.append((label, kind, r, build, gf, "", label))
    for label, kind, r, build in shared:
        jobs.append((label, kind, r, build, E.QQ, " over Q", label))
    ops = []
    for label, kind, r, build, fld, suffix, shared_key in jobs:
        wseed, zseed = _seeds(rng, 2)

        def compute(build=build, fld=fld, wseed=wseed, zseed=zseed):
            v = build(fld, wseed)
            return v, S.zak_invariants(v, seed=zseed)

        ops.append(Op(label + suffix, compute,
                      _secant_check(label + suffix, kind, r, shared_key)))
    return ops


# ------------------------------------------------------------------ point-sets


def _rnc_points(rng, c: int, n: int, p: int) -> list:
    return [[pow(t, i, p) for i in range(c + 1)] for t in rng.sample(range(p), n)]


def _collinear_then_general(rng, c: int, general: int, p: int) -> list:
    """5 collinear points, then `general` >= 2c+1 points of a rational normal
    curve; all distinct, so the curve points alone certify a 3-regular subset
    and extract3 always succeeds, after rejecting the subsets that hold 4 of
    the collinear points."""
    while True:
        a, b = ([rng.randrange(p) for _ in range(c + 1)] for _ in range(2))
        if checker.rank_mod_p([a, b], p) != 2:
            continue
        line = [[(x + lam * y) % p for x, y in zip(a, b)]
                for lam in rng.sample(range(1, p), 5)]
        pts = line + _rnc_points(rng, c, general, p)
        if len({checker.normalize(q, p) for q in pts}) == len(pts):
            return pts


def _points_op(lib, label, pts, c, uniform) -> Op:
    P = lib.pointconfig
    p = CURVE_PRIME
    fld = lib.exactcore.PrimeField(p)

    def compute():
        cfg = P.PointConfig(fld, pts)
        return cfg.nu_vector(), cfg.regularity(), P.extract_three_regular(cfg).points

    def check(value, state):
        nu, reg, cert = value
        record = [label, list(nu.values), nu.semi_uniform, reg, [list(q) for q in cert]]
        pairs = [("extract3 certificate", checker.three_regular_certificate(pts, cert, c, p), "")]
        if uniform:
            pairs += [("nu", (nu.values, nu.semi_uniform), (checker.uniform_nu(c), True)),
                      ("regularity", reg, checker.uniform_regularity(c, len(pts)))]
        else:
            pairs += [("semi-uniform, nu(0)", (nu.semi_uniform, nu.values[0]), (False, 1)),
                      ("regularity", reg, checker.regularity(pts, p))]
        return record, _problem(pairs)

    return Op(label, compute, check)


def point_sets(lib, seed: int) -> list:
    """nu-vector, regularity and extract3 on rational-normal-curve points and
    on 16-point configurations that start with 5 collinear points."""
    rng = random.Random(seed)
    p = CURVE_PRIME
    ops = []
    for c, n in ((3, 12), (3, 14), (3, 16), (4, 9), (4, 10), (4, 11), (5, 11)):
        ops.append(_points_op(lib, f"rnc points c={c} n={n}", _rnc_points(rng, c, n, p), c, True))
    for c in (3, 4, 5):
        ops.append(_points_op(lib, f"collinear+rnc c={c} n=16",
                              _collinear_then_general(rng, c, 11, p), c, False))
    return ops


WORKLOADS = {
    "curve-ledgers": curve_ledgers,
    "surface-counts": surface_counts,
    "secant-ledgers": secant_ledgers,
    "point-sets": point_sets,
}
