"""Tests for hypersurface counts, deficiency profiles and classifications."""

import math

import numpy as np
import pytest
from helpers import a_m_by_point_evaluation, image_by_poly_eval, symbolic_a_m, table_parameters

from hypersurfaces import formulas, varieties
from hypersurfaces.cohomology import (
    a_m,
    classify_a2_curve,
    bound_check,
    deficiency_profile,
    h1_ideal,
    hyperplane_section_points,
    profile_csv,
    verify_monotonic,
    verify_reg_bound,
)
from hypersurfaces.exactcore import QQ, Echelon, Matrix, PrimeField, binomial, rank
from hypersurfaces.pointconfig import evaluation_matrix
from hypersurfaces.varieties import (
    CONSTRUCTIONS,
    FieldTooSmallError,
    elliptic_normal_curve,
    hyperelliptic_g2_curve,
    linear_section_curve,
    multisecant_projection,
    project_from_general_point,
    rational_normal_curve,
    rational_parameters,
    scroll_section_curve,
    scroll_surface,
    veronese_surface,
)

GF = PrimeField(10007)


# ---------------------------------------------------------------- a_m


def test_a2_twisted_cubic():
    assert a_m(rational_normal_curve(3, GF), 2) == 3


def test_a2_elliptic_quartic():
    assert a_m(elliptic_normal_curve(2, 10007), 2) == 2


def test_a2_scroll_12_exact():
    assert a_m(scroll_surface(1, 2, GF), 2) == 3 == formulas.F(2, 2, 2)


def test_am_matches_symbolic_oracle_curves():
    # the oracle expands the parametrization symbolically: no sampling at all
    for r in (3, 4, 5):
        v = rational_normal_curve(r, GF)
        for m in (2, 3):
            assert a_m(v, m) == symbolic_a_m(v, m)
    v = scroll_section_curve(1, 3, 5, GF, seed=7)
    for m in (1, 2, 3):
        assert a_m(v, m) == symbolic_a_m(v, m)
    v = project_from_general_point(rational_normal_curve(4, GF), seed=3)
    for m in (2, 3):
        assert a_m(v, m) == symbolic_a_m(v, m)
    for v in (
        linear_section_curve(scroll_surface(1, 3, GF), seed=5),
        linear_section_curve(veronese_surface(GF), seed=5),
    ):
        for m in (1, 2, 3, 4):
            assert a_m(v, m) == symbolic_a_m(v, m), (v.label, m)


def test_am_matches_symbolic_oracle_weierstrass():
    ell = elliptic_normal_curve(3, 10007)
    g2 = hyperelliptic_g2_curve(3, 10007)
    pell = multisecant_projection(4, 4, 1, 10007, seed=5)
    pg2 = multisecant_projection(5, 5, 2, 10007, seed=5)
    for m in (1, 2, 3):
        assert a_m(ell, m) == symbolic_a_m(ell, m)
        assert a_m(g2, m) == symbolic_a_m(g2, m)
        assert a_m(pell, m) == symbolic_a_m(pell, m)
        assert a_m(pg2, m) == symbolic_a_m(pg2, m)


def test_am_matches_symbolic_oracle_surfaces():
    for v in (
        scroll_surface(1, 2, GF),
        scroll_surface(2, 2, GF),
        scroll_surface(2, 3, GF),
        veronese_surface(GF),
        project_from_general_point(scroll_surface(1, 3, GF), seed=3),
    ):
        for m in (2, 3, 4):
            assert a_m(v, m) == symbolic_a_m(v, m), (v.label, m)


@pytest.mark.parametrize("fld", [PrimeField(1000003), QQ], ids=repr)
def test_am_matches_symbolic_oracle_other_fields(fld):
    witnesses = [
        rational_normal_curve(4, fld),
        scroll_section_curve(1, 3, 5, fld, seed=7),
        project_from_general_point(rational_normal_curve(4, fld), seed=3),
        scroll_surface(1, 2, fld),
        scroll_surface(2, 3, fld),
        veronese_surface(fld),
        project_from_general_point(scroll_surface(1, 3, fld), seed=3),
        linear_section_curve(scroll_surface(1, 3, fld), seed=5),
        linear_section_curve(veronese_surface(fld), seed=5),
    ]
    for v in witnesses:
        for m in (1, 2, 3, 4):
            assert a_m(v, m) == symbolic_a_m(v, m), (v.label, m)


def test_am_over_q_clears_the_projections_denominators():
    # the Terracini witnesses' projections have coordinates with
    # denominators 76 and 29; the count over Q ranks their integer multiples
    for v, den in [
        (project_from_general_point(rational_normal_curve(4, QQ), seed=3), 76),
        (project_from_general_point(scroll_surface(1, 4, QQ), seed=11), 29),
    ]:
        assert math.lcm(*(c.denominator for f in v.coords for c in f.terms.values())) == den
        v.counts.clear()  # a curve's certificate may have kept a_2 from its rank mod a prime
        for m in (1, 2, 3):
            assert a_m(v, m) == symbolic_a_m(v, m), (v.label, m)


def test_am_seed_independent():
    v = rational_normal_curve(4, GF)
    assert a_m(v, 2, seed=1) == a_m(v, 2, seed=2024) == 6
    ms = multisecant_projection(4, 4, 0, 10007, seed=5)
    assert a_m(ms, 2, seed=3) == a_m(ms, 2, seed=4)
    s = scroll_surface(2, 3, GF)
    assert {a_m(s, 3, seed=x) for x in range(5)} == {50}


def test_am_field_too_small():
    v = rational_normal_curve(3, PrimeField(11))
    assert a_m(v, 3) == symbolic_a_m(v, 3)  # the grid t = 0..9 fits
    with pytest.raises(FieldTooSmallError, match=r"^rnc\(3\): .*p > 12"):
        a_m(v, 4)  # the grid t = 0..12 needs 13 distinct values
    ell = elliptic_normal_curve(2, 11)  # 13 affine points
    assert a_m(ell, 3) == symbolic_a_m(ell, 3)  # needs exactly 13
    with pytest.raises(FieldTooSmallError, match=r"^elliptic\(2;p=11\): .*17 affine points"):
        a_m(ell, 4)


def test_am_veronese_over_gf5():
    v = veronese_surface(PrimeField(5))
    assert a_m(v, 2) == symbolic_a_m(v, 2) == 6  # grid 0..4 in y, z fits in GF(5)
    with pytest.raises(FieldTooSmallError, match="p > 6"):
        a_m(v, 3)


def test_am_validates_degree():
    v = rational_normal_curve(3, GF)
    for count in (lambda m: a_m(v, m), v.count):
        with pytest.raises(ValueError, match="need m >= 1"):
            count(0)


# ---------------------------------------------------------------- array path

# one curve of every curve construction of the descriptor table, over GF(p)
CURVE_CASES = {
    "rnc": lambda p: rational_normal_curve(4, PrimeField(p)),
    "scroll_section": lambda p: scroll_section_curve(2, 3, 4, PrimeField(p), seed=3),
    "elliptic": lambda p: elliptic_normal_curve(3, p),
    "genus2": lambda p: hyperelliptic_g2_curve(4, p),
    "multisecant": lambda p: multisecant_projection(5, 5, 2, p, seed=2),
    "project": lambda p: project_from_general_point(rational_normal_curve(5, PrimeField(p)), seed=1),
    "scroll_hyperplane_section": lambda p: linear_section_curve(
        scroll_surface(1, 3, PrimeField(p)), seed=4
    ),
    "veronese_conic_section": lambda p: linear_section_curve(
        veronese_surface(PrimeField(p)), seed=2
    ),
}


def test_curve_cases_cover_every_curve_construction():
    assert set(CURVE_CASES) == set(CONSTRUCTIONS) - {"scroll", "veronese"}


@pytest.mark.parametrize("p", [10007, 101])
@pytest.mark.parametrize("name", sorted(CURVE_CASES))
def test_table_counts_match_point_evaluation(name, p):
    v = CURVE_CASES[name](p)
    assert rational_parameters(v) is not None and v.construction["name"] == name
    for m in (1, 2, 3, 4):
        assert a_m(v, m) == a_m_by_point_evaluation(v, m), (v.label, m)
    fresh = CURVE_CASES[name](p)  # no counts memoised yet
    prof = deficiency_profile(fresh)
    assert prof.a == {m: a_m_by_point_evaluation(fresh, m) for m in prof.a}


@pytest.mark.parametrize("p", [1000003, (1 << 31) - 1])
@pytest.mark.parametrize("name", sorted(set(CURVE_CASES) - {"elliptic", "genus2", "multisecant"}))
def test_line_counts_above_the_table_limit_match_point_evaluation(name, p):
    # a curve on P^1 over GF(p), 2^16 < p < 2^31, lists no rational
    # parameters but is still counted on its grid by the shared evaluator,
    # which splits the coefficients so that no int64 sum of products overflows
    v = CURVE_CASES[name](p)
    assert rational_parameters(v) is None and v.construction["name"] == name
    grid = v.domain.unisolvent_params(v.field, v.coords, 4)
    rows = v.evaluator(np.array(grid, dtype=np.int64))
    assert rows.tolist() == [list(image_by_poly_eval(v, t)) for t in grid]
    for m in (1, 2, 3, 4):
        assert a_m(v, m) == a_m_by_point_evaluation(v, m), (v.label, m)


@pytest.mark.parametrize("name, p", [
    ("rnc", 10007), ("scroll_section", 10007), ("elliptic", 10007), ("genus2", 10007),
    ("multisecant", 10007), ("project", 10007), ("scroll_section", 1000003),
])
def test_degree_by_degree_counts_match_point_evaluation(name, p, monkeypatch):
    # degree m ranks the products with a variable of degree m-1's kept
    # basis when there is one, and of every degree-(m-1) monomial
    # otherwise: asked in decreasing order with no basis kept, every degree
    # gets the full basis; asked again, or in increasing order, every degree
    # above 1 gets the kept one
    ranked = []
    evaluate = varieties.monomial_products

    def spy(rows, basis, m, p):
        kept = v.bases.get(m - 1)  # what the count could reuse
        ranked.append((m, basis.tolist(), None if kept is None else kept.tolist()))
        return evaluate(rows, basis, m, p)

    v = CURVE_CASES[name](p)
    want = {m: a_m_by_point_evaluation(v, m) for m in range(1, 7)}
    monkeypatch.setattr(varieties, "monomial_products", spy)
    for degrees, fresh in ((range(6, 0, -1), True), (range(6, 0, -1), False), (range(1, 7), False)):
        if fresh:
            v.bases.clear()
        v.counts.clear()
        ranked.clear()
        assert {m: a_m(v, m) for m in degrees} == want, (v.label, list(degrees))
        assert [m for m, *_ in ranked] == list(degrees)
        for m, basis, kept in ranked:
            assert (kept is None) == (fresh or m == 1), m
            full = list(range(binomial(v.amb + m - 1, m - 1)))
            assert basis == (full if kept is None else kept), m
        # each basis is independent on the curve and as large as W_m
        for m in degrees:
            grid = v.domain.unisolvent_params(v.field, v.coords, m)
            images = [image_by_poly_eval(v, q) for q in grid]
            values = evaluation_matrix(v.field, images, m).raw_rows()
            basis = v.bases[m].tolist()
            assert len(basis) == binomial(v.amb + m, m) - want[m]
            assert rank(Matrix.from_rows(v.field, [[row[j] for j in basis] for row in values])) \
                == len(basis)


def _assert_count_keeps_a_basis(v, m):
    # C(amb+m, m) - a_m monomials whose columns of the grid's degree-m
    # evaluation are independent
    basis = v.bases[m].tolist()
    assert len(basis) == binomial(v.amb + m, m) - v.count(m), (v.label, m)
    grid = v.domain.unisolvent_params(v.field, v.coords, m)
    values = evaluation_matrix(v.field, [image_by_poly_eval(v, q) for q in grid], m).raw_rows()
    assert len(Echelon(v.field, [[row[j] for j in basis] for row in values])) == len(basis)


@pytest.mark.parametrize("fld", [GF, PrimeField(1000003), QQ], ids=repr)
@pytest.mark.parametrize("make", [
    lambda f: rational_normal_curve(5, f),
    lambda f: scroll_surface(1, 2, f),
    veronese_surface,
], ids=["rnc(5)", "scroll(1,2)", "veronese"])
def test_every_count_keeps_a_basis(make, fld):
    v = make(fld)
    for m in (3, 1, 2):
        v.count(m)
        _assert_count_keeps_a_basis(v, m)


@pytest.mark.parametrize("make", [
    lambda: project_from_general_point(rational_normal_curve(6, QQ)),
    lambda: scroll_section_curve(1, 2, 3, QQ),
], ids=["projected-rnc(6)", "scroll-section(1,2;k=3)"])
def test_counts_over_q_rank_the_products_of_the_kept_basis(make, monkeypatch):
    # over Q, as over GF(p), degree m ranks only the products with a
    # variable of degree m-1's kept basis: each a_m is the symbolic count,
    # and each basis is the one that ranking every degree-m monomial keeps
    v = make()

    def uncounted():
        return varieties.ParamVariety(v.label, v.d, v.g, v.field, v.coords, v.domain,
                                      v.construction)

    alone = {}
    for m in (2, 3, 4):
        w = uncounted()
        w.count(m)
        alone[m] = w.bases[m].tolist()
    ranked = []
    evaluate = varieties.monomial_products

    def spy(rows, basis, m, p):
        ranked.append((m, basis.tolist()))
        return evaluate(rows, basis, m, p)

    monkeypatch.setattr(varieties, "monomial_products", spy)
    w = uncounted()
    assert w.count(1) == 0
    for m in (2, 3, 4):
        assert w.count(m) == symbolic_a_m(v, m), (v.label, m)
        assert ranked[-1] == (m, w.bases[m - 1].tolist())
        assert w.bases[m].tolist() == alone[m], (v.label, m)


def test_ledger_prime_basis_is_kept_only_on_a_hit():
    # projected rnc(4) over Q is certified at m = 2 by its rank modulo the
    # ledger prime, whose independent monomials are then its degree-2 basis
    v = project_from_general_point(rational_normal_curve(4, QQ), seed=3)
    assert v.counts == {2: 1} and list(v.bases) == [2]
    assert v.bases[2].tolist() == varieties._basis_mod_ledger_prime(v, 2).tolist()
    _assert_count_keeps_a_basis(v, 2)
    # c2 + q c3 equals c2 modulo the ledger prime q: a miss keeps nothing
    coords = list(v.coords[:3]) + [v.coords[2] + v.coords[3] * varieties._LEDGER_PRIME]
    w = varieties.ParamVariety("drawn", 4, 0, QQ, coords, v.domain, {"name": "drawn"})
    assert not varieties._restricts_onto(w, 2, last=False)
    assert w.counts == {} and w.bases == {}


@pytest.mark.parametrize("build", [
    lambda: rational_normal_curve(4, GF),
    lambda: elliptic_normal_curve(3, 10007),
    lambda: hyperelliptic_g2_curve(4, 10007),
], ids=["P1", "elliptic", "genus2"])
def test_unisolvent_grid_is_the_head_of_the_table(build, monkeypatch):
    # the count evaluates its grid with the variety's one evaluator: the
    # grid is the first of the listed rational parameters, so its images
    # are the first rows of their evaluation, and they are exactly what the
    # count ranks
    evaluated = []
    evaluate = varieties.monomial_products
    monkeypatch.setattr(varieties, "monomial_products", lambda rows, *args:
                        evaluated.append(rows.tolist()) or evaluate(rows, *args))
    v = build()
    v.counts.clear()  # count afresh what certification may have counted
    params = rational_parameters(v)
    table = v.evaluator(params)
    order = table_parameters(v)
    assert [tuple(q) for q in params.tolist()] == order
    for m in (1, 2, 3, 4):
        grid = v.domain.unisolvent_params(v.field, v.coords, m)
        images = [list(image_by_poly_eval(v, q)) for q in grid]
        assert [tuple(q) for q in grid] == order[: len(grid)]
        assert table[: len(grid)].tolist() == images
        a_m(v, m)
        assert evaluated.pop() == images


def _count_calls(monkeypatch) -> list:
    """Record the degree of every count that is computed, not memoised."""
    calls = []
    count = varieties._count
    monkeypatch.setattr(varieties, "_count", lambda v, m: calls.append(m) or count(v, m))
    return calls


def test_counts_are_computed_once_per_variety(monkeypatch):
    calls = _count_calls(monkeypatch)
    v = multisecant_projection(4, 4, 1, 10007, seed=5)
    prof = deficiency_profile(v)
    cls = classify_a2_curve(v)
    top = max(prof.a)
    assert h1_ideal(v, 2) == cls.h1_2 and a_m(v, top, seed=9) == prof.a[top]
    assert len(calls) == len(set(calls))
    assert set(calls) == set(prof.a) | {1, 2}
    assert v.counts == prof.a and cls.a2 == prof.a[2]
    # the memo belongs to the variety: an equal one counts afresh
    assert a_m(multisecant_projection(4, 4, 1, 10007, seed=5), 2) == cls.a2
    assert calls.count(2) == 2


def test_failed_count_is_not_memoised(monkeypatch):
    calls = _count_calls(monkeypatch)
    v = rational_normal_curve(3, PrimeField(11))
    for _ in range(2):
        with pytest.raises(FieldTooSmallError, match=r"^rnc\(3\): .*p > 12"):
            a_m(v, 4)
    assert calls == [4, 4] and 4 not in v.counts


# ---------------------------------------------------------------- h1


def test_h1_linearly_normal_curves_vanish():
    ell = elliptic_normal_curve(3, 10007)
    for m in (1, 2, 3):
        assert h1_ideal(ell, m) == 0
    g2 = hyperelliptic_g2_curve(4, 10007)
    for m in (1, 2):
        assert h1_ideal(g2, m) == 0


def test_h1_projected_rnc():
    v = project_from_general_point(rational_normal_curve(6, GF), seed=3)
    assert h1_ideal(v, 1) == 1


def test_h1_scroll_example_value():
    # degree 2c+1 curve on S(1, c-1), c = 4: deficiency c in degrees 1 and 2
    c = 4
    v = scroll_section_curve(1, c - 1, c + 1, GF, seed=7)
    assert h1_ideal(v, 1) == c
    assert h1_ideal(v, 2) == c


def test_h1_refuses_large_degree():
    v = scroll_section_curve(1, 2, 5, GF, seed=1)  # d = 8 > 2c+1 = 7
    with pytest.raises(ValueError):
        h1_ideal(v, 1)


# ---------------------------------------------------------------- profiles


def test_profile_scroll_sharpness_example():
    # h1 = c, c, c-m+1 for 3 <= m <= c, then 0; regularity c+2
    for c in (4, 5):
        v = scroll_section_curve(1, c - 1, c + 1, GF, seed=7)
        prof = deficiency_profile(v)
        expected = (c, c) + tuple(c - m + 1 for m in range(3, c + 1))
        assert prof.h1 == dict(enumerate(expected + (0,), start=1))
        assert prof.reg == c + 2
        assert prof.h1[1] == prof.h1[2]  # the non-strict step at d = 2c+1


def test_profile_multisecant_extremal():
    v = multisecant_projection(4, 4, 0, 10007, seed=5)
    prof = deficiency_profile(v)
    assert prof.h1 == {1: 2, 2: 1, 3: 0}
    assert prof.reg == 4 == v.d - v.c + 1 - v.g
    assert verify_monotonic(prof)
    assert verify_reg_bound(prof)


def test_profile_linearly_normal_zero():
    prof = deficiency_profile(hyperelliptic_g2_curve(3, 10007))
    assert prof.h1 == {1: 0}
    assert prof.linearly_normal
    assert prof.reg == 3  # genus forces the structure-sheaf term
    prof0 = deficiency_profile(rational_normal_curve(4, GF))
    assert prof0.reg == 2


def test_ledger_identity_everywhere():
    # a_m = u + h1 with h1 >= 0 for every constructed curve with d <= 2c+1
    curves = [
        rational_normal_curve(4, GF),
        elliptic_normal_curve(3, 10007),
        hyperelliptic_g2_curve(3, 10007),
        multisecant_projection(4, 4, 1, 10007, seed=5),
        scroll_section_curve(1, 3, 5, GF, seed=7),
    ]
    for v in curves:
        for m in (1, 2, 3):
            h1 = h1_ideal(v, m)
            assert h1 >= 0
            assert a_m(v, m) == formulas.u(v.c, v.g, v.d, m) + h1


def test_verify_monotonic_rejects_out_of_range():
    c = 4
    v = scroll_section_curve(1, c - 1, c + 1, GF, seed=7)  # d = 2c+1
    prof = deficiency_profile(v)
    with pytest.raises(ValueError, match="d <= 2c violated"):
        verify_monotonic(prof)


def test_verify_monotonic_all_small_curves():
    witnesses = [
        multisecant_projection(4, 3, 0, 10007, seed=5),
        multisecant_projection(4, 4, 0, 10007, seed=5),
        multisecant_projection(4, 4, 1, 10007, seed=5),
        multisecant_projection(5, 5, 2, 10007, seed=5),
    ]
    for v in witnesses:
        prof = deficiency_profile(v)
        assert verify_monotonic(prof)
        assert verify_reg_bound(prof)
        # the multisecant construction achieves the extremal profile
        assert prof.reg == v.d - v.c + 1 - v.g


def test_profile_csv_shape():
    v = multisecant_projection(4, 4, 0, 10007, seed=5)
    csv = profile_csv(deficiency_profile(v))
    lines = csv.strip().splitlines()
    assert lines[0] == "m,a_m,u,h1"
    assert lines[1].startswith("1,")
    assert len(lines) == 4  # m = 1, 2 nonzero then the closing zero at m = 3


# ---------------------------------------------------------------- classification


def test_classify_four_cases():
    assert classify_a2_curve(rational_normal_curve(3, GF)).case == "rational_normal_curve"
    assert (
        classify_a2_curve(elliptic_normal_curve(3, 10007)).case
        == "linearly_normal_genus_1"
    )
    g2 = classify_a2_curve(hyperelliptic_g2_curve(3, 10007))
    assert g2.case == "linearly_normal_genus_2" and g2.k == 3
    proj = classify_a2_curve(multisecant_projection(4, 3, 0, 10007, seed=5))
    assert proj.case == "projected_rational_normal_curve" and proj.k == 3
    sec4 = classify_a2_curve(multisecant_projection(4, 4, 0, 10007, seed=5))
    assert sec4.case == "rational_4secant_line" and sec4.k == 4
    pell = classify_a2_curve(multisecant_projection(4, 4, 1, 10007, seed=5))
    assert pell.case == "projected_elliptic_curve" and pell.k == 4
    for record in (g2, proj, sec4, pell):
        assert record.h1_identity_ok
        assert record.witness_consistent


def test_classify_out_of_range():
    # for c = 2 a projected quartic already has k = 3 > c
    v = project_from_general_point(rational_normal_curve(4, GF), seed=3)
    with pytest.raises(ValueError, match="outside the classified range"):
        classify_a2_curve(v)


# ---------------------------------------------------------------- bounds


def test_bound_check_examples():
    pq = project_from_general_point(rational_normal_curve(4, GF), seed=3)
    assert a_m(pq, 2) == 1
    assert bound_check(pq, 2, 2)  # 1 <= H(2,1,2,2) = 2
    assert bound_check(rational_normal_curve(3, GF), 2, 1)  # equality case
    big = scroll_section_curve(1, 3, 5, GF, seed=7)  # d = 9 = c+5, c = 4
    assert bound_check(big, 2, 5)


def test_bound_check_validation():
    v = rational_normal_curve(3, GF)
    with pytest.raises(ValueError):
        bound_check(v, 2, 2)  # d = c+1 < c+2


# ---------------------------------------------------------------- sections


def test_section_inequality_chain():
    # the quadric count of the variety is bounded by that of the points of a
    # generic linear section
    witnesses = [
        rational_normal_curve(3, GF),
        elliptic_normal_curve(3, 10007),
        scroll_surface(1, 2, GF),
        veronese_surface(GF),
    ]
    for v in witnesses:
        gamma = hyperplane_section_points(v, seed=11)
        assert len(gamma) == v.d
        assert a_m(v, 2) <= gamma.h0_ideal(2)


def test_section_points_count_and_ambient():
    v = rational_normal_curve(4, GF)
    gamma = hyperplane_section_points(v, seed=1)
    assert len(gamma) == 4
    assert gamma.c == 3
    # section of a curve in linearly general position: 3-regular
    assert gamma.regularity() <= 3
