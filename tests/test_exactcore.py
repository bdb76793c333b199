"""Tests for exact fields, matrices, monomials and sparse polynomials."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersurfaces.exactcore import (
    QQ,
    Echelon,
    FieldMismatchError,
    Matrix,
    MPoly,
    PrimeField,
    binomial,
    monomial_values,
    monomials,
    null_space,
    poly_diff,
    poly_eval,
    rank,
)

from helpers import fraction_elimination_rank, null_space_by_rref, rank_mod_p

GF101 = PrimeField(101)
GF7 = PrimeField(7)
GF_BIGNUMPY = PrimeField(1000003)  # still on the vectorised path


# ---------------------------------------------------------------- fields


def test_rational_lowest_terms_positive_denominator():
    s = QQ.raw(Fraction(2, 4))
    assert s == Fraction(1, 2)
    t = QQ.raw(Fraction(3, -6))
    assert t.denominator == 2 and t == Fraction(-1, 2)
    assert isinstance(QQ.raw(3), Fraction)


def test_residues_reduced_into_range():
    assert GF7.raw(-1) == 6
    assert GF7.raw(7) == 0
    assert GF7.raw(15) == 1
    assert GF7.raw(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7


def test_mixed_moduli_rejected():
    with pytest.raises(FieldMismatchError):
        MPoly.constant(GF7, 1, 1) + MPoly.constant(GF101, 1, 1)
    with pytest.raises(FieldMismatchError):
        MPoly.constant(GF7, 1, 1) * MPoly.constant(QQ, 1, 1)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(15)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_large_modulus_needs_trust_flag():
    big = (1 << 31) + 11  # prime
    with pytest.raises(ValueError):
        PrimeField(big)
    f = PrimeField(big, trust_prime=True)
    assert f.raw(big + 3) == 3
    with pytest.raises(ValueError):
        PrimeField(1 << 62)


def test_scalar_arithmetic_gf():
    a, b = 40, 70
    assert GF101.add(a, b) == 9
    assert GF101.mul(a, b) == (40 * 70) % 101
    assert GF101.mul(GF101.mul(a, GF101.inv(b)), b) == a


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF7.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF7.inv(14)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.raw(0))


def test_rational_inverse_of_an_int_stays_exact():
    assert QQ.inv(2) == Fraction(1, 2) and isinstance(QQ.inv(2), Fraction)
    half = MPoly.variable(QQ, 1, 0).scale(QQ.inv(2))
    assert half.terms == {(1,): Fraction(1, 2)}


# ---------------------------------------------------------------- rank


def _identity(field, n):
    return Matrix.from_rows(field, [[int(i == j) for j in range(n)] for i in range(n)])


def test_rank_identity_gf101():
    assert rank(_identity(GF101, 3)) == 3


def test_rank_zero_matrix():
    assert rank(Matrix(QQ, 4, 7, [0] * 28)) == 0


def test_rank_classic_rank_two():
    # oracle: det [[1,2,3],[4,5,6],[7,8,9]] = 0 while the top-left 2x2 minor
    # is nonzero, so the rank is exactly 2
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    det3 = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    minor2 = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    assert det3 == 0 and minor2 != 0
    m = Matrix.from_rows(QQ, rows)
    assert rank(m) == 2
    assert len(null_space(m)) == 1


def test_kernel_dim_examples():
    assert null_space(_identity(GF101, 3)) == []
    # every column of a zero matrix is free: the kernel basis is the unit basis
    assert null_space(Matrix(QQ, 4, 7, [0] * 28)) == [
        [int(i == j) for j in range(7)] for i in range(7)
    ]


def test_rank_rational_entries():
    m = Matrix.from_rows(
        QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    )
    assert rank(m) == 1  # second row = 3 * first row


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix(QQ, 2, 2, [1, 2, 3])


def test_rank_transpose_200_random_matrices():
    rng = random.Random(20260810)
    for _ in range(200):
        nr = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        m = Matrix.from_rows(QQ, rows)
        assert rank(m) == rank(Matrix.from_rows(QQ, zip(*rows)))


def test_rank_plus_kernel_is_cols():
    rng = random.Random(7)
    for _ in range(60):
        nr = rng.randint(1, 10)
        nc = rng.randint(1, 10)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        for field in (QQ, GF101):
            m = Matrix.from_rows(field, rows)
            assert rank(m) + len(null_space(m)) == nc


def test_rank_drop_mod_p_vs_rational():
    # rank over QQ bounds rank over GF(p); two random large primes rarely
    # both divide the same nonzero minors
    primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
    rng = random.Random(99)
    for _ in range(40):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        rq = rank(Matrix.from_rows(QQ, rows))
        picks = rng.sample(primes, 2)
        ranks_p = [rank(Matrix.from_rows(PrimeField(p), rows)) for p in picks]
        assert all(rp <= rq for rp in ranks_p)
        assert rq in ranks_p


def test_rank_large_prime_python_path():
    big = (1 << 31) + 11
    f = PrimeField(big, trust_prime=True)
    m = Matrix.from_rows(f, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert rank(m) == 2


def test_rank_engines_agree_on_random_matrices():
    # the echelon over QQ, the vectorised and pure-Python mod-p eliminations
    # and a Fraction-based oracle must agree wherever they are comparable
    rng = random.Random(31337)
    big = (1 << 31) + 11
    f_big = PrimeField(big, trust_prime=True)
    for _ in range(80):
        nr = rng.randint(1, 9)
        nc = rng.randint(1, 9)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        oracle = fraction_elimination_rank(rows)
        assert rank(Matrix.from_rows(QQ, rows)) == oracle
        # with entries in [-9, 9] the relevant minors almost never vanish
        # mod a ~2^31 prime; the seeds below are fixed, so this is a stable
        # agreement check across the vectorised and pure-Python paths
        assert rank(Matrix.from_rows(GF_BIGNUMPY, rows)) == oracle
        assert rank(Matrix.from_rows(f_big, rows)) == oracle


# ---------------------------------------------------------------- echelon

GF_M61 = PrimeField((1 << 61) - 1, trust_prime=True)  # pure-Python rank path
ECHELON_FIELDS = [PrimeField(5), GF101, GF_BIGNUMPY, GF_M61, QQ]


def oracle_rank(fld, rows) -> int:
    if fld.is_prime_field:
        return rank_mod_p(rows, fld.p)
    return fraction_elimination_rank(rows)


@st.composite
def field_and_rows(draw):
    """A field, rows of one length and one more vector; small entries make
    dependencies common, and some rows are sums of earlier ones.  Over Q
    some rows are scaled by 1/2 or 1/3, so they have denominators."""
    fld = draw(st.sampled_from(ECHELON_FIELDS))
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + 2 * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    if not fld.is_prime_field:
        scales = [draw(st.sampled_from([1, 1, 2, 3])) for _ in rows]
        rows = [[Fraction(x, s) for x in row] for row, s in zip(rows, scales)]
    vec = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    return fld, rows, vec


def test_echelon_dependent_add_leaves_basis_unchanged():
    ech = Echelon(GF7, [[1, 2, 3], [0, 1, 4]])
    before = (list(ech.rows), list(ech.pivots))
    assert not ech.add([2, 5, 3])  # 2*r0 + r1 mod 7
    assert not ech.add([0, 0, 0])
    assert (ech.rows, ech.pivots) == before
    assert ech.add([0, 0, 1]) and len(ech) == 3


def test_echelon_rejects_ragged_vector():
    ech = Echelon(QQ, [[1, 2, 3]])
    with pytest.raises(ValueError):
        ech.contains([1, 2])


def test_echelon_rational_rows_are_primitive_integers():
    # [2,4,6] has content 2; [1/2, 1, 0] clears to [1, 2, 0], which reduces
    # to [0, 0, -3]: content 3 and a negative pivot
    ech = Echelon(QQ, [[2, 4, 6], [Fraction(1, 2), 1, 0]])
    assert ech.rows == [(1, 2, 3), (0, 0, 1)]
    assert ech.pivots == [0, 2]
    assert ech.contains([Fraction(1, 3), Fraction(2, 3), Fraction(5, 7)])
    assert not Echelon(QQ, [[1, 2, 3]]).contains([Fraction(1, 2), 1, 2])
    with pytest.raises(TypeError):
        ech.add([1.5, 0, 0])


@given(field_and_rows())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_rank(case):
    fld, rows, vec = case
    ech = Echelon(fld)
    for k, row in enumerate(rows):
        before = (list(ech.rows), list(ech.pivots))
        grew = ech.add(row)
        # the basis size is the rank of everything added so far
        assert len(ech) == oracle_rank(fld, rows[: k + 1])
        if not grew:
            assert (ech.rows, ech.pivots) == before
    if not rows:
        assert ech.contains(vec) == all(x == 0 for x in vec)
        return
    base = oracle_rank(fld, rows)
    assert ech.contains(vec) == (oracle_rank(fld, rows + [vec]) == base)
    copy = ech.copy()
    assert copy.add(vec) == (not ech.contains(vec))
    assert len(ech) == base  # adding to a copy leaves the original alone


@st.composite
def field_and_matrix(draw):
    """A field and an integer matrix with dependent rows; over Q some rows
    get denominators."""
    fld, rows, _ = draw(field_and_rows())
    if not rows:
        rows = [draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))]
    return fld, rows


@given(field_and_matrix())
@settings(max_examples=200, deadline=None)
def test_rank_and_null_space_match_oracles(case):
    fld, rows = case
    m = Matrix.from_rows(fld, rows)
    assert rank(m) == oracle_rank(fld, rows)
    if fld.is_prime_field:
        # reduction mod p can only lose rank
        assert rank(m) <= rank(Matrix.from_rows(QQ, rows))
    ns, want = null_space(m), null_space_by_rref(m)
    assert ns == want
    assert [[type(x) for x in v] for v in ns] == [[type(x) for x in v] for v in want]
    for v in ns:
        for row in m.raw_rows():
            assert fld.raw(sum(a * b for a, b in zip(row, v))) == 0


def test_null_space_annihilates_rows():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6]])
    ns = null_space(m)
    assert ns == [[Fraction(1), Fraction(-2), Fraction(1)]]
    for row in m.raw_rows():
        assert sum(a * b for a, b in zip(row, ns[0])) == 0
    # over GF(101) the free column is 2 and the pivots are back-substituted
    assert null_space(Matrix.from_rows(GF101, [[2, 1, 0], [0, 1, 1]])) == [
        [51, 100, 1]
    ]


# ---------------------------------------------------------------- monomials


def test_monomials_graded_lex_v2_m3():
    assert monomials(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_monomials_counts():
    assert len(monomials(3, 2)) == 6
    # direct-count oracle for v=5, m=2
    brute = [
        e
        for e in itertools.product(range(3), repeat=5)
        if sum(e) == 2
    ]
    assert len(monomials(5, 2)) == len(brute) == 15 == binomial(6, 2)


def test_monomials_degree_zero():
    assert monomials(4, 0) == [(0, 0, 0, 0)]


def test_monomial_values_alignment():
    pt = [2, 3]
    vals = monomial_values(QQ, pt, 3)
    assert [v for v in vals] == [8, 12, 18, 27]
    vals7 = monomial_values(GF7, [3, 4], 2)
    assert vals7 == [2, 5, 2]  # 9, 12, 16 mod 7


# ---------------------------------------------------------------- polynomials


def test_poly_eval_product_of_variables():
    f = MPoly.variable(QQ, 2, 0) * MPoly.variable(QQ, 2, 1)
    assert poly_eval(f, [2, 3]) == 6


def test_poly_eval_zero_poly():
    z = MPoly.zero(QQ, 3)
    assert poly_eval(z, [5, 6, 7]) == 0


def test_poly_eval_mod_p():
    # x0^2 + x1^2 at (3,4) over GF(7): 25 mod 7 = 4 (hand arithmetic)
    x0 = MPoly.variable(GF7, 2, 0)
    x1 = MPoly.variable(GF7, 2, 1)
    f = x0 * x0 + x1 * x1
    assert poly_eval(f, [3, 4]) == 4


def test_poly_diff_power():
    x0 = MPoly.variable(QQ, 1, 0)
    cube = x0 * x0 * x0
    assert poly_diff(cube, 0) == MPoly(QQ, 1, {(2,): 3})


def test_poly_diff_absent_variable():
    f = MPoly(QQ, 2, {(2, 0): 1})  # x0^2
    assert poly_diff(f, 1).is_zero()


def test_poly_diff_mixed():
    # d/dx0 (x0^2 x1 + x0) = 2 x0 x1 + 1 (sum + product rule by hand)
    f = MPoly(QQ, 2, {(2, 1): 1, (1, 0): 1})
    assert poly_diff(f, 0) == MPoly(QQ, 2, {(1, 1): 2, (0, 0): 1})


def test_zero_coefficients_dropped():
    f = MPoly(QQ, 2, {(1, 0): 0, (0, 1): 2})
    assert (1, 0) not in f.terms
    g = MPoly(GF7, 1, {(1,): 7})
    assert g.is_zero()


@st.composite
def small_polys(draw, field=GF101, nvars=2, max_terms=5, max_exp=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[exp] = draw(st.integers(-20, 20))
    return MPoly(field, nvars, terms)


@given(small_polys(), small_polys(), st.lists(st.integers(-9, 9), min_size=2, max_size=2))
@settings(max_examples=120, deadline=None)
def test_eval_is_ring_homomorphism(f, g, pt):
    fld = f.field
    lhs_mul = poly_eval(f * g, pt)
    rhs_mul = fld.mul(poly_eval(f, pt), poly_eval(g, pt))
    assert lhs_mul == rhs_mul
    lhs_add = poly_eval(f + g, pt)
    rhs_add = fld.add(poly_eval(f, pt), poly_eval(g, pt))
    assert lhs_add == rhs_add


@given(small_polys(), small_polys(), st.integers(0, 1))
@settings(max_examples=120, deadline=None)
def test_diff_product_rule(f, g, var):
    lhs = poly_diff(f * g, var)
    rhs = poly_diff(f, var) * g + f * poly_diff(g, var)
    assert lhs == rhs


def test_poly_eval_point_length_mismatch():
    f = MPoly.variable(QQ, 2, 0)
    with pytest.raises(ValueError):
        poly_eval(f, [1])


def test_poly_field_mismatch():
    with pytest.raises(FieldMismatchError):
        MPoly.variable(QQ, 1, 0) + MPoly.variable(GF7, 1, 0)
