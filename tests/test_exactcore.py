"""Tests for exact fields, matrices, monomials and sparse polynomials."""

import gc
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersurfaces.exactcore import (
    QQ,
    Echelon,
    FieldMismatchError,
    MPoly,
    MPolyArray,
    PrimeField,
    _integer_row,
    _pivots_modp_numpy,
    binomial,
    monomial_products,
    monomial_values,
    monomials,
    null_space,
    pivots,
    poly_diff,
    poly_eval,
)

from helpers import fraction_elimination_rank, null_space_by_rref, rank_mod_p

GF101 = PrimeField(101)
GF7 = PrimeField(7)
GF_BIGNUMPY = PrimeField(1000003)
GF_M31 = PrimeField((1 << 31) - 1)  # the largest prime a field takes


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


def test_large_modulus_is_refused():
    # every prime field runs on the int64 kernel, which needs p < 2^31
    for big in [(1 << 31) + 11, 1 << 62]:  # a prime, and a power of 2
        with pytest.raises(ValueError, match=r"too large: prime fields need p < 2\^31$"):
            PrimeField(big)


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
    half = MPoly(QQ, 1, {(1,): 1}) * QQ.inv(2)
    assert half.terms == {(1,): Fraction(1, 2)}


# ---------------------------------------------------------------- rank


def rank(field, rows) -> int:
    return len(pivots(field, rows))


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_rank_identity_gf101():
    assert rank(GF101, _identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(QQ, [[0] * 7] * 4) == 0
    assert pivots(QQ, []).tolist() == pivots(GF101, []).tolist() == []


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
    assert pivots(QQ, rows).tolist() == [0, 1]
    assert len(null_space(QQ, rows)) == 1


def test_kernel_dim_examples():
    assert null_space(GF101, _identity(3)) == []
    # every column of a zero matrix is free: the kernel basis is the unit basis
    assert null_space(QQ, [[0] * 7] * 4) == [
        [int(i == j) for j in range(7)] for i in range(7)
    ]


def test_rank_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert rank(QQ, rows) == 1  # second row = 3 * first row


def test_rank_transpose_200_random_matrices():
    rng = random.Random(20260810)
    for _ in range(200):
        nr = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        assert rank(QQ, rows) == rank(QQ, [list(c) for c in zip(*rows)])


def test_rank_plus_kernel_is_cols():
    rng = random.Random(7)
    for _ in range(60):
        nr = rng.randint(1, 10)
        nc = rng.randint(1, 10)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        for field in (QQ, GF101):
            assert rank(field, rows) + len(null_space(field, rows)) == nc


def test_rank_drop_mod_p_vs_rational():
    # rank over QQ bounds rank over GF(p); two random large primes rarely
    # both divide the same nonzero minors
    primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
    rng = random.Random(99)
    for _ in range(40):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        rq = rank(QQ, rows)
        picks = rng.sample(primes, 2)
        ranks_p = [rank(PrimeField(p), rows) for p in picks]
        assert all(rp <= rq for rp in ranks_p)
        assert rq in ranks_p


@pytest.mark.parametrize("p", [101, 10007, (1 << 31) - 1])
@pytest.mark.parametrize("shape", [(12, 12), (30, 7), (7, 30)])
def test_vectorised_rank_of_low_rank_products(p, shape):
    # B C with B n x k and C k x m has rank k for generic entries; near
    # p = 2^31 every elimination step moves an entry by almost 2^62, so the
    # trailing block must be reduced after every couple of steps, and a
    # missed reduction overflows int64 and breaks the dependencies
    rng = random.Random(p + shape[0])
    n, m = shape
    for k in (1, 3, 5):
        b = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
        c = [[rng.randrange(p) for _ in range(m)] for _ in range(k)]
        rows = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*c)] for row in b]
        want = rank_mod_p(rows, p)
        assert want == k
        assert rank(PrimeField(p), rows) == want
        table = np.array(rows, dtype=np.int64)
        table.setflags(write=False)  # read, never written
        assert len(_pivots_modp_numpy(table, p)) == want


def test_rank_engines_agree_on_random_matrices():
    # the echelon over QQ, the vectorised and pure-Python mod-p eliminations
    # and a Fraction-based oracle must agree wherever they are comparable
    rng = random.Random(31337)
    for _ in range(80):
        nr = rng.randint(1, 9)
        nc = rng.randint(1, 9)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        oracle = fraction_elimination_rank(rows)
        assert rank(QQ, rows) == oracle
        # with entries in [-9, 9] the relevant minors almost never vanish
        # mod a large prime; the seeds below are fixed, so this is a stable
        # agreement check
        assert rank(GF_BIGNUMPY, rows) == oracle
        # the pure-Python echelon against the vectorised rank, near 2^31
        assert len(Echelon(GF_M31, rows)) == rank(GF_M31, rows)


@pytest.mark.parametrize("p", [2, 10007, 1000003, (1 << 31) - 1])
@pytest.mark.parametrize("shape, inner", [
    ((14, 6), 9), ((6, 14), 9), ((14, 9), 4), ((9, 14), 4), ((11, 11), 7),
], ids=["tall", "wide", "tall-deficient", "wide-deficient", "square-deficient"])
def test_pivot_columns_are_independent(p, shape, inner):
    # a wide matrix is eliminated as its transpose: its pivot columns are
    # the input rows that become pivots there, tracked through the swaps
    rng = random.Random(p + 100 * shape[0] + inner)
    n, m = shape
    fld = PrimeField(p)
    for _ in range(4):
        b = [[rng.randrange(p) for _ in range(inner)] for _ in range(n)]
        c = [[rng.randrange(p) for _ in range(m)] for _ in range(inner)]
        rows = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*c)] for row in b]
        # a zero column and a repeated one, which no set of pivots may hold
        rows = [[0, row[-1]] + row for row in rows]
        table = np.array(rows, dtype=np.int64)
        table.setflags(write=False)  # read, never written
        pivots = _pivots_modp_numpy(table, p).tolist()
        want = len(Echelon(fld, rows))
        assert len(pivots) == want
        assert pivots == sorted(set(pivots)) and all(0 < j < m + 2 for j in pivots)
        columns = [[row[j] for row in rows] for j in pivots]
        assert len(Echelon(fld, columns)) == want


@st.composite
def tall_low_rank(draw):
    """(p, rows): a matrix with no more columns than rows over p = 1000003 or
    2^31 - 1, of random rank, with zero and repeated columns mixed in."""
    p = draw(st.sampled_from([1000003, (1 << 31) - 1]))
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, nrows))
    inner = draw(st.integers(0, ncols))
    rng = random.Random(draw(st.integers(0, 2**32)))
    b = [[rng.randrange(p) for _ in range(inner)] for _ in range(nrows)]
    c = [[rng.randrange(p) for _ in range(ncols)] for _ in range(inner)]
    rows = [[sum(row[k] * c[k][j] for k in range(inner)) % p for j in range(ncols)]
            for row in b]
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
        src = rng.randrange(ncols)  # column j becomes zero or a multiple of another
        factor = rng.randrange(p) if rng.random() < 0.7 else 0
        for row in rows:
            row[j] = row[src] * factor % p
    return p, rows


@given(tall_low_rank())
@settings(max_examples=150, deadline=None)
def test_pivots_of_a_matrix_that_is_not_wide_are_its_column_rank_profile(case):
    # each returned column is independent of the columns before it, and
    # each skipped column depends on them
    p, rows = case
    fld = PrimeField(p)
    pivots = set(_pivots_modp_numpy(np.array(rows, dtype=np.int64), p).tolist())
    before = Echelon(fld)
    for j in range(len(rows[0])):
        column = [row[j] for row in rows]
        assert (j in pivots) == (not before.contains(column)), j
        before.add(column)


def test_pivots_of_a_wide_matrix_need_not_be_its_column_rank_profile():
    # the columns (0,1), (0,2), (1,0), (1,1): the profile is [0, 2], but a
    # wide input is eliminated as its transpose and gives another basis
    wide = np.array([[0, 1], [0, 2], [1, 0], [1, 1]], dtype=np.int64).T
    assert _pivots_modp_numpy(wide, 1000003).tolist() == [1, 2]
    assert _pivots_modp_numpy(np.ascontiguousarray(wide[:, [0, 2]]), 1000003).tolist() == [0, 1]


# ---------------------------------------------------------------- echelon

ECHELON_FIELDS = [PrimeField(5), GF101, GF_BIGNUMPY, GF_M31, QQ]


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


def _integer_row_by_loop(vec):
    """_integer_row without its all-int fast path."""
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


@pytest.mark.parametrize(
    "vec",
    [
        [],
        [0, -3, 7, 2**70],
        (4, 5, 6),
        [1, Fraction(1, 2), Fraction(-2, 3), 0],
        [Fraction(4, 2), 3],
        [True, 2, False],
        [True, Fraction(1, 3)],
    ],
    ids=["empty", "ints", "int tuple", "mixed", "integral Fraction", "bools", "bool and Fraction"],
)
def test_integer_row_matches_the_loop(vec):
    out = _integer_row(vec)
    assert out == _integer_row_by_loop(vec)
    assert [type(x) for x in out] == [type(x) for x in _integer_row_by_loop(vec)]
    assert out is not vec


@pytest.mark.parametrize("bad", ["1", 1.0, 0.5])
def test_integer_row_rejects_non_rationals(bad):
    for vec in ([1, bad], [bad, Fraction(1, 2)]):
        with pytest.raises(TypeError, match="into QQ"):
            _integer_row(vec)


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
    raw = [[fld.raw(x) for x in row] for row in rows]
    assert rank(fld, raw) == oracle_rank(fld, rows)
    if fld.is_prime_field:
        # reduction mod p can only lose rank
        assert rank(fld, raw) <= rank(QQ, rows)
    ns, want = null_space(fld, raw), null_space_by_rref(fld, rows)
    assert ns == want
    assert [[type(x) for x in v] for v in ns] == [[type(x) for x in v] for v in want]
    for v in ns:
        for row in raw:
            assert fld.raw(sum(a * b for a, b in zip(row, v))) == 0


@given(field_and_matrix(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pivots_are_the_column_rank_profile(case, transpose):
    # over Q at any shape, and over GF(p) on an input that is not wide:
    # each returned column is independent of the columns before it, and
    # each skipped column depends on them; an array of rows gives the same
    fld, rows = case
    raw = [[fld.raw(x) for x in row] for row in rows]
    if transpose:
        raw = [list(col) for col in zip(*raw)]
    found = pivots(fld, raw)
    assert found.dtype == np.intp
    array = np.array(raw, dtype=np.int64 if fld.is_prime_field else object)
    assert pivots(fld, array).tolist() == found.tolist()
    if fld.is_prime_field and len(raw[0]) > len(raw):
        assert len(found) == oracle_rank(fld, raw)
        return
    before = Echelon(fld)
    for j in range(len(raw[0])):
        column = [row[j] for row in raw]
        assert (j in found) == (not before.contains(column)), j
        before.add(column)


def test_null_space_annihilates_rows():
    rows = [[1, 2, 3], [4, 5, 6]]
    ns = null_space(QQ, rows)
    assert ns == [[Fraction(1), Fraction(-2), Fraction(1)]]
    for row in rows:
        assert sum(a * b for a, b in zip(row, ns[0])) == 0
    # over GF(101) the free column is 2 and the pivots are back-substituted
    assert null_space(GF101, [[2, 1, 0], [0, 1, 1]]) == [[51, 100, 1]]


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


def test_monomials_leave_no_garbage():
    # built without a self-referencing closure, so a call leaves no cycle
    # for the collector; the order is descending lex on the exponents
    gc.collect()
    gc.disable()
    try:
        got = monomials(4, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert got == sorted((e for e in itertools.product(range(4), repeat=4) if sum(e) == 3),
                         reverse=True)


def test_monomial_values_alignment():
    pt = [2, 3]
    vals = monomial_values(QQ, pt, 3)
    assert [v for v in vals] == [8, 12, 18, 27]
    vals7 = monomial_values(GF7, [3, 4], 2)
    assert vals7 == [2, 5, 2]  # 9, 12, 16 mod 7


def _array_points(fld, rng, nvars):
    """Six points as `monomial_products` takes them, with its modulus: int64
    residues over GF(p), Python ints (of either sign) and None over Q."""
    if fld.is_prime_field:
        pts = [[rng.randrange(fld.p) for _ in range(nvars)] for _ in range(6)]
        return pts, np.array(pts, dtype=np.int64), fld.p
    pts = [[rng.randint(-999, 999) for _ in range(nvars)] for _ in range(6)]
    return pts, np.array(pts, dtype=object), None


def _rows(exponents) -> np.ndarray:
    """Exponent tuples as the int array of rows that `monomial_products` takes."""
    return np.array(exponents, dtype=np.intp).reshape(len(exponents), -1)


@pytest.mark.parametrize("fld", [GF7, GF101, GF_M31, QQ], ids=repr)
@pytest.mark.parametrize("nvars, m", [(1, 3), (2, 1), (3, 4), (5, 3), (9, 2)])
def test_monomial_table_rows_are_monomial_values(fld, nvars, m):
    # the products of every degree-(m-1) monomial with a variable are every
    # degree-m monomial: a row per point, in monomials() order
    rng = random.Random(nvars * 10 + m)
    points, array, p = _array_points(fld, rng, nvars)
    table, exponents = monomial_products(array, _rows(monomials(nvars, m - 1)), p)
    assert table.dtype == array.dtype
    assert [tuple(e) for e in exponents.tolist()] == monomials(nvars, m)
    assert table.tolist() == [monomial_values(fld, pt, m) for pt in points]


@pytest.mark.parametrize("fld", [GF7, GF101, GF_M31, QQ], ids=repr)
@pytest.mark.parametrize("nvars, m", [(1, 3), (2, 1), (3, 4), (5, 3), (9, 2)])
def test_monomial_products_are_monomial_values(fld, nvars, m):
    # every product x_i * mu of a variable and a chosen degree-(m-1)
    # monomial, once each, in monomials() order
    rng = random.Random(nvars * 10 + m)
    points, array, p = _array_points(fld, rng, nvars)
    lower = monomials(nvars, m - 1)
    level = monomials(nvars, m)
    for size in (1, len(lower) // 2 + 1, len(lower)):
        basis = rng.sample(lower, size)
        values, exponents = monomial_products(array, _rows(basis), p)
        products = {tuple(e + (i == k) for k, e in enumerate(mu))
                    for mu in basis for i in range(nvars)}
        assert [tuple(e) for e in exponents.tolist()] == sorted(products, key=level.index)
        assert values.tolist() == [
            [monomial_values(fld, pt, m)[level.index(tuple(e))] for e in exponents.tolist()]
            for pt in points]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GF7, GF_M31, QQ]), st.integers(1, 5), st.integers(0, 4),
       st.randoms(use_true_random=False))
def test_monomial_products_follow_monomials_order(fld, nvars, degree, rng):
    # for any nonempty set of monomials of one degree, listed in any order,
    # the products come back once each, in monomials() order, with the
    # values that `monomial_values` gives them
    points, array, p = _array_points(fld, rng, nvars)
    lower = monomials(nvars, degree)
    basis = rng.sample(lower, rng.randint(1, len(lower)))
    values, exponents = monomial_products(array, _rows(basis), p)
    level = monomials(nvars, degree + 1)
    got = [tuple(e) for e in exponents.tolist()]
    where = [level.index(e) for e in got]
    assert where == sorted(set(where))
    assert set(got) == {tuple(e + (i == k) for k, e in enumerate(mu))
                        for mu in basis for i in range(nvars)}
    full = [monomial_values(fld, pt, degree + 1) for pt in points]
    assert values.tolist() == [[row[k] for k in where] for row in full]


# ---------------------------------------------------------------- polynomials


def test_poly_eval_product_of_variables():
    f = MPoly(QQ, 2, {(1, 0): 1}) * MPoly(QQ, 2, {(0, 1): 1})
    assert poly_eval(f, [2, 3]) == 6


def test_poly_eval_zero_poly():
    z = MPoly.zero(QQ, 3)
    assert poly_eval(z, [5, 6, 7]) == 0


def test_poly_eval_mod_p():
    # x0^2 + x1^2 at (3,4) over GF(7): 25 mod 7 = 4 (hand arithmetic)
    x0 = MPoly(GF7, 2, {(1, 0): 1})
    x1 = MPoly(GF7, 2, {(0, 1): 1})
    f = x0 * x0 + x1 * x1
    assert poly_eval(f, [3, 4]) == 4


def test_poly_diff_power():
    x0 = MPoly(QQ, 1, {(1,): 1})
    cube = x0 * x0 * x0
    assert poly_diff(cube, 0) == MPoly(QQ, 1, {(2,): 3})


def test_poly_diff_absent_variable():
    f = MPoly(QQ, 2, {(2, 0): 1})  # x0^2
    assert not poly_diff(f, 1).terms


def test_poly_diff_mixed():
    # d/dx0 (x0^2 x1 + x0) = 2 x0 x1 + 1 (sum + product rule by hand)
    f = MPoly(QQ, 2, {(2, 1): 1, (1, 0): 1})
    assert poly_diff(f, 0) == MPoly(QQ, 2, {(1, 1): 2, (0, 0): 1})


def test_zero_coefficients_dropped():
    f = MPoly(QQ, 2, {(1, 0): 0, (0, 1): 2})
    assert (1, 0) not in f.terms
    g = MPoly(GF7, 1, {(1,): 7})
    assert not g.terms


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


@st.composite
def wide_coefficient_polys(draw, fld, nvars=3):
    """A few MPolys over `fld` with residues from the whole range (both
    16-bit halves in use), plus their partial derivatives."""
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {}
        for _ in range(draw(st.integers(0, 6))):
            exp = tuple(draw(st.integers(0, 5)) for _ in range(nvars))
            terms[exp] = draw(st.integers(0, fld.p - 1))
        polys.append(MPoly(fld, nvars, terms))
    return polys + [poly_diff(f, var) for f in polys for var in range(nvars)]


@pytest.mark.parametrize("fld", [GF_BIGNUMPY, GF_M31], ids=["GF(1000003)", "GF(2^31-1)"])
def test_mpoly_array_equals_poly_eval(fld):
    @given(wide_coefficient_polys(fld), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def check(polys, seed):
        rng = random.Random(seed)
        p = fld.p
        points = [[rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(3)]
                  for _ in range(rng.randint(1, 6))]
        got = MPolyArray(polys)(np.array(points, dtype=np.int64))
        assert got.dtype == np.int64 and got.shape == (len(points), len(polys))
        assert got.tolist() == [[poly_eval(f, pt) for f in polys] for pt in points]
        assert MPolyArray(polys)(points).tolist() == got.tolist()  # a list of points too

    check()


def test_mpoly_array_at_its_monomial_limit():
    # 2^15 distinct monomials with coefficients p - 1 at the point (p-1, p-1):
    # the largest sums the split coefficients allow
    p = (1 << 31) - 1
    fld = PrimeField(p)
    f = MPoly(fld, 2, {(i, j): p - 1 for i in range(128) for j in range(256)})
    pt = np.array([[p - 1, p - 1]], dtype=np.int64)
    # (p-1)^(i+j) = (-1)^(i+j): the terms cancel in pairs, leaving 0
    assert MPolyArray([f])(pt).tolist() == [[poly_eval(f, [p - 1, p - 1])]] == [[0]]
    # the odd terms alone: 2^14 products (p-1)(p-1), all on one side
    g = MPoly(fld, 2, {(i, j): p - 1 for i in range(128) for j in range(256) if (i + j) % 2})
    assert MPolyArray([g])(pt).tolist() == [[poly_eval(g, [p - 1, p - 1])]] == [[1 << 14]]
    with pytest.raises(ValueError, match="at most 32768 distinct monomials"):
        MPolyArray([f, MPoly(fld, 2, {(200, 0): 1})])


def test_mpoly_array_rejects_other_fields_and_shapes():
    with pytest.raises(FieldMismatchError):
        MPolyArray([MPoly(GF7, 1, {(1,): 1}), MPoly(GF101, 1, {(1,): 1})])
    with pytest.raises(ValueError, match="variable counts"):
        MPolyArray([MPoly(GF7, 1, {(1,): 1}), MPoly(GF7, 2, {(1, 0): 1})])
    with pytest.raises(ValueError, match="2-vectors"):
        MPolyArray([MPoly(GF7, 2, {(1, 0): 1})])(np.zeros((3, 3), dtype=np.int64))


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_mpoly_array_over_q_is_one_denominator_times_poly_eval(seed):
    rng = random.Random(seed)
    polys = []
    for _ in range(rng.randint(1, 4)):
        terms = {
            tuple(rng.randrange(4) for _ in range(3)): Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            for _ in range(rng.randint(0, 5))
        }
        polys.append(MPoly(QQ, 3, terms))
    polys += [poly_diff(f, var) for f in polys for var in range(3)]
    den = 1
    for f in polys:
        for c in f.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
    scaled = MPolyArray(polys)
    assert scaled.terms == [{e: int(c * den) for e, c in f.terms.items()} for f in polys]
    assert all(type(c) is int for t in scaled.terms for c in t.values())
    points = [[rng.randint(-999, 999) for _ in range(3)] for _ in range(rng.randint(1, 4))]
    got = scaled(points).tolist()
    assert all(type(x) is int for row in got for x in row)
    assert got == [[den * poly_eval(f, pt) for f in polys] for pt in points]


def test_mpoly_array_over_q_rejects_other_fields_and_shapes():
    with pytest.raises(FieldMismatchError):
        MPolyArray([MPoly(QQ, 1, {(1,): 1}), MPoly(GF7, 1, {(1,): 1})])
    with pytest.raises(ValueError, match="variable counts"):
        MPolyArray([MPoly(QQ, 1, {(1,): 1}), MPoly(QQ, 2, {(1, 0): 1})])
    with pytest.raises(ValueError, match="2-vectors"):
        MPolyArray([MPoly(QQ, 2, {(1, 0): 1})])([[1]])


@pytest.mark.parametrize("fld", [GF101, QQ], ids=repr)
def test_poly_eval_coerces_the_point(fld):
    # 3 x0^2 x1 + x1^3: negative and Fraction parameters are coerced into
    # the field, a Fraction over GF(p) as numerator / denominator mod p
    f = MPoly(fld, 2, {(2, 1): 3, (0, 3): 1})
    for x, y in [(-3, 7), (Fraction(1, 2), 4), (0, 1), (5, Fraction(-2, 3))]:
        assert poly_eval(f, [x, y]) == fld.raw(3 * Fraction(x) ** 2 * y + Fraction(y) ** 3)
    with pytest.raises(ValueError, match="point length 3 != nvars 2"):
        poly_eval(f, (1, 2, 3))
    with pytest.raises(TypeError, match="cannot coerce"):
        poly_eval(f, (1, 0.5))


def test_poly_eval_point_length_mismatch():
    f = MPoly(QQ, 2, {(1, 0): 1})
    with pytest.raises(ValueError, match="point length 1 != nvars 2"):
        poly_eval(f, [1])


def test_poly_field_mismatch():
    with pytest.raises(FieldMismatchError):
        MPoly(QQ, 1, {(1,): 1}) + MPoly(GF7, 1, {(1,): 1})
