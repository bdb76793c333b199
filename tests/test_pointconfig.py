"""Tests for point configurations: Hilbert functions, regularity, position."""

import itertools
import random
from fractions import Fraction

import pytest
from helpers import (
    coordinate_simplex,
    evaluation_matrix,
    extract_three_regular_by_scan,
    fraction_elimination_rank,
    nu_vector_by_rank,
    rank_mod_p,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypersurfaces.exactcore import QQ, Echelon, Matrix, PrimeField, binomial, pivots
from hypersurfaces.pointconfig import (
    ExtractionError,
    PointConfig,
    _independent_subsets,
    _normalize,
    extract_three_regular,
)

GF101 = PrimeField(101)


def rnc_points(field, r, params):
    """Points on the degree-r rational normal curve at given parameters."""
    vecs = []
    for t in params:
        vecs.append([field.raw(t) ** (r - i) * 0 + pow_int(field, t, r, i) for i in range(r + 1)])
    return PointConfig(field, vecs)


def pow_int(field, t, r, i):
    # s^(r-i) t^i at [1 : t]
    v = field.raw(1)
    for _ in range(i):
        v = field.mul(v, field.raw(t))
    return v


# ---------------------------------------------------------------- construction


def test_rejects_zero_vector():
    with pytest.raises(ValueError):
        PointConfig(QQ, [[0, 0, 0]])


def test_rejects_projectively_equal_points():
    with pytest.raises(ValueError):
        PointConfig(QQ, [[1, 2, 3], [2, 4, 6]])


def test_normalization_first_nonzero_one():
    cfg = PointConfig(QQ, [[0, 2, 4]])
    assert cfg.points[0] == (0, 1, 2)


@pytest.mark.parametrize("field", [GF101, QQ], ids=repr)
def test_normalize_is_idempotent(field):
    rng = random.Random(5)
    for _ in range(50):
        vec = [rng.randrange(-3, 4) for _ in range(4)]
        if not any(vec):
            continue
        once = _normalize(field, vec)
        assert once == _normalize(field, [x * 7 for x in vec])
        assert next(x for x in once if x != 0) == 1
        twice = _normalize(field, once)
        assert twice == once
        assert [type(x) for x in twice] == [type(x) for x in once]


# ---------------------------------------------------------------- span


def test_span_dim_coordinate_points():
    cfg = coordinate_simplex(QQ, 3)
    assert cfg.span_dim() == 3


def test_span_dim_collinear():
    vecs = [[1, t, 0, 0] for t in range(5)]
    cfg = PointConfig(QQ, vecs)
    assert cfg.span_dim() == 1


def test_span_dim_twisted_cubic_samples():
    cfg = rnc_points(QQ, 3, [0, 1, 2, 3, 4, 5, 6])
    assert cfg.span_dim() == 3  # rank oracle: Vandermonde-like full rank


# ---------------------------------------------------------------- hilbert


def test_hilbert_three_coordinate_points_plane():
    cfg = coordinate_simplex(QQ, 2)
    assert cfg.hilbert(2) == 3
    assert cfg.h0_ideal(2) == 6 - 3  # xy, xz, yz


def test_hilbert_degree_zero_is_one():
    cfg = rnc_points(GF101, 3, [1, 2, 3])
    assert cfg.hilbert(0) == 1


def test_hilbert_five_points_on_conic():
    # five distinct points on the conic xz = y^2: exactly one conic through them
    vecs = [[1, t, t * t] for t in [0, 1, 2, 3, 4]]
    cfg = PointConfig(QQ, vecs)
    assert cfg.hilbert(2) == 5
    assert cfg.h0_ideal(2) == 1


def test_hilbert_monotone_until_full():
    cfg = rnc_points(GF101, 4, [0, 1, 2, 3, 4, 5, 6, 7, 8])
    prev = 0
    reg = cfg.regularity()
    for m in range(0, reg + 2):
        h = cfg.hilbert(m)
        assert h >= prev
        prev = h
        if m >= reg - 1:
            assert h == len(cfg)


# ---------------------------------------------------------------- h0_ideal


def test_h0_ideal_coordinate_points():
    for c in (2, 3, 4):
        cfg = coordinate_simplex(QQ, c)
        assert cfg.h0_ideal(2) == binomial(c + 2, 2) - (c + 1)


def test_h0_ideal_lgp_points_degree_two():
    # 2c+1 points in linearly general position on a rational normal curve
    for c in (2, 3):
        cfg = rnc_points(GF101, c, list(range(2 * c + 1)))
        assert cfg.h0_ideal(2) == binomial(c + 2, 2) - (2 * c + 1)


def test_h0_ideal_many_semi_uniform_points_bounded():
    c = 3
    cfg = rnc_points(GF101, c, list(range(2 * c + 4)))
    assert cfg.h0_ideal(2) <= binomial(c + 2, 2) - (2 * c + 1)


# ---------------------------------------------------------------- regularity


def test_regularity_coordinate_points():
    assert coordinate_simplex(QQ, 3).regularity() == 2


def test_regularity_lgp_2cplus1_points():
    c = 3
    cfg = rnc_points(GF101, c, list(range(2 * c + 1)))
    assert cfg.regularity() == 3


def test_regularity_collinear_points():
    # oracle: on a line, degree-m forms restrict to univariate degree <= m,
    # so d+1 collinear points reach full rank first at degree d
    # (univariate Vandermonde of size (d+1) x (m+1))
    for npts in (3, 4, 5):
        vecs = [[1, t, 0] for t in range(npts)]
        cfg = PointConfig(QQ, vecs)
        for m in range(npts + 1):
            vandermonde = [[t**j for j in range(m + 1)] for t in range(npts)]
            assert cfg.hilbert(m) == len(pivots(QQ, vandermonde)) == min(npts, m + 1)
        assert cfg.regularity() == npts


# ---------------------------------------------------------------- nu vector


def test_nu_vector_coordinate_points():
    cfg = coordinate_simplex(QQ, 3)
    nv = cfg.nu_vector()
    assert nv.values == (1, 2, 3)
    assert nv.semi_uniform


def test_nu_vector_rnc_points():
    c = 3
    cfg = rnc_points(GF101, c, list(range(2 * c + 1)))
    nv = cfg.nu_vector()
    assert nv.semi_uniform
    assert nv.values == (1, 2, 3)  # linearly general position


def test_nu_vector_three_collinear():
    cfg = PointConfig(QQ, [[1, 0, 0], [1, 1, 0], [1, 2, 0], [0, 0, 1]])
    nv = cfg.nu_vector()
    assert not nv.semi_uniform
    assert nv.values[1] is None  # lines through 2 points contain 2 or 3


def test_nu_vector_size_cap():
    vecs = [[1, t, t * t] for t in range(17)]
    cfg = PointConfig(GF101, vecs)
    with pytest.raises(ValueError):
        cfg.nu_vector()
    nv = cfg.nu_vector(force=True)
    assert nv.semi_uniform  # conic points: every line meets in exactly 2


def test_semi_uniform_implies_lgp_for_small_sets():
    # for d <= 2c, semi-uniform position forces nu(i) = i+1
    for c, d in [(2, 4), (3, 6)]:
        cfg = rnc_points(GF101, c, list(range(d)))
        nv = cfg.nu_vector()
        if nv.semi_uniform:
            assert nv.values == tuple(i + 1 for i in range(c))


# ---------------------------------------------------------------- separation


def test_separates_coordinate_points_linear():
    cfg = coordinate_simplex(QQ, 2)
    for i in range(3):
        assert cfg.separates_point(i, 1)


def test_separates_collinear_middle_fails_quadratically():
    cfg = PointConfig(QQ, [[1, 0, 0], [1, 1, 0], [1, 2, 0], [1, 3, 0]])
    assert not cfg.separates_point(1, 2)


def test_separation_equivalent_to_three_regularity():
    configs = [
        coordinate_simplex(QQ, 3),
        rnc_points(GF101, 2, [0, 1, 2, 3, 4]),
        rnc_points(GF101, 3, [0, 1, 2, 3, 4, 5, 6]),
        PointConfig(QQ, [[1, 0, 0], [1, 1, 0], [1, 2, 0], [1, 3, 0]]),
    ]
    for cfg in configs:
        all_separated = all(
            cfg.separates_point(i, 2) for i in range(len(cfg))
        )
        assert all_separated == (cfg.regularity() <= 3)


def test_quadric_count_bounded_by_castelnuovo():
    # any configuration containing the coordinate simplex lies on at most
    # C(c+1, 2) independent quadrics
    c = 3
    frame = [[1 if j == i else 0 for j in range(c + 1)] for i in range(c + 1)]
    extra = [[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27]]
    cfg = PointConfig(QQ, frame + extra)
    assert cfg.h0_ideal(2) <= binomial(c + 1, 2)


# ---------------------------------------------------------------- extraction


def test_extract_from_exactly_2cplus1_lgp_points():
    c = 3
    cfg = rnc_points(GF101, c, list(range(2 * c + 1)))
    got = extract_three_regular(cfg)
    assert got == cfg  # the set itself is already certified


def test_extract_from_nine_twisted_conic_points():
    # c = 2: nine points on a conic, need a certified 5-point subset
    cfg = PointConfig(GF101, [[1, t, t * t] for t in range(9)])
    got = extract_three_regular(cfg)
    assert len(got) == 5
    assert got.span_dim() == 2
    assert got.regularity() <= 3


def test_extract_deterministic_lexicographic():
    cfg = PointConfig(GF101, [[1, t, t * t] for t in range(9)])
    a = extract_three_regular(cfg)
    b = extract_three_regular(cfg)
    assert a == b
    # points on a conic are in LGP, so the first five indices certify
    assert a.points == cfg.points[:5]


def test_extract_rejects_independent_subset_in_a_hyperplane():
    # in P^4 the first 9 points lie in x4 = 0 yet impose 9 conditions on
    # quadrics: only the spanning check turns them down
    flat = [[17, 72, 97, 8], [32, 15, 63, 97], [57, 60, 83, 48], [100, 26, 12, 62],
            [3, 49, 55, 77], [97, 98, 0, 89], [57, 34, 92, 29], [75, 13, 40, 3],
            [2, 3, 83, 69]]
    cfg = PointConfig(GF101, [v + [0] for v in flat] + [[0, 0, 0, 0, 1], [1, 1, 1, 1, 1]])
    assert cfg.subset(range(9)).hilbert(2) == 9
    got = extract_three_regular(cfg)
    assert got.points == cfg.points[:8] + cfg.points[9:10]
    assert got == extract_three_regular_by_scan(cfg)


def test_extract_failure_reported():
    # 2c+1 points that cannot span: all on a line in P^2 plus one off point
    vecs = [[1, t, 0] for t in range(4)] + [[0, 0, 1]]
    cfg = PointConfig(QQ, vecs)
    with pytest.raises(ExtractionError):
        extract_three_regular(cfg)


def test_extract_requires_spanning_input():
    vecs = [[1, t, 0, 0] for t in range(7)]
    cfg = PointConfig(QQ, vecs)
    with pytest.raises(ValueError):
        extract_three_regular(cfg)


def test_extract_from_projected_curve_points():
    # 2c+2 points of P^3 sampled on a projected rational normal curve
    from hypersurfaces.varieties import (
        project_from_general_point,
        rational_normal_curve,
    )

    curve = project_from_general_point(rational_normal_curve(4, GF101), seed=3)
    cfg = curve.sample_points(8, seed=2)
    got = extract_three_regular(cfg)
    assert len(got) == 7
    assert got.span_dim() == 3
    assert got.regularity() <= 3


# ---------------------------------------------------------------- text format


def test_text_round_trip_prime_field():
    cfg = rnc_points(GF101, 3, [0, 1, 2, 3, 4, 5, 6])
    text = cfg.to_text()
    back = PointConfig.from_text(text)
    assert back == cfg
    assert back.to_text() == text  # bit-exact round trip


def test_text_round_trip_rationals(tmp_path):
    cfg = PointConfig(QQ, [[2, 4, 6], [0, 3, 9], [5, 0, 0]])
    path = tmp_path / "pts.txt"
    cfg.write_text(path)
    back = PointConfig.read_text(path)
    assert back == cfg
    assert back.to_text() == cfg.to_text()


def test_text_format_errors():
    with pytest.raises(ValueError):
        PointConfig.from_text("field Q\n2 1\n1 2\n")  # wrong coordinate count
    with pytest.raises(ValueError):
        PointConfig.from_text("fields Q\n2 1\n1 2 3\n")
    with pytest.raises(ValueError):
        PointConfig.from_text("field Q\n2 2\n1 2 3\n")  # missing point line


# ---------------------------------------------------------------- helpers


def test_evaluation_matrix_shape():
    cfg = coordinate_simplex(QQ, 2)
    rows = evaluation_matrix(QQ, cfg.points, 2)
    assert (len(rows), len(rows[0])) == (3, 6)


# ---------------------------------------------------------------- properties


@st.composite
def random_configs(draw):
    c = draw(st.integers(2, 3))
    npts = draw(st.integers(2, 7))
    vecs = []
    for _ in range(npts):
        vec = [draw(st.integers(0, 100)) for _ in range(c + 1)]
        if all(v == 0 for v in vec):
            vec[0] = 1
        vecs.append(vec)
    return vecs


@given(random_configs())
@settings(max_examples=60, deadline=None)
def test_hilbert_properties_random(vecs):
    try:
        cfg = PointConfig(GF101, vecs)
    except ValueError:
        return  # repeated projective points: rejected by contract
    reg = cfg.regularity()
    prev = 0
    for m in range(0, reg + 1):
        h = cfg.hilbert(m)
        assert prev <= h <= len(cfg)
        assert h + cfg.h0_ideal(m) == binomial(cfg.c + m, m) if m >= 1 else True
        prev = h
    assert cfg.hilbert(reg - 1) == len(cfg)
    text_round = PointConfig.from_text(cfg.to_text())
    assert text_round == cfg


# ------------------------------------------------ against the rank oracles

ORACLE_FIELDS = [PrimeField(5), PrimeField(7), QQ]


@st.composite
def coincident_configs(draw, min_points=None):
    """Up to 2c+3 distinct points of P^2 or P^3 over GF(5), GF(7) or QQ,
    drawn from `min_points` (default 2c+1) on before repeats are dropped.
    Small coordinates, points drawn on the line through the first two and
    points drawn on the plane through the first three make collinear and
    coplanar coincidences common."""
    fld = draw(st.sampled_from(ORACLE_FIELDS))
    c = draw(st.integers(2, 3))
    coord = st.integers(0, fld.p - 1) if fld.is_prime_field else st.integers(-2, 2)
    low = 2 * c + 1 if min_points is None else min_points
    vecs = []
    for _ in range(draw(st.integers(low, 2 * c + 3))):
        spanned = draw(st.integers(0, 4)) + 2  # a combination of the first 2 or 3 points
        if spanned <= min(3, len(vecs)):
            weights = [draw(coord) for _ in range(spanned)]
            vecs.append([sum(w * x for w, x in zip(weights, xs)) for xs in zip(*vecs[:spanned])])
        else:
            vecs.append(draw(st.lists(coord, min_size=c + 1, max_size=c + 1)))
    distinct, seen = [], set()
    for vec in vecs:
        if any(fld.raw(x) != 0 for x in vec):
            key = PointConfig(fld, [vec]).points[0]
            if key not in seen:
                seen.add(key)
                distinct.append(vec)
    assume(distinct)
    return PointConfig(fld, distinct)


@given(coincident_configs(min_points=1))
@settings(max_examples=60, deadline=None)
def test_nu_vector_matches_rank_oracle(cfg):
    assert cfg.nu_vector() == nu_vector_by_rank(cfg)


def _rank_by_elimination(fld, rows) -> int:
    if fld.is_prime_field:
        return rank_mod_p(rows, fld.p)
    return fraction_elimination_rank(rows)


@given(coincident_configs(min_points=1))
@settings(max_examples=80, deadline=None)
def test_span_and_hilbert_match_rank_oracle(cfg):
    # plain Gauss-Jordan on the coordinates and on the monomial evaluation
    # matrix, against the library's ranks of the same rows
    fld = cfg.field
    assert cfg.span_dim() == _rank_by_elimination(fld, cfg.points) - 1
    for m in range(4):
        rows = evaluation_matrix(fld, cfg.points, m)
        assert cfg.hilbert(m) == _rank_by_elimination(fld, rows), m


def _hilbert_function_by_monomial_values(cfg) -> list:
    """Ranks of every degree-m monomial's values, point by point, for m = 0,
    1, ... up to the first that reaches |G|."""
    values = []
    while not values or values[-1] < len(cfg):
        rows = evaluation_matrix(cfg.field, cfg.points, len(values))
        values.append(_rank_by_elimination(cfg.field, rows))
    return values


@given(coincident_configs(min_points=1))
@settings(max_examples=80, deadline=None)
def test_hilbert_function_matches_monomial_values_rank(cfg):
    # each degree's basis is carried to the next, and ranks as all of its
    # degree's monomials do
    assert cfg.hilbert_function() == _hilbert_function_by_monomial_values(cfg)


@pytest.mark.parametrize("field", [PrimeField(10007), QQ], ids=repr)
def test_hilbert_function_of_collinear_and_curve_points(field):
    # five collinear points, then points of a rational normal quartic with
    # rational coordinates over Q: the Hilbert function rises to 13 at m = 4
    line = [[1, 2 * t, 3, -t, 5] for t in range(1, 6)]
    curve = [[1, *(Fraction(t, 3) ** i for i in range(1, 5))] for t in range(2, 10)]
    if field.is_prime_field:
        curve = [[field.raw(x) for x in q] for q in curve]
    cfg = PointConfig(field, line + curve)
    assert cfg.hilbert_function() == _hilbert_function_by_monomial_values(cfg)
    assert cfg.hilbert_function()[-1] == len(cfg) == 13


@pytest.mark.parametrize("field", ORACLE_FIELDS + [PrimeField(10007)], ids=repr)
def test_point_set_ranks_build_no_matrix(field, monkeypatch):
    # span, Hilbert function, nu-vector and extraction rank plain rows
    cfg = PointConfig(field, [[1, t, t * t, t ** 3] for t in range(1, 5)]
                      + [[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 1], [1, 3, 1, 3]])

    def refuse(self, *args, **kwargs):
        raise AssertionError("a point-set rank built a Matrix")

    span = _rank_by_elimination(field, cfg.points) - 1
    hilbert = [_rank_by_elimination(field, evaluation_matrix(field, cfg.points, m))
               for m in range(4)]
    nu, extracted = nu_vector_by_rank(cfg), _extraction(extract_three_regular_by_scan, cfg)
    monkeypatch.setattr(Matrix, "__init__", refuse)
    assert cfg.span_dim() == span
    assert [cfg.hilbert(m) for m in range(4)] == hilbert
    assert cfg.nu_vector() == nu
    assert _extraction(extract_three_regular, cfg) == extracted


def _extraction(fn, cfg):
    try:
        return fn(cfg).points
    except ExtractionError:
        return ExtractionError
    except ValueError:
        return ValueError


@given(coincident_configs())
@settings(max_examples=80, deadline=None)
def test_extract_matches_scan_oracle(cfg):
    assert _extraction(extract_three_regular, cfg) == _extraction(
        extract_three_regular_by_scan, cfg
    )


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_extract_failure_matches_scan_oracle(field):
    # 5 collinear points of a plane and 1 off the line: every 5-subset
    # either holds 4 collinear points or misses the span
    vecs = [[1, t, 0] for t in range(5)] + [[1, 1, 1]]
    cfg = PointConfig(field, vecs)
    assert _extraction(extract_three_regular, cfg) is ExtractionError
    assert _extraction(extract_three_regular_by_scan, cfg) is ExtractionError
    assert cfg.nu_vector() == nu_vector_by_rank(cfg)


# ---------------------------------------------------------------- subset search

GF10007 = PrimeField(10007)

# P^3: three collinear points, two more on a plane through their line, then
# three off that plane
DEGENERATE_P3 = [
    [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
    [0, 0, 1, 0], [1, 1, 1, 0],
    [0, 0, 0, 1], [1, 2, 3, 4], [1, 3, 2, 1],
]


@pytest.mark.parametrize("field", [PrimeField(5), GF10007, QQ], ids=repr)
def test_independent_subsets_are_the_full_rank_combinations(field):
    cfg = PointConfig(field, DEGENERATE_P3)
    rows = cfg.points
    for size in range(len(rows) + 1):
        found = list(_independent_subsets(field, rows, size))
        expected = [
            s for s in itertools.combinations(range(len(rows)), size)
            if len(pivots(field, [rows[i] for i in s])) == size
        ]
        assert [s for s, _ in found] == expected
        for s, span in found:
            assert len(span) == size
            assert all(span.contains(rows[i]) for i in s)


def test_dependent_prefix_is_never_extended(monkeypatch):
    cfg = PointConfig(GF10007, DEGENERATE_P3)
    index = {q: i for i, q in enumerate(cfg.points)}
    held = {}  # id(echelon) -> (echelon, indices added to it)
    tried = []
    add, copy = Echelon.add, Echelon.copy

    def indices(ech):
        return held[id(ech)][1] if id(ech) in held else ()

    def counting_copy(self):
        out = copy(self)
        held[id(out)] = (out, indices(self))  # keeps `out` alive, so ids stay unique
        return out

    def counting_add(self, vec):
        candidate = indices(self) + (index[tuple(vec)],)
        tried.append(candidate)
        grew = add(self, vec)
        if grew:
            held[id(self)] = (self, candidate)
        return grew

    monkeypatch.setattr(Echelon, "copy", counting_copy)
    monkeypatch.setattr(Echelon, "add", counting_add)
    found = [s for s, _ in _independent_subsets(GF10007, cfg.points, 4)]
    monkeypatch.undo()
    assert found and all(s[:3] != (0, 1, 2) for s in found)
    assert (0, 1, 2) in tried  # the dependent prefix is tried once ...
    assert not [t for t in tried if t[:3] == (0, 1, 2) and len(t) > 3]  # ... and never extended
    # every add extends an independent prefix, each within reach of size 4
    n = len(cfg.points)
    expected = sorted(
        prefix + (i,)
        for k in range(4)
        for prefix in itertools.combinations(range(n), k)
        if k == 0 or len(pivots(GF10007, [cfg.points[j] for j in prefix])) == k
        for i in range((prefix[-1] + 1) if prefix else 0, n - (4 - k) + 1)
    )
    assert sorted(tried) == expected


def _rnc_config(seed, c, n):
    params = random.Random(seed).sample(range(GF10007.p), n)
    return [[pow(t, i, GF10007.p) for i in range(c + 1)] for t in params]


def _collinear_then_rnc(seed, c, general):
    line = [[(1 + lam * i) % GF10007.p for i in range(c + 1)] for lam in range(1, 6)]
    return line + _rnc_config(seed, c, general)


@pytest.mark.parametrize(
    "vecs",
    [
        _rnc_config(1, 3, 10),
        _rnc_config(2, 3, 12),
        _rnc_config(3, 4, 9),
        _rnc_config(4, 4, 11),
        _rnc_config(5, 5, 11),
        _collinear_then_rnc(6, 3, 7),
    ],
    ids=["rnc c=3 n=10", "rnc c=3 n=12", "rnc c=4 n=9", "rnc c=4 n=11",
         "rnc c=5 n=11", "collinear+rnc c=3 n=12"],
)
def test_point_set_searches_match_oracles(vecs):
    cfg = PointConfig(GF10007, vecs)
    assert cfg.nu_vector() == nu_vector_by_rank(cfg)
    assert _extraction(extract_three_regular, cfg) == _extraction(
        extract_three_regular_by_scan, cfg
    )
