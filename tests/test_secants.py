"""Tests for secant dimensions and deficiency invariants of quadratic embeddings."""

import math

import pytest

from helpers import secant_dims_by_rank, tangent_ranks_by_echelon
from hypersurfaces import exactcore, secants
from hypersurfaces.cohomology import a_m
from hypersurfaces.exactcore import QQ, PrimeField, binomial, monomials, poly_diff
from hypersurfaces.secants import (
    TerraciniError,
    expected_table2_deltas,
    table2_row,
    veronese_square,
    zak_invariants,
)
from hypersurfaces.varieties import (
    elliptic_normal_curve,
    project_from_general_point,
    rational_normal_curve,
    scroll_section_curve,
    scroll_surface,
    veronese_surface,
)

BIGP = PrimeField(1000003)
M31 = PrimeField((1 << 31) - 1)  # the largest prime on the int64 kernel


# ---------------------------------------------------------------- embedding


def test_square_twisted_cubic():
    y = veronese_square(rational_normal_curve(3, BIGP))
    assert y.N == 9
    assert y.N + 1 == binomial(3 + 2, 2) == 10
    assert y.span_dim == 9 - 3 == 6


def test_square_conic():
    y = veronese_square(rational_normal_curve(2, BIGP))
    assert y.N == 5
    assert y.span_dim == 4  # one quadric through a conic


def test_square_veronese_surface():
    y = veronese_square(veronese_surface(BIGP))
    assert y.N == binomial(7, 2) - 1 == 20
    assert y.span_dim == 20 - 6 == 14


@pytest.mark.parametrize("make", [
    lambda f: rational_normal_curve(4, f),
    veronese_surface,
    lambda f: scroll_surface(1, 2, f),
    lambda f: project_from_general_point(scroll_surface(1, 4, f), seed=1),
], ids=["rnc(4)", "veronese", "S(1,2)", "projected S(1,4)"])
@pytest.mark.parametrize("fld", [BIGP, QQ], ids=repr)
def test_products_are_the_basis_monomials(make, fld):
    # x_first * x_second has exponent e_first + e_second, and that is the
    # degree-2 monomial the basis names
    y = veronese_square(make(fld))
    first, second = y.products
    width = y.base.amb + 1
    unit = [tuple(int(i == j) for j in range(width)) for i in range(width)]
    quadrics = monomials(width, 2)
    assert len(first) == len(second) == len(y.basis) == y.span_dim + 1
    for i, j, k in zip(first.tolist(), second.tolist(), y.basis):
        assert i <= j
        assert tuple(a + b for a, b in zip(unit[i], unit[j])) == quadrics[k]


@pytest.mark.parametrize("make, chart", [
    (lambda f: rational_normal_curve(3, f), (1,)),
    (veronese_surface, (1, 2)),
    (lambda f: scroll_surface(1, 2, f), (1, 3)),
], ids=["P^1", "P^2", "P^1 x P^1"])
def test_tangent_rows_are_the_point_and_the_partials_along_the_chart(make, chart):
    # n + 1 rows: the coordinates, then their partials by every variable
    # that does not open a block; ranked at span_dim + 1 columns
    v = make(BIGP)
    y = veronese_square(v)
    partials = tuple(tuple(poly_diff(c, var) for c in v.coords) for var in chart)
    assert len(y.tangent_polys) == v.n + 1
    assert y.tangent_polys == (v.coords, *partials)
    assert len(y.basis) == y.span_dim + 1 == len(set(y.basis))


def test_square_rejects_enumerator_curves():
    with pytest.raises(ValueError):
        veronese_square(elliptic_normal_curve(2, 10007))


# ---------------------------------------------------------------- secant dims


def test_secant_dims_twisted_cubic():
    assert zak_invariants(rational_normal_curve(3, BIGP)).s == {0: 1, 1: 3, 2: 5, 3: 6}


def test_secant_dims_veronese():
    s = zak_invariants(veronese_surface(BIGP)).s
    assert (s[3], s[4], s[5]) == (11, 13, 14)
    y = veronese_square(veronese_surface(BIGP))
    assert secant_dims_by_rank(y, 5, trials=1)[3:] == [11, 13, 14]


def test_secant_dim_small_prime_rejected():
    small = rational_normal_curve(3, PrimeField(10007))
    with pytest.raises(ValueError):
        zak_invariants(small)
    assert zak_invariants(rational_normal_curve(3, BIGP)).s[0] == 1


def test_secant_dim_deterministic():
    y = veronese_surface(BIGP)
    assert zak_invariants(y, seed=4) == zak_invariants(y, seed=4)
    v = project_from_general_point(rational_normal_curve(4, BIGP), seed=3)
    assert zak_invariants(v, seed=5) == zak_invariants(v, seed=5)


def test_trials_below_one_rejected():
    v = rational_normal_curve(3, BIGP)
    with pytest.raises(ValueError, match="need trials >= 1"):
        zak_invariants(v, trials=0)


ORACLE_WITNESSES = [
    *(lambda f, r=r: rational_normal_curve(r, f) for r in range(3, 9)),
    lambda f: scroll_surface(1, 2, f),
    lambda f: scroll_surface(2, 2, f),
    lambda f: scroll_surface(2, 3, f),
    veronese_surface,
    lambda f: project_from_general_point(rational_normal_curve(4, f), seed=3),
    lambda f: project_from_general_point(scroll_surface(1, 4, f), seed=11),
    lambda f: scroll_section_curve(2, 4, 5, f, seed=0),
]


@pytest.mark.parametrize("fld", [BIGP, M31, QQ], ids=["GF(1000003)", "GF(2^31-1)", "Q"])
def test_nested_pass_matches_rank_oracle(fld):
    # one pass gives every s_k up to k2, equal to the stacked rank per k
    for make in ORACLE_WITNESSES:
        v = make(fld)
        inv = zak_invariants(v)
        s = [inv.s[k] for k in range(inv.k2 + 1)]
        assert sorted(inv.s) == list(range(inv.k2 + 1)), v.label
        assert s[-1] == inv.span_dim > s[-2], v.label
        assert s == secant_dims_by_rank(veronese_square(v), inv.k2, trials=1), v.label
        assert all(0 <= b - a <= v.n + 1 for a, b in zip(s, s[1:])), v.label


@pytest.mark.parametrize("fld", [BIGP, M31], ids=["GF(1000003)", "GF(2^31-1)"])
def test_chunked_ranks_match_the_echelon_loop(monkeypatch, fld):
    # every prefix rank, and the stop once the span is filled; the kernel
    # sees only transposes that are not wide, whose pivots are the rows
    # independent of all rows before them
    shapes = []
    kernel = secants._pivots_modp_numpy

    def pivots(rows, p):
        shapes.append(rows.shape)
        return kernel(rows, p)

    monkeypatch.setattr(secants, "_pivots_modp_numpy", pivots)
    for make in ORACLE_WITNESSES:
        y = veronese_square(make(fld))
        for trial in range(3):
            ranks = secants._tangent_ranks(y, 5, trial)
            assert ranks == tangent_ranks_by_echelon(y, 5, trial), y.base.label
            assert ranks[-1] == y.span_dim, y.base.label
        assert shapes and all(cols <= rows == y.span_dim + 1 for rows, cols in shapes), y.base.label
        shapes.clear()


def _denominator(v):
    return math.lcm(*(c.denominator for f in v.coords for c in f.terms.values()))


def test_integer_ranks_over_q_match_the_fraction_loop():
    # over Q each tangent row is D^2 times its rational row, for the common
    # denominator D of the coordinates (76 and 29 for the two projections),
    # so every prefix rank equals the one of the Fraction loop
    denominators = set()
    for make in ORACLE_WITNESSES:
        y = veronese_square(make(QQ))
        denominators.add(_denominator(y.base))
        for trial in range(3):
            ranks = secants._tangent_ranks(y, 5, trial)
            assert ranks == tangent_ranks_by_echelon(y, 5, trial), y.base.label
            assert ranks[-1] == y.span_dim, y.base.label
    assert denominators == {1, 29, 76}


def test_q_ledgers_evaluate_only_integers_at_integer_points(monkeypatch):
    # over Q neither building a variety (its certificate and its counts)
    # nor zak_invariants, a_m or a sample evaluates a polynomial in
    # Fractions: every value comes from the integer coordinates, at
    # parameter points that are Python ints

    def refuse(*args):
        raise AssertionError("a Fraction evaluation on the integer path")

    monkeypatch.setattr(exactcore, "poly_eval", refuse)
    evaluate = exactcore.MPolyArray.__call__
    points_seen = []

    def integer_points(self, points):
        if self.p is not None:  # the ledger prime's reduction
            return evaluate(self, points)
        points = list(points)
        assert all(type(x) is int for point in points for x in point), points
        points_seen.extend(points)
        values = evaluate(self, points)
        assert all(type(x) is int for x in values.flat)
        return values

    monkeypatch.setattr(exactcore.MPolyArray, "__call__", integer_points)
    built = [make(QQ) for make in ORACLE_WITNESSES]
    for v in built:
        zak_invariants(v)
        a_m(v, 3)
        v.sample_points(3 * (v.amb + 1), seed=987)
    assert points_seen


_LIBRARY_DRAW = secants._random_params


def _patched_draws(monkeypatch, zero):
    """Replace the parameter points numbered in `zero` (counting every draw
    from 0) by the origin, whose image is 0; the others are the library's
    draws."""
    count = iter(range(10**6))

    def draw(domain, fld, rng):
        params = _LIBRARY_DRAW(domain, fld, rng)
        return (0,) * len(params) if zero(next(count)) else params

    monkeypatch.setattr(secants, "_random_params", draw)


@pytest.mark.parametrize("fld", [BIGP, M31, QQ], ids=["GF(1000003)", "GF(2^31-1)", "Q"])
@pytest.mark.parametrize("make", [
    lambda f: rational_normal_curve(5, f),
    veronese_surface,
    lambda f: scroll_surface(1, 2, f),
], ids=["rnc(5)", "veronese", "scroll(1,2)"])
def test_zero_points_are_skipped_like_the_echelon_loop(monkeypatch, fld, make):
    # runs of up to 7 zero images, at draws that fall inside and across
    # the library's batches; each path gets a fresh count
    y = veronese_square(make(fld))
    for zero in (lambda k: k % 3 == 1, lambda k: k % 10 < 7, lambda k: k in (0, 5, 6)):
        _patched_draws(monkeypatch, zero)
        got = secants._tangent_ranks(y, 1, 0)
        _patched_draws(monkeypatch, zero)
        assert got == tangent_ranks_by_echelon(y, 1, 0)


@pytest.mark.parametrize("fld", [BIGP, QQ], ids=["GF(1000003)", "Q"])
def test_eight_zero_points_in_a_row_end_the_trial(monkeypatch, fld):
    y = veronese_square(rational_normal_curve(4, fld))
    # the third point is drawn after 8 zero images
    _patched_draws(monkeypatch, lambda k: 2 <= k < 10)
    with pytest.raises(TerraciniError, match="could not sample a nonzero point"):
        secants._tangent_ranks(y, 0, 0)
    _patched_draws(monkeypatch, lambda k: 2 <= k < 10)
    with pytest.raises(TerraciniError, match="could not sample a nonzero point"):
        tangent_ranks_by_echelon(y, 0, 0)


@pytest.mark.parametrize("fld", [BIGP, M31, QQ], ids=["GF(1000003)", "GF(2^31-1)", "Q"])
def test_a_run_that_never_fills_stops_after_span_dim_plus_2_points(monkeypatch, fld):
    # one point over and over: its tangent space is all the run ever spans
    monkeypatch.setattr(secants, "_random_params", lambda domain, f, rng: (1, 2, 3))
    y = veronese_square(veronese_surface(fld))
    assert secants._tangent_ranks(y, 0, 0) == [2] * (y.span_dim + 2)


def _recording(monkeypatch, lower=lambda trial: False):
    """Record the trials zak_invariants samples; runs of the trials picked
    by `lower` lose one rank at k = 1 and 2 (rnc(3): 1,3,5,6 -> 1,2,4,6),
    which breaks Zak's identity but not the rank-sequence check."""
    calls = []
    real = secants._tangent_ranks

    def fake(y, seed, trial):
        run = real(y, seed, trial)
        calls.append((trial, run))
        if lower(trial):
            run = [r - (k in (1, 2)) for k, r in enumerate(run)]
        return run

    monkeypatch.setattr(secants, "_tangent_ranks", fake)
    return calls


def test_each_trial_sampled_once_and_stops_when_filled(monkeypatch):
    calls = _recording(monkeypatch)
    inv = zak_invariants(veronese_surface(BIGP), trials=3, seed=2)
    assert [t for t, _ in calls] == [0, 1, 2]
    for _, run in calls:
        assert run == [inv.s[k] for k in range(inv.k2 + 1)]


def test_retry_reuses_the_first_trials(monkeypatch):
    calls = _recording(monkeypatch, lower=lambda trial: trial < 3)
    inv = zak_invariants(rational_normal_curve(3, BIGP), trials=3)
    assert [t for t, _ in calls] == [0, 1, 2, 3, 4, 5]
    assert inv.trials == 6 and [inv.s[k] for k in range(4)] == [1, 3, 5, 6]


def test_retry_gives_up_after_one_doubling(monkeypatch):
    calls = _recording(monkeypatch, lower=lambda trial: True)
    with pytest.raises(TerraciniError, match="span-count checks failed"):
        zak_invariants(rational_normal_curve(3, BIGP), trials=2)
    assert [t for t, _ in calls] == [0, 1, 2, 3]


def test_secant_dim_carries_a_filled_run_forward(monkeypatch):
    # trial 0 fills the span of rnc(3)^2 at k = 3, trial 1 lags behind: the
    # filled run keeps its rank at every later k, so s_k reaches the span at 3
    runs = {0: [1, 3, 5, 6], 1: [1, 2, 3, 4, 5, 6]}
    monkeypatch.setattr(secants, "_tangent_ranks", lambda y, seed, trial: runs[trial])
    inv = zak_invariants(rational_normal_curve(3, BIGP), trials=2)
    assert inv.s == {0: 1, 1: 3, 2: 5, 3: 6} and inv.k2 == 3 and inv.trials == 2


# ---------------------------------------------------------------- invariants


def test_zak_twisted_cubic():
    inv = zak_invariants(rational_normal_curve(3, BIGP))
    assert (inv.ell2, inv.k2) == (2, 3)
    assert inv.delta[3] == 1
    assert inv.delta2_total == 1
    assert inv.zak4_ok and inv.zak5_ok


def test_zak_veronese():
    inv = zak_invariants(veronese_surface(BIGP))
    assert (inv.ell2, inv.k2) == (3, 5)
    assert (inv.delta[4], inv.delta[5]) == (1, 2)
    assert inv.zak4_ok


def test_zak_projected_quartic():
    v = project_from_general_point(rational_normal_curve(4, BIGP), seed=3)
    inv = zak_invariants(v)
    assert (inv.delta[3], inv.delta[4], inv.k2) == (0, 1, 4)
    assert inv.zak4_ok


def test_zak_general_properties():
    # vanishing below the codimension, the k-c ceiling, strict growth of the
    # deficiency past ell2, and bounded rank growth
    witnesses = [
        rational_normal_curve(3, BIGP),
        rational_normal_curve(4, BIGP),
        scroll_surface(1, 2, BIGP),
        scroll_surface(2, 2, BIGP),
        veronese_surface(BIGP),
        project_from_general_point(rational_normal_curve(4, BIGP), seed=3),
    ]
    for v in witnesses:
        inv = zak_invariants(v)
        assert inv.zak4_ok and inv.zak5_ok
        n, c = inv.n, inv.c
        for k, dk in inv.delta.items():
            if k <= c:
                assert dk == 0
            if c + 1 <= k <= c + n:
                assert dk <= k - c
        assert inv.ell2 >= c
        window = [inv.delta[k] for k in range(inv.ell2 + 1, min(inv.k2, c + n) + 1)]
        assert all(a < b for a, b in zip(window, window[1:]))
        for k in range(1, inv.k2 + 1):
            assert inv.s[k - 1] <= inv.s[k] <= inv.s[k - 1] + n + 1
        # linear tail: once delta_k = k-c happens, it persists and k2 = c+n
        hit = [k for k in range(c + 1, min(inv.k2, c + n) + 1) if inv.delta[k] == k - c]
        if hit:
            k0 = hit[0]
            assert inv.k2 == c + n
            for k in range(k0, c + n + 1):
                assert inv.delta[k] == k - c


def test_zak_rational_pass_matches_prime_pass():
    for make in (
        lambda fld: rational_normal_curve(3, fld),
        lambda fld: veronese_surface(fld),
        lambda fld: project_from_general_point(rational_normal_curve(4, fld), seed=3),
    ):
        inv_p = zak_invariants(make(BIGP))
        inv_q = zak_invariants(make(QQ))
        assert inv_p.s == inv_q.s
        assert inv_p.delta == inv_q.delta
        assert (inv_p.ell2, inv_p.k2) == (inv_q.ell2, inv_q.k2)


# ---------------------------------------------------------------- table rows


def test_expected_table2_rows():
    assert expected_table2_deltas(1, 2, "c+1", "n+1") == {3: 1, 4: 0}
    assert expected_table2_deltas(2, 2, "c+1", "n+1") == {3: 1, 4: 2, 5: 0}
    assert expected_table2_deltas(1, 2, "c+2", "1") == {3: 0, 4: 1}
    assert expected_table2_deltas(2, 3, "c+2", "1") == {4: 0, 5: 1, 6: 2}
    assert expected_table2_deltas(3, 3, "c+2", "n") == {4: 0, 5: 1, 6: 3, 7: 0}
    assert expected_table2_deltas(3, 3, "c+2", "n+1") == {4: 0, 5: 2, 6: 3, 7: 0}
    assert expected_table2_deltas(3, 3, "c+3", "n+1") == {4: 0, 5: 1, 6: 3, 7: 0}
    with pytest.raises(ValueError):
        expected_table2_deltas(2, 3, "c+4", "n")


def test_table2_row_minimal_and_depth_one():
    assert table2_row(rational_normal_curve(3, BIGP), "c+1", "n+1").ok
    assert table2_row(scroll_surface(1, 2, BIGP), "c+1", "n+1").ok
    assert table2_row(veronese_surface(BIGP), "c+1", "n+1").ok
    pq = project_from_general_point(rational_normal_curve(4, BIGP), seed=3)
    assert table2_row(pq, "c+2", "1").ok
    ps = project_from_general_point(scroll_surface(1, 4, BIGP), seed=11)
    assert table2_row(ps, "c+2", "1").ok


def test_table2_row_mismatch_reported():
    cmp = table2_row(rational_normal_curve(3, BIGP), "c+2", "1")
    assert not cmp.ok
    assert cmp.mismatches


# ---------------------------------------------------------------- report


def test_zak_invariants_record():
    inv = zak_invariants(rational_normal_curve(3, BIGP), trials=3, seed=9)
    assert [inv.s[k] for k in sorted(inv.s)] == [1, 3, 5, 6]
    assert [inv.delta[k] for k in sorted(inv.delta)] == [0, 0, 1]
    assert (inv.label, inv.trials, inv.seed) == ("rnc(3)", 3, 9)
