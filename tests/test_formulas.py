"""Tests for the closed-form bound functions and their identity suite."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersurfaces.exactcore import binomial
from hypersurfaces.formulas import (
    DeltaAnswer,
    F,
    G,
    H,
    WitnessClass,
    curve_invariants_for_rank,
    delta_curve,
    delta_small,
    identity_suite,
    u,
)


# ---------------------------------------------------------------- F


def test_F_quadratic_specialization():
    # F(n, c, 2) = C(c+1, 2) for every n
    assert F(1, 2, 2) == binomial(3, 2) == 3
    assert F(2, 3, 2) == binomial(4, 2) == 6
    for n in range(1, 6):
        for c in range(2, 8):
            assert F(n, c, 2) == binomial(c + 1, 2)


def test_F_curve_case():
    # F(1, c, m) = C(r+m, r) - (mr + 1) with r = c + 1
    assert F(1, 3, 3) == binomial(7, 4) - 13 == 22
    for c in range(2, 9):
        r = c + 1
        for m in range(2, 9):
            assert F(1, c, m) == binomial(r + m, r) - (m * r + 1)


def test_F_validation():
    with pytest.raises(ValueError):
        F(0, 2, 2)


# ---------------------------------------------------------------- G


def test_G_examples():
    assert G(2, 1, 3, 2) == 5  # C(4,2) + 2 - 1 - 2
    assert G(3, 2, 4, 2) == binomial(5, 2) - 1 == 9
    assert G(2, 1, 2, 2) == 2  # degree-4 depth-2 curve in P^3 lies on 2 quadrics


def test_G_quadratic_specialization():
    # G_t(n, c, 2) = C(c+1, 2) + t - n - 2
    for n in range(1, 6):
        for c in range(2, 8):
            for t in range(1, n + 2):
                assert G(t, n, c, 2) == binomial(c + 1, 2) + t - n - 2


def test_G_curve_case():
    # G_2(1, c, m) = C(r+m, r) - m(r+1) with r = c+1
    for c in range(2, 9):
        r = c + 1
        for m in range(2, 9):
            assert G(2, 1, c, m) == binomial(r + m, r) - m * (r + 1)


def test_G_depth_out_of_range():
    with pytest.raises(ValueError):
        G(0, 1, 3, 2)
    with pytest.raises(ValueError):
        G(3, 1, 3, 2)


@pytest.mark.parametrize("t, n, c, m", [(1, 0, 1, 2), (1, 1, 0, 2), (1, 1, 1, 1), (2, 1, 1, -3)])
def test_G_domain(t, n, c, m):
    # the domain of F, with m >= 2: G(1, 0, 1, 2) once returned 0
    with pytest.raises(ValueError, match=r"G needs n >= 1, c >= 1, m >= 2; got "):
        G(t, n, c, m)


# ---------------------------------------------------------------- H


def test_H_equals_F_at_k1():
    for n in range(1, 5):
        for c in range(2, 7):
            for m in range(2, 7):
                assert H(1, n, c, m) == F(n, c, m)


def test_H_examples():
    assert H(3, 1, 3, 2) == binomial(4, 2) + 1 - 3 == 4
    assert H(2, 2, 3, 3) == G(3, 2, 3, 3)


def test_H_quadratic_specialization():
    for n in range(1, 5):
        for c in range(2, 7):
            for k in range(1, c + 2):
                assert H(k, n, c, 2) == binomial(c + 1, 2) + 1 - k


def test_H_k_out_of_range():
    with pytest.raises(ValueError):
        H(0, 1, 3, 2)
    with pytest.raises(ValueError):
        H(5, 1, 3, 2)


@pytest.mark.parametrize("k, n, c, m", [(1, 1, 1, 0), (1, 1, 1, -3), (1, 0, 2, 2), (1, 1, 0, 2)])
def test_H_domain(k, n, c, m):
    # the domain of F: H(1, 1, 1, 0) once returned 1 and H(1, 1, 1, -3) 0
    with pytest.raises(ValueError, match=r"H needs n >= 1, c >= 1, m >= 1; got "):
        H(k, n, c, m)


# ---------------------------------------------------------------- u


def test_u_examples():
    assert u(2, 0, 3, 2) == 10 - 7 == 3
    assert u(2, 0, 3, 2) == F(1, 2, 2)
    assert u(2, 0, 4, 2) == 1


def test_u_minimal_degree_identity():
    # u(c, 0, c+1, m) = F(1, c, m)
    for c in range(2, 9):
        for m in range(1, 9):
            assert u(c, 0, c + 1, m) == (F(1, c, m) if m >= 1 else 0)


# ---------------------------------------------------------------- delta_small


def test_delta_small_quadratic_ranks():
    assert delta_small(1, 3, 2, 1).value == binomial(4, 2) == 6
    assert delta_small(1, 3, 2, 2).value == binomial(4, 2) - 1 == 5
    assert delta_small(1, 3, 2, 3).value == binomial(4, 2) - 2 == 4


def test_delta_small_witness_classes():
    assert delta_small(2, 3, 3, 1).witness_class is WitnessClass.MINIMAL_DEGREE
    a2 = delta_small(2, 3, 3, 2)
    assert a2.witness_class is WitnessClass.DEL_PEZZO_DEPTH and a2.depth == 3
    a3 = delta_small(2, 3, 3, 3)
    assert a3.witness_class is WitnessClass.ALMOST_MINIMAL_DEPTH_T and a3.depth == 2
    assert a3.tied_with is None
    # for m = 2 and c >= 3 the rank-3 value is attained by two families
    a3q = delta_small(2, 3, 2, 3)
    assert a3q.tied_with is WitnessClass.ACM_DEGREE_C_PLUS_K
    assert a3q.tied_depth == 3


def test_delta_small_rank4_tie():
    # independent recomputation of both closed forms
    n, c, m = 2, 4, 3
    g_val = binomial(m + n + c, n + c) - (
        (c + 2) * binomial(m + n - 1, n)
        + binomial(m + n - 1, n - 1)
        - binomial(m + (n - 1) - 3, (n - 1) - 2)
    )
    h_val = binomial(m + n + c, m) - (
        (c + 3) * binomial(m + n - 1, n)
        + (2 - 3) * binomial(m + n - 2, n - 1)
        + binomial(m + n - 2, n - 2)
    )
    disc = m * m + m * n - n * n - 5 * m - n + 6
    assert disc == 0 and g_val == h_val
    ans = delta_small(2, 4, 3, 4)
    assert ans.value == g_val
    assert ans.witness_class is WitnessClass.ALMOST_MINIMAL_DEPTH_T
    assert ans.tied_with is WitnessClass.ACM_DEGREE_C_PLUS_K


def test_delta_small_rank4_branch_signs():
    # m large versus n makes the discriminant positive (depth n-1 branch),
    # n large versus m makes it negative (ACM degree c+3 branch)
    pos = delta_small(2, 4, 6, 4)
    assert 6 * 6 + 6 * 2 - 4 - 30 - 2 + 6 > 0
    assert pos.witness_class is WitnessClass.ALMOST_MINIMAL_DEPTH_T
    assert pos.depth == 1
    neg = delta_small(5, 4, 3, 4)
    assert 9 + 15 - 25 - 15 - 5 + 6 < 0
    assert neg.witness_class is WitnessClass.ACM_DEGREE_C_PLUS_K
    assert neg.value == H(3, 5, 4, 3)


def test_delta_small_unsupported_combinations():
    with pytest.raises(ValueError):
        delta_small(1, 3, 3, 4)  # n = 1 has no depth-(n-1) family
    with pytest.raises(ValueError):
        delta_small(2, 3, 2, 4)  # m = 2 not covered at rank 4
    with pytest.raises(ValueError):
        delta_small(1, 3, 2, 5)


# ---------------------------------------------------------------- delta_curve


def brute_rank_to_gd(c, k):
    """Oracle: exhaustive search of the (g, d) region for the rank equation."""
    hits = [
        (g, d)
        for g in range(0, c)
        for d in range(c + 1 + g, 2 * c + 1)
        if binomial(d - c, 2) + (d - c - g) == k
    ]
    assert len(hits) == 1
    return hits[0]


def test_curve_rank_bijection_matches_brute_force():
    for c in range(2, 8):
        for k in range(1, binomial(c, 2) + c + 1):
            assert curve_invariants_for_rank(c, k) == brute_rank_to_gd(c, k)


def test_delta_curve_examples():
    a = delta_curve(4, 4, 1)
    assert (a.genus, a.degree) == (0, 5)
    assert a.value == u(4, 0, 5, 4)
    assert delta_curve(4, 4, 3).genus == 0 and delta_curve(4, 4, 3).degree == 6
    b = delta_curve(4, 4, 2)
    assert (b.genus, b.degree) == (1, 6)
    assert b.witness_class is WitnessClass.CURVE_GENUS_G_DEGREE_D


def test_delta_curve_strictly_decreasing():
    # the rank map is injective and order-reversing for every m >= c
    for c in range(2, 8):
        for m in range(c, c + 3):
            vals = [
                delta_curve(c, m, k).value
                for k in range(1, binomial(c, 2) + c + 1)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))


def test_delta_curve_range_checks():
    with pytest.raises(ValueError):
        delta_curve(4, 3, 1)  # m < c
    with pytest.raises(ValueError):
        delta_curve(4, 4, binomial(4, 2) + 4 + 1)
    with pytest.raises(ValueError):
        delta_curve(4, 4, 0)


# ---------------------------------------------------------------- identity suite


def test_identity_suite_full_grid():
    report = identity_suite(5, 7, 7)
    assert len(report.checks) == 9
    for check in report.checks:
        assert check.passed, f"{check.name} failed at {check.counterexample}"
    assert report.all_passed
    assert "PASS" in report.summary()


def test_identity_suite_validates_bounds():
    with pytest.raises(ValueError):
        identity_suite(0, 7, 7)


@given(st.integers(1, 8), st.integers(2, 9), st.integers(2, 9))
@settings(max_examples=100, deadline=None)
def test_chains_hold_off_grid(n, c, m):
    chain = [F(n, c, m)] + [G(t, n, c, m) for t in range(n + 1, 0, -1)]
    assert all(a > b for a, b in zip(chain, chain[1:]))
    hs = [H(k, n, c, m) for k in range(1, c + 2)]
    assert all(a > b for a, b in zip(hs, hs[1:]))
    assert H(1, n, c, m) == F(n, c, m)
    assert H(2, n, c, m) == G(n + 1, n, c, m)
