"""Tests for variety constructions, projections and their certificates."""

import json
from itertools import islice

import numpy as np
import pytest
from helpers import certify_by_row_scan, weierstrass_points_by_sqrt
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypersurfaces.exactcore import QQ, Matrix, MPoly, PrimeField, rank
from hypersurfaces.varieties import (
    ConstructionError,
    FieldTooSmallError,
    ParamVariety,
    ProjectionCenter,
    ProjectiveDomain,
    ProjectionError,
    VerificationError,
    WeierstrassDomain,
    _certify,
    _verify_injective_and_nondegenerate,
    elliptic_normal_curve,
    from_descriptor,
    hyperelliptic_g2_curve,
    linear_section_curve,
    multisecant_projection,
    project,
    project_from_general_point,
    rational_normal_curve,
    sample_points,
    scroll_section_curve,
    scroll_surface,
    veronese_surface,
)

GF = PrimeField(10007)


# ---------------------------------------------------------------- rnc


def test_rnc_metadata():
    v = rational_normal_curve(3, GF)
    assert (v.n, v.amb, v.d, v.g, v.c) == (1, 3, 3, 0, 2)
    assert v.linearly_normal
    conic = rational_normal_curve(2, GF)
    assert (conic.amb, conic.d) == (2, 2)


def test_rnc_needs_degree_two():
    with pytest.raises(ValueError):
        rational_normal_curve(1, GF)


def test_rnc_sampling_small_field():
    v = rational_normal_curve(3, PrimeField(11))
    cfg = v.sample_points(12, seed=0)
    assert len(cfg) == 12  # 11 affine parameters plus the one at infinity


def test_rnc_sampling_exhausts_field():
    v = rational_normal_curve(3, PrimeField(7))
    with pytest.raises(FieldTooSmallError):
        v.sample_points(9, seed=0)


def test_rnc_certification_names_small_field():
    # 12 parameters of P^1(GF(11)) cannot span P^12: the field is the cause
    with pytest.raises(FieldTooSmallError, match="needs 13"):
        rational_normal_curve(12, PrimeField(11))


def test_parameter_stream_stops_when_exhausted():
    # P^2(GF(2)) has 7 points: the stream ends instead of drawing forever
    pts = list(islice(ProjectiveDomain((3,)).parameter_stream(PrimeField(2), 0), 8))
    assert len(pts) == len(set(pts)) == 7
    surface = list(ProjectiveDomain((2, 2)).parameter_stream(PrimeField(3), 1))
    assert len(set(surface)) == 16  # P^1 x P^1 over GF(3)


def test_sampling_deterministic():
    v = rational_normal_curve(4, GF)
    assert v.sample_points(10, seed=5).points == v.sample_points(10, seed=5).points
    assert v.sample_points(10, seed=5).points != v.sample_points(10, seed=6).points


def test_rnc_over_rationals():
    v = rational_normal_curve(3, QQ)
    cfg = v.sample_points(7, seed=1)
    assert cfg.span_dim() == 3


# ---------------------------------------------------------------- surfaces


def test_scroll_metadata():
    s = scroll_surface(1, 2, GF)
    assert (s.n, s.amb, s.d) == (2, 4, 3)
    s22 = scroll_surface(2, 2, GF)
    assert (s22.amb, s22.d) == (5, 4)
    with pytest.raises(ValueError):
        scroll_surface(2, 1, GF)


def test_scroll_samples_nondegenerate():
    s = scroll_surface(1, 3, GF)
    cfg = sample_points(s, 30, seed=2)
    assert cfg.span_dim() == 5


def test_veronese_metadata_and_span():
    v = veronese_surface(GF)
    assert (v.n, v.amb, v.d) == (2, 5, 4)
    cfg = sample_points(v, 30, seed=3)
    assert cfg.span_dim() == 5


# ---------------------------------------------------------------- scroll sections


def test_scroll_section_degree():
    for a, b, k in [(1, 1, 3), (1, 3, 5), (2, 3, 2)]:
        v = scroll_section_curve(a, b, k, GF, seed=4)
        assert v.d == a + b + k
        assert v.amb == a + b + 1
        assert v.g == 0


def test_scroll_section_minimal_class():
    # the k=0 section is a hyperplane section of the scroll: it keeps the
    # scroll's degree and lives in its own span
    v = scroll_section_curve(1, 2, 0, GF, seed=4)
    assert v.d == 3
    assert v.amb == 3
    assert v.linearly_normal


def test_scroll_section_extremal_degree():
    # degree-(2c+1) curve on S(1, c-1) for c = 4
    c = 4
    v = scroll_section_curve(1, c - 1, c + 1, GF, seed=7)
    assert v.d == 2 * c + 1 == 9
    assert v.c == c


# ---------------------------------------------------------------- elliptic / genus 2


def test_elliptic_basis_size_and_metadata():
    for c in (2, 3, 4):
        v = elliptic_normal_curve(c, 10007)
        assert len(v.coords) == c + 2  # dim L(nO) = n
        assert (v.d, v.g, v.amb) == (c + 2, 1, c + 1)
        assert v.linearly_normal


def test_elliptic_rejects_singular_model():
    with pytest.raises(ConstructionError):
        elliptic_normal_curve(2, 101, (0, 0))


def test_elliptic_sampling_gf101():
    v = elliptic_normal_curve(2, 101)
    cfg = v.sample_points(50, seed=1)
    assert len(cfg) == 50
    assert v.domain.count_available(v.field) >= 82  # Hasse bound


def test_genus2_basis_size_and_metadata():
    for c in (3, 4):
        v = hyperelliptic_g2_curve(c, 10007)
        assert len(v.coords) == c + 2  # dim L(n oo) = n - 1 for genus 2
        assert (v.d, v.g, v.amb) == (c + 3, 2, c + 1)


def test_genus2_rejects_bad_models():
    with pytest.raises(ConstructionError):
        hyperelliptic_g2_curve(3, 10007, (0, 0, 0, 0, 0, 1))  # x^5 not squarefree
    with pytest.raises(ValueError):
        hyperelliptic_g2_curve(3, 10007, (1, 1, 0, 0, 0, 1, 1))  # degree 6
    with pytest.raises(ValueError):
        hyperelliptic_g2_curve(3, 2)


# ---------------------------------------------------------------- projections


def test_projection_center_validation():
    with pytest.raises(ValueError):
        ProjectionCenter(3, ((1, 0, 0, 0), (1, 0, 0, 0))).validate(GF)
    center = ProjectionCenter(3, ((1, 0, 0, 0),))
    assert center.dim == 0


def test_project_preserves_invariants():
    v = rational_normal_curve(4, GF)
    out = project_from_general_point(v, seed=3)
    assert (out.n, out.amb, out.d, out.g) == (1, 3, 4, 0)
    assert not out.linearly_normal


def test_project_center_on_curve_rejected():
    v = rational_normal_curve(4, GF)
    pt = v.eval_params((1, 5))
    with pytest.raises(ProjectionError):
        project(v, ProjectionCenter(4, (tuple(int(x) for x in pt),)))


def test_project_center_on_rational_chord_rejected():
    # the midpoint of a chord forces two parameters to collide in the image
    v = rational_normal_curve(4, GF)
    p1 = v.eval_params((1, 2))
    p2 = v.eval_params((1, 3))
    mid = tuple((int(a) + int(b)) % 10007 for a, b in zip(p1, p2))
    with pytest.raises(ProjectionError):
        project(v, ProjectionCenter(4, (mid,)))


def test_project_dimension_precondition():
    v = rational_normal_curve(3, GF)
    line = ProjectionCenter(3, ((1, 0, 0, 0), (0, 1, 0, 0)))
    with pytest.raises(ValueError):
        project(v, line)  # target P^1 cannot hold a nondegenerate curve


def test_project_ambient_mismatch():
    v = rational_normal_curve(3, GF)
    with pytest.raises(ValueError):
        project(v, ProjectionCenter(4, ((1, 0, 0, 0, 0),)))


# ---------------------------------------------------------------- multisecant


def test_multisecant_metadata():
    for (c, k, g) in [(4, 3, 0), (4, 4, 0), (4, 4, 1), (5, 5, 2)]:
        v = multisecant_projection(c, k, g, 10007, seed=5)
        assert (v.c, v.d, v.g) == (c, c + k - 1, g)
        assert not v.linearly_normal


def test_multisecant_validation():
    with pytest.raises(ValueError):
        multisecant_projection(4, 5, 0, 10007)  # k > c
    with pytest.raises(ValueError):
        multisecant_projection(4, 3, 1, 10007)  # g > k-3
    with pytest.raises(ValueError):
        multisecant_projection(7, 7, 3, 10007)  # source genus out of range


def test_multisecant_deterministic():
    a = multisecant_projection(4, 4, 0, 10007, seed=9)
    b = multisecant_projection(4, 4, 0, 10007, seed=9)
    assert a.coords == b.coords


# ---------------------------------------------------------------- sections of surfaces


def test_linear_section_of_scroll_is_minimal_curve():
    s = scroll_surface(1, 3, GF)
    curve = linear_section_curve(s, seed=2)
    assert (curve.n, curve.amb, curve.d, curve.g) == (1, 4, 4, 0)


def test_linear_section_of_veronese():
    v = veronese_surface(GF)
    curve = linear_section_curve(v, seed=2)
    assert (curve.n, curve.amb, curve.d) == (1, 4, 4)


# ---------------------------------------------------------------- descriptors


def test_descriptor_round_trip():
    v = multisecant_projection(4, 4, 1, 10007, seed=5)
    desc = v.descriptor()
    again = from_descriptor(desc)
    assert again.coords == v.coords
    assert (again.d, again.g, again.amb) == (v.d, v.g, v.amb)


def test_descriptor_round_trip_scroll_section():
    v = scroll_section_curve(1, 3, 5, GF, seed=7)
    again = from_descriptor(v.descriptor())
    assert again.coords == v.coords


ROUND_TRIP_CASES = {
    "rnc": lambda: rational_normal_curve(4, GF),
    "scroll": lambda: scroll_surface(1, 3, GF),
    "veronese": lambda: veronese_surface(QQ),
    "scroll_section": lambda: scroll_section_curve(2, 3, 4, GF, seed=3),
    "elliptic": lambda: elliptic_normal_curve(3, 10007),
    "genus2": lambda: hyperelliptic_g2_curve(4, 10007),
    "multisecant": lambda: multisecant_projection(4, 3, 0, 10007, seed=2),
    "project": lambda: project_from_general_point(rational_normal_curve(4, QQ), seed=1),
    "scroll_hyperplane_section": lambda: linear_section_curve(scroll_surface(1, 3, GF), seed=4),
    "veronese_conic_section": lambda: linear_section_curve(veronese_surface(GF), seed=2),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CASES))
def test_descriptor_round_trip_every_construction(name):
    v = ROUND_TRIP_CASES[name]()
    desc = json.loads(json.dumps(v.descriptor()))
    assert desc["construction"]["name"] == name
    again = from_descriptor(desc)
    assert again.coords == v.coords
    assert again.descriptor() == v.descriptor()


def test_descriptor_fields():
    v = rational_normal_curve(3, GF)
    d = v.descriptor()
    assert d["field"] == 10007
    assert d["construction"] == {"name": "rnc", "r": 3}
    assert (d["n"], d["c"], d["d"], d["g"]) == (1, 2, 3, 0)


# ---------------------------------------------------------------- certification against the row scan


def _outcome(certify, v):
    """None when `certify` accepts `v`, else the class of its refusal."""
    try:
        certify(v)
    except ConstructionError as err:
        return type(err)
    return None


def _drawn_curve(fld, coords, domain):
    return ParamVariety(
        label="drawn", n=1, amb=len(coords) - 1, d=max(c.degree() for c in coords),
        g=0, fld=fld, coords=coords, domain=domain, linearly_normal=False,
        construction={"name": "drawn"},
    )


def _binary_form(fld, coeffs):
    """sum_j coeffs[j] s^(D-j) t^j with D = len(coeffs) - 1."""
    top = len(coeffs) - 1
    return MPoly(fld, 2, {(top - j, j): c for j, c in enumerate(coeffs)})


SCAN_FIELDS = [PrimeField(5), PrimeField(7), PrimeField(11), PrimeField(10007)]


@st.composite
def drawn_line_curves(draw):
    """Curves P^1 -> P^amb by binary forms of one degree D <= p, some with a
    repeated coordinate (degenerate span), a common linear factor (a base
    point) or composed with (s, t) -> (s^2, t^2) (a collision).  A nonzero
    form of degree <= p cannot vanish on all p+1 points of P^1(GF(p)), so
    on these curves the table rank and the coefficient rank agree."""
    fld = draw(st.sampled_from(SCAN_FIELDS))
    p = fld.p
    shape = draw(st.sampled_from(["plain", "repeated", "base point", "squares"]))
    top = {"plain": p, "repeated": p, "base point": p - 1, "squares": p // 2}[shape]
    deg = draw(st.integers(1, min(top, 5)))
    amb = draw(st.integers(2, 4))
    coeff = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
    forms = [[draw(coeff) for _ in range(deg + 1)] for _ in range(amb + 1)]
    assume(any(any(f) for f in forms))
    if shape == "repeated":
        i, j = draw(st.lists(st.integers(0, amb), min_size=2, max_size=2, unique=True))
        forms[j] = list(forms[i])
    elif shape == "base point":
        a, b = draw(coeff), draw(coeff)
        assume(a or b)
        # multiply by a s + b t
        forms = [
            [(a * (f[j] if j < len(f) else 0) + b * (f[j - 1] if j else 0)) % p
             for j in range(len(f) + 1)]
            for f in forms
        ]
    elif shape == "squares":
        forms = [[f[j // 2] if j % 2 == 0 else 0 for j in range(2 * deg + 1)] for f in forms]
    coords = [_binary_form(fld, f) for f in forms]
    return _drawn_curve(fld, coords, ProjectiveDomain((2,)))


@given(drawn_line_curves())
@settings(max_examples=80, deadline=None)
def test_certification_matches_row_scan(v):
    assert _outcome(_verify_injective_and_nondegenerate, v) == _outcome(certify_by_row_scan, v)


def test_drawn_curves_reach_every_outcome():
    # the comparison above only checks the outcomes its draws reach
    seen = set()

    @given(drawn_line_curves())
    @settings(max_examples=150, deadline=None, database=None)
    def collect(v):
        try:
            _verify_injective_and_nondegenerate(v)
            seen.add("accepted")
        except VerificationError as err:
            seen.add(next(k for k in ("base point", "collide", "degenerate") if k in str(err)))

    collect()
    assert seen == {"accepted", "base point", "collide", "degenerate"}


def _elliptic_13(*exps):
    fld = PrimeField(13)
    coords = [MPoly(fld, 2, {e: 1}) for e in exps]
    return _drawn_curve(fld, coords, WeierstrassDomain(fld, (1, 1, 0, 1)))


def _rnc12_gf11():
    fld = PrimeField(11)
    coords = [MPoly(fld, 2, {(12 - i, i): 1}) for i in range(13)]
    return _drawn_curve(fld, coords, ProjectiveDomain((2,)))


def _collision_off_the_first_chart():
    # t = 1 and t = 2 map to (0, 1, 2) and (0, 2, 4): proportional images
    # whose lead entry is not the first coordinate
    fld = PrimeField(7)
    forms = [[2, 4, 1, 0], [0, 1, 0, 0], [0, 4, 4, 1]]  # s(t-s)(t-2s), s^2 t, ...
    return _drawn_curve(fld, [_binary_form(fld, f) for f in forms], ProjectiveDomain((2,)))


PINNED_CERTIFICATES = {
    "collision-off-chart": (_collision_off_the_first_chart, VerificationError),
    "elliptic": (lambda: _elliptic_13((0, 0), (1, 0), (0, 1)), None),
    # (0, +-1) lie on y^2 = x^3 + x + 1 and map to zero
    "base-point": (lambda: _elliptic_13((1, 0), (2, 0), (1, 1)), VerificationError),
    # (x, y) and (x, -y) share their image
    "collision": (lambda: _elliptic_13((0, 0), (1, 0), (2, 0)), VerificationError),
    "span": (lambda: _elliptic_13((0, 0), (1, 0), (1, 0), (0, 1)), VerificationError),
    "rnc7-gf7": (lambda: rational_normal_curve(7, PrimeField(7)), None),
    # 12 parameters cannot span P^12
    "rnc12-gf11": (_rnc12_gf11, FieldTooSmallError),
}


@pytest.mark.parametrize("name", sorted(PINNED_CERTIFICATES))
def test_certification_refusals_pinned(name):
    build, refusal = PINNED_CERTIFICATES[name]
    v = build()
    assert _outcome(_verify_injective_and_nondegenerate, v) is refusal
    assert _outcome(certify_by_row_scan, v) is refusal


@pytest.mark.parametrize("claimed", [2, 3, 4])
def test_degree_count_refuses_a_wrong_degree(claimed):
    # the twisted cubic and the plane cubic y^2 = x^3 + x + 1 have degree 3
    for v in (rational_normal_curve(3, GF), _elliptic_13((0, 0), (1, 0), (0, 1))):
        v = ParamVariety(v.label, 1, v.amb, claimed, 0, v.field, v.coords, v.domain,
                         False, {"name": "drawn"})
        if claimed == 3:
            assert _certify(v, seed=0) is v
        else:
            with pytest.raises(VerificationError, match="degree check|hyperplane meets"):
                _certify(v, seed=0)


def test_span_is_exact_over_the_closure():
    # s^5 t and s t^5 agree on every point of P^1(GF(5)), so the rational
    # points lie in the hyperplane x1 = x2, but the four coordinates are
    # independent forms: the curve spans P^3 over the algebraic closure
    fld = PrimeField(5)
    coords = [MPoly(fld, 2, {e: 1}) for e in [(6, 0), (5, 1), (1, 5), (0, 6)]]
    v = _drawn_curve(fld, coords, ProjectiveDomain((2,)))
    assert _outcome(_verify_injective_and_nondegenerate, v) is None
    assert _outcome(certify_by_row_scan, v) is VerificationError


def test_coordinate_table_rows_are_the_images():
    v = multisecant_projection(4, 4, 1, 101, seed=5)
    table = v.coordinate_table()
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table is v.coordinate_table()
    images = [tuple(v.eval_params(q)) for q in v.domain.points()]
    assert [tuple(row) for row in table.tolist()] == images
    rnc = rational_normal_curve(3, PrimeField(7))
    params = rnc.domain.line_parameters(rnc.field)
    assert rnc.coordinate_table().tolist() == [list(rnc.eval_params(q)) for q in params]


@pytest.mark.parametrize("p", [13, 10007, 10009])
@pytest.mark.parametrize("f", [(1, 1, 0, 1), (0, -1, 0, 1), (1, 1, 0, 0, 0, 1), (3, 0, 2, 0, 1, 1)])
def test_weierstrass_points_match_tonelli_shanks(p, f):
    # 10007 is 3 mod 4 (one exponentiation), 13 and 10009 are 1 mod 4
    fld = PrimeField(p)
    f = tuple(x % p for x in f)
    assert WeierstrassDomain(fld, f).points() == weierstrass_points_by_sqrt(p, f)
