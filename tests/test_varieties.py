"""Tests for variety constructions, projections and their certificates."""

import json
from itertools import islice

import pytest

from hypersurfaces.exactcore import QQ, Matrix, PrimeField, rank
from hypersurfaces.varieties import (
    ConstructionError,
    FieldTooSmallError,
    ProjectionCenter,
    ProjectiveDomain,
    ProjectionError,
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
