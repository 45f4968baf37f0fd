import dataclasses
import itertools
import math

import numpy as np
import pytest

from holoflux import stratmaps
from holoflux.geometry import PolyPath, map_path, pt_float
from holoflux.stratmaps import (
    EuclideanGauge,
    Piece,
    SimplexGauge,
    StratMapError,
    bump_map,
    compose,
    interp_two_surfaces,
    radial_piece,
    rotation_map,
    scaling_map,
    verify_stratified,
    winding_map,
)

RNG = np.random.default_rng(7321)


def sphere_points(rng, dim, n, radius=1.0):
    pts = rng.normal(size=(n, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * radius


# ---------------------------------------------------------------------------
# radial pieces
# ---------------------------------------------------------------------------


def test_radial_identity_and_doubling():
    p = EuclideanGauge(3)
    ident = radial_piece(lambda x: 1.0, lambda x: 0.0, p)
    dbl = radial_piece(lambda x: 2.0, lambda x: 0.0, p)
    x = np.array([0.3, -1.2, 0.7])
    assert np.allclose(ident.forward(x), x)
    assert np.allclose(dbl.forward(x), 2 * x)
    assert np.allclose(dbl.inverse(dbl.forward(x)), x)
    # fields that return one scalar serve a batch too
    batch = np.array([x, -2 * x, [1.0, 0.0, 0.0]])
    assert np.array_equal(dbl.forward(batch), np.array([dbl.forward(v) for v in batch]))
    assert np.allclose(dbl.inverse(dbl.forward(batch)), batch)


def test_radial_random_admissible_roundtrip_and_collinearity():
    rng = np.random.default_rng(5)
    p = EuclideanGauge(3)
    for _ in range(50):
        a0 = float(rng.uniform(0.5, 2.0))
        b0 = float(rng.uniform(-0.3, 2.0))
        piece = radial_piece(lambda x, a0=a0: a0, lambda x, b0=b0: b0, p)
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        x *= rng.uniform(0.5, 2.0)
        if p(x) * a0 + b0 <= 0.05:
            continue
        y = piece.forward(x)
        assert np.linalg.norm(piece.inverse(y) - x) <= 1e-10
        # collinearity: image stays on the ray through x
        cross = np.linalg.norm(np.cross(x, y))
        assert cross <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


def test_radial_validation_rejects_bad_fields():
    p = EuclideanGauge(2)
    with pytest.raises(StratMapError):
        radial_piece(lambda x: -1.0, lambda x: 0.0, p,
                     domain_points=sphere_points(RNG, 2, 5))
    with pytest.raises(StratMapError):
        # a not constant on rays
        radial_piece(lambda x: 1.0 + np.linalg.norm(x), lambda x: 0.0, p,
                     domain_points=sphere_points(RNG, 2, 5))


# ---------------------------------------------------------------------------
# two-surface interpolation
# ---------------------------------------------------------------------------


def test_interp_identical_bodies_identity_on_s0():
    p0 = EuclideanGauge(3)
    interp = interp_two_surfaces(p0, p0, 0.5, 2.0, 1.0, 1.0,
                                 rng=np.random.default_rng(1), dim=3)
    for x in sphere_points(np.random.default_rng(2), 3, 30):
        assert np.linalg.norm(interp.qhat_plus.forward(x) - x) <= 1e-12


def test_interp_scaled_ball_example():
    # p1 = |x|/sqrt(lam): the ratio p1/p0 is constant, which pins
    # lam0_plus to that constant; S0 then lands on lam0_plus * S1 = S0
    lam = 2.0
    p0 = EuclideanGauge(3)
    p1 = EuclideanGauge(3, radius=math.sqrt(lam))
    q = 1.0 / math.sqrt(lam)
    lam_plus = 1.5 * q
    interp = interp_two_surfaces(p0, p1, 0.3 * q, lam_plus, q, q,
                                 rng=np.random.default_rng(3), dim=3)
    for x in sphere_points(np.random.default_rng(4), 3, 50):
        img = interp.qhat_plus.forward(x)
        assert abs(p1(img) - q) <= 1e-10
    # points on lam_plus S1 are fixed
    for d in sphere_points(np.random.default_rng(5), 3, 50):
        x = d * lam_plus * math.sqrt(lam)
        assert np.linalg.norm(interp.qhat_plus.forward(x) - x) <= 1e-12


def test_interp_ellipse_moves_sphere_onto_scaled_ellipse():
    class EllipseGauge:
        dim = 2

        def __call__(self, x):
            return math.sqrt(x[0] ** 2 / 4.0 + x[1] ** 2)

    p0 = EuclideanGauge(2)
    p1 = EllipseGauge()
    rng = np.random.default_rng(6)
    qs = [p1(d) / p0(d) for d in sphere_points(rng, 2, 500)]
    lam0_plus = max(qs)  # printed ordering: lam0_plus <= sup q
    lam_plus = 2.0 * max(qs)
    interp = interp_two_surfaces(p0, p1, 0.4 * min(qs), lam_plus, min(qs), lam0_plus,
                                 rng=np.random.default_rng(7), dim=2)
    for d in sphere_points(np.random.default_rng(8), 2, 100):
        img = interp.qhat_plus.forward(d)  # d is on S0
        assert abs(p1(img) - lam0_plus) <= 1e-10
        # half-ray preservation
        assert abs(d[0] * img[1] - d[1] * img[0]) <= 1e-12


def test_interp_rejects_bad_ordering():
    p0 = EuclideanGauge(2)
    with pytest.raises(StratMapError):
        interp_two_surfaces(p0, p0, 1.5, 2.0, 1.0, 1.0,
                            rng=np.random.default_rng(1), dim=2)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def test_scaling_identity_at_lambda_one():
    m = scaling_map(EuclideanGauge(3), 1.0, 0.1)
    rng = np.random.default_rng(11)
    rep = verify_stratified(m, 500, rng)
    assert rep["support_violations"] == 0
    assert rep["roundtrip_max"] == 0.0
    for _ in range(20):
        x = rng.normal(size=3)
        assert np.array_equal(m.forward(x), x)


def test_scaling_doubles_ball_and_fixes_outside():
    m = scaling_map(EuclideanGauge(3), 2.0, 0.1)
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = rng.normal(size=3)
        r = np.linalg.norm(x)
        if r <= 1.0:
            assert np.linalg.norm(m.forward(x) - 2 * x) <= 1e-12
        if r >= 2.2:
            assert np.array_equal(m.forward(x), x)


def test_scaling_continuity_on_shells():
    m = scaling_map(EuclideanGauge(3), 2.0, 0.1)
    rng = np.random.default_rng(13)
    worst = 0.0
    for d in sphere_points(rng, 3, 1000):
        inner_val = 2.0 * d  # core formula at |x| = 1
        shell_val = m.pieces[1].apply(d)
        worst = max(worst, float(np.linalg.norm(inner_val - shell_val)))
        x_out = d * 2.2
        shell_out = m.pieces[1].apply(x_out)
        worst = max(worst, float(np.linalg.norm(shell_out - x_out)))
    assert worst <= 1e-9


def test_scaling_shrink_case():
    m = scaling_map(EuclideanGauge(2), 0.4, 0.25)
    rng = np.random.default_rng(14)
    rep = verify_stratified(m, 2000, rng)
    assert rep["support_violations"] == 0
    assert rep["roundtrip_max"] <= 1e-10
    assert rep["boundary_max_mismatch"] <= 1e-9
    x = np.array([0.5, -0.5])
    assert np.linalg.norm(m.forward(x) - 0.4 * x) <= 1e-12


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------


def so_generator(k, angle, i=0, j=1):
    """Generator of the rotation sending e_i toward e_j by `angle`."""
    x = np.zeros((k, k))
    x[i, j] = -angle
    x[j, i] = angle
    return x


def test_rotation_norm_preserving_and_identity_outside():
    x_gen = so_generator(3, math.pi / 3)
    m = rotation_map(x_gen, r1=2.0, r2=1.0)
    rng = np.random.default_rng(15)
    for _ in range(1000):
        x = rng.normal(size=3) * rng.uniform(0, 3)
        y = m.forward(x)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-12
        if np.linalg.norm(x) >= 2.0:
            assert np.array_equal(y, x)


def test_rotation_core_matches_matrix_exponential():
    angle = math.pi / 2
    x_gen = so_generator(3, angle)
    m = rotation_map(x_gen, r1=2.0, r2=1.0)
    x = np.array([0.5, 0.0, 0.0])
    # series oracle for e^X
    series = np.eye(3)
    term = np.eye(3)
    for k in range(1, 30):
        term = term @ x_gen / k
        series = series + term
    assert np.linalg.norm(m.forward(x) - series @ x) <= 1e-12
    assert np.allclose(m.forward(x), [0.0, 0.5, 0.0], atol=1e-12)


def test_rotation_fixes_kernel_coordinates():
    x_gen = so_generator(4, 1.1)
    m = rotation_map(x_gen, r1=2.0, r2=1.0)
    rng = np.random.default_rng(16)
    for _ in range(200):
        x = rng.normal(size=4)
        y = m.forward(x)
        assert np.allclose(y[2:], x[2:], atol=1e-12)  # ker X components fixed


def test_rotation_homotopy_to_identity():
    """t -> rotation with generator tX is the identity at t = 0 and moves
    sample points by at most the angle increment along the homotopy."""
    rng = np.random.default_rng(17)
    angle = 2.0
    xs = [rng.normal(size=3) for _ in range(20)]
    ts = np.linspace(0.0, 1.0, 21)
    dt = ts[1] - ts[0]
    prev = [np.asarray(x, dtype=float) for x in xs]  # t = 0: identity
    for t in ts[1:]:
        m = rotation_map(so_generator(3, float(t) * angle), 2.0, 1.0)
        vals = [m.forward(x) for x in xs]
        step = max(np.linalg.norm(a - b) for a, b in zip(vals, prev))
        # a rotation by an extra dt*angle moves |x| <= 2 by at most that arc
        assert step <= dt * angle * 2.0 + 1e-9
        prev = vals
    m0 = rotation_map(so_generator(3, 1e-12), 2.0, 1.0)
    for x in xs:
        assert np.linalg.norm(m0.forward(x) - x) <= 1e-10


def test_rotation_verify():
    m = rotation_map(so_generator(3, 1.2), 2.0, 1.0)
    rep = verify_stratified(m, 2000, np.random.default_rng(18))
    assert rep["support_violations"] == 0
    assert rep["roundtrip_max"] <= 1e-10
    assert rep["boundary_max_mismatch"] <= 1e-9
    assert rep["jacobian_min_abs_det"] > 1e-8


def test_rotation_chord_to_rotated_chord():
    """The planar-rotation instance carries the chord to the rotated chord."""
    from holoflux.geometry import PolyPath, map_path, pt_float

    alpha = 0.7
    m = rotation_map(so_generator(2, alpha), r1=1.05, r2=1.0)
    chord = PolyPath([(-1, 0), (1, 0)])
    image = map_path(m, chord)
    expected = [(-math.cos(alpha), -math.sin(alpha)), (math.cos(alpha), math.sin(alpha))]
    for got, want in zip(image.vertices, expected):
        assert np.linalg.norm(pt_float(got) - np.asarray(want)) <= 1e-10


# ---------------------------------------------------------------------------
# bump
# ---------------------------------------------------------------------------


def default_bump(n=3, tau=1.0, eps=0.25, a=0.8):
    return bump_map(-tau, tau, eps, a, n)


def test_bump_parameter_validation():
    with pytest.raises(StratMapError):
        bump_map(1.0, -1.0, 0.1, 1.0, 3)
    with pytest.raises(StratMapError):
        bump_map(-1.0, 1.0, 1.5, 1.0, 3)  # eps too large
    with pytest.raises(StratMapError):
        bump_map(-1.0, 1.0, 0.1, -1.0, 3)


def test_bump_midpoint_anchor():
    """(-tau, 0, 0) -> (-tau, a, 0): the left ramp midpoint rises to a."""
    tau, eps, a = 1.0, 0.25, 0.8
    m = default_bump()
    got = m.forward(np.array([-tau, 0.0, 0.0]))
    assert np.allclose(got, [-tau, a, 0.0], atol=1e-12)


def test_bump_left_anchor_fixed():
    tau, eps = 1.0, 0.25
    m = default_bump()
    for y in np.linspace(-0.4, 2.0, 23):
        x = np.array([-tau - eps, y, 0.0])
        assert np.array_equal(m.forward(x), x)


def test_bump_axis_maps_to_polyline():
    from holoflux.geometry import PolyPath, map_path, pt_float

    tau, eps, a = 1.0, 0.25, 0.8
    m = default_bump()
    axis = PolyPath([(-2, 0, 0), (2, 0, 0)])
    image = map_path(m, axis)
    expected = [
        (-2, 0, 0),
        (-tau - eps, 0, 0),
        (-tau + eps, 2 * a, 0),
        (tau - eps, 2 * a, 0),
        (tau + eps, 0, 0),
        (2, 0, 0),
    ]
    verts = [pt_float(v) for v in image.vertices]
    assert len(verts) == len(expected)
    for got, want in zip(verts, expected):
        assert np.linalg.norm(got - np.asarray(want, dtype=float)) <= 1e-12


def test_bump_changes_only_y():
    m = default_bump()
    rng = np.random.default_rng(19)
    for _ in range(500):
        x = rng.uniform(-2, 2, size=3)
        y = m.forward(x)
        assert y[0] == x[0]
        assert y[2] == x[2]


def test_bump_inverse_roundtrip_in_box():
    tau, eps, a = 1.0, 0.25, 0.8
    m = default_bump()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(10_000):
        x = np.array(
            [
                rng.uniform(-tau - eps, tau + eps),
                rng.uniform(-2 * eps, 2 * a + 2 * eps),
                rng.uniform(-2 * eps, 2 * eps),
            ]
        )
        y = m.forward(x)
        worst = max(worst, float(np.linalg.norm(m.inverse(y) - x)))
    assert worst <= 1e-10


def test_bump_verify_all_dimensions():
    for n in (2, 3, 4):
        m = bump_map(-1.0, 1.0, 0.25, 0.8, n)
        rep = verify_stratified(m, 3000, np.random.default_rng(21 + n))
        assert rep["support_violations"] == 0, n
        assert rep["roundtrip_max"] <= 1e-10, n
        assert rep["boundary_max_mismatch"] <= 1e-9, n
        assert rep["jacobian_min_abs_det"] > 1e-8, n


def test_bump_corrupted_piece_flagged():
    m = default_bump()
    bad = m.pieces[0]
    corrupted = Piece(
        bad.name,
        lambda pt: np.asarray(bad.apply(pt), dtype=float) + np.array([0.0, 1e-3, 0.0]),
    )
    m.pieces[0] = corrupted
    rep = verify_stratified(m, 500, np.random.default_rng(22))
    assert rep["boundary_max_mismatch"] >= 1e-4


# ---------------------------------------------------------------------------
# composition closure
# ---------------------------------------------------------------------------


def test_composite_boundary_check_compares_factor_pieces():
    # a composite's pieces_at carries every factor's piece values, so a
    # corrupted factor piece shows on the composite's boundary samples
    rot = rotation_map(so_generator(3, 0.9), 2.0, 1.0)
    bad = rot.pieces[0]
    rot.pieces[0] = Piece(bad.name, lambda pt: bad.apply(pt) + np.array([0.0, 1e-3, 0.0]))
    comp = compose(rot, scaling_map(EuclideanGauge(3), 1.5, 0.2))
    rep = verify_stratified(comp, 500, np.random.default_rng(24))
    assert rep["boundary_max_mismatch"] >= 1e-4


def test_composition_passes_verify():
    m1 = rotation_map(so_generator(3, 0.9), 2.0, 1.0)
    m2 = scaling_map(EuclideanGauge(3), 1.5, 0.2)
    comp = compose(m1, m2)
    rep = verify_stratified(comp, 2000, np.random.default_rng(23))
    assert rep["support_violations"] == 0
    assert rep["roundtrip_max"] <= 1e-10
    # composition acts as expected on a sample
    x = np.array([0.2, 0.1, -0.3])
    assert np.allclose(comp.forward(x), m2.forward(m1.forward(x)), atol=1e-14)


# ---------------------------------------------------------------------------
# winding
# ---------------------------------------------------------------------------


def winding_scene(z_targets, height=0.6, x_span=(0.0, 5.0), half_width=0.2):
    """Oriented triangle strips in the plane y = height around each target."""
    from holoflux.geometry import OrientedSurface, Simplex

    surfaces = []
    x_lo, x_hi = x_span
    mid = 0.5 * (x_lo + x_hi)
    wide = 2 * (x_hi - x_lo)
    for c in z_targets:
        tri = Simplex(
            [
                (mid - wide, height, c - half_width),
                (mid + wide, height, c - half_width),
                (mid, height, c + half_width),
            ],
            normal=(0, 1, 0),
        )
        surfaces.append(OrientedSurface([tri]))
    return surfaces


def test_winding_two_punctures_same_surface():
    from holoflux.geometry import PolyPath, completely_transversal, map_path, punctures

    eps, height = 0.3, 0.6
    taus = [1.0, 2.0]
    z_targets = [0.0]
    m = winding_map(taus, [0, 0], z_targets, eps, height)
    axis = PolyPath([(0, 0, 0), (5, 0, 0)])
    image = map_path(m, axis)
    (surface,) = winding_scene(z_targets, height)
    ps = punctures(image, surface)
    ps = [p for p in ps if p.is_puncture]
    assert len(ps) == 2
    assert completely_transversal(image, surface)
    # crossing points sit at the marked parameters with alternating signs
    xs = sorted(float(p.point[0]) for p in ps)
    assert xs == pytest.approx(taus, abs=1e-9)
    signs = [p.sign_out for p in sorted(ps, key=lambda p: p.param)]
    assert signs[0] == -signs[1]


def test_winding_four_punctures_alternating_surfaces():
    from holoflux.geometry import PolyPath, completely_transversal, map_path, punctures

    eps, height = 0.25, 0.5
    taus = [1.0, 2.0, 3.0, 4.0]
    levels = [0, 1, 0, 1]
    z_targets = [0.0, 0.45]
    m = winding_map(taus, levels, z_targets, eps, height)
    axis = PolyPath([(0, 0, 0), (5, 0, 0)])
    image = map_path(m, axis)
    surfaces = winding_scene(z_targets, height)
    for i, surface in enumerate(surfaces):
        ps = [p for p in punctures(image, surface) if p.is_puncture]
        expected = [taus[j] for j in range(4) if levels[j] == i]
        assert sorted(float(p.point[0]) for p in ps) == pytest.approx(expected, abs=1e-9)
        assert completely_transversal(image, surface)
    # signs alternate in j across the union
    union_ps = []
    for surface in surfaces:
        union_ps.extend(p for p in punctures(image, surface) if p.is_puncture)
    union_ps.sort(key=lambda p: float(p.point[0]))
    signs = [p.sign_out for p in union_ps]
    assert signs == [signs[0], -signs[0], signs[0], -signs[0]]


def test_winding_empty_is_identity():
    m = winding_map([], [], [0.0], 0.1, 0.5)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(m.forward(x), x)


def test_winding_verify():
    m = winding_map([1.0, 2.0], [0, 0], [0.3], 0.3, 0.6)
    rep = verify_stratified(m, 1500, np.random.default_rng(31))
    assert rep["support_violations"] == 0
    assert rep["roundtrip_max"] <= 1e-10


def test_winding_rejects_bad_spacing():
    with pytest.raises(StratMapError):
        winding_map([1.0, 1.3], [0, 0], [0.0], 0.3, 0.5)
    with pytest.raises(StratMapError):
        winding_map([1.0, 2.0, 3.0], [0, 0, 0], [0.0], 0.2, 0.5)


# ---------------------------------------------------------------------------
# simplex <-> ball composite (scripted from the constructors)
# ---------------------------------------------------------------------------


def test_simplex_gauge_and_ball_interp():
    verts = [(1.2, 0.1), (-0.8, 1.0), (-0.5, -1.1)]
    sg = SimplexGauge(verts)
    ball = EuclideanGauge(2)
    rng = np.random.default_rng(33)
    qs = []
    for d in sphere_points(rng, 2, 400):
        qs.append(ball(d) / sg(d))
    lam_minus, lam_plus = 0.5 * min(qs), 1.5 * max(qs)
    lam0_minus, lam0_plus = 1.05 * min(qs), 0.9 * max(qs)
    interp = interp_two_surfaces(sg, ball, lam_minus, lam_plus, lam0_minus, lam0_plus,
                                 rng=np.random.default_rng(34), dim=2)
    # the simplex boundary lands on the sphere of radius lam0_plus
    for d in sphere_points(np.random.default_rng(35), 2, 200):
        x = sg.support_point(d, 1.0)  # on the simplex boundary
        img = interp.qhat_plus.forward(x)
        assert abs(ball(img) - lam0_plus) <= 1e-9


# ---------------------------------------------------------------------------
# batches against one point at a time
# ---------------------------------------------------------------------------


def strat_constructors():
    """The eight constructors of the strat-diffeo suite, with its parameters."""
    rot = lambda w: so_generator(3, w)  # noqa: E731
    return {
        "bump_n3": bump_map(-1.0, 1.0, 0.25, 0.8, 3),
        "bump_n2": bump_map(-1.0, 1.0, 0.25, 0.8, 2),
        "bump_n4": bump_map(-1.0, 1.0, 0.25, 0.8, 4),
        "scaling_expand": scaling_map(EuclideanGauge(3), 2.0, 0.1),
        "scaling_shrink": scaling_map(EuclideanGauge(3), 0.4, 0.2),
        "rotation": rotation_map(rot(1.1), 2.0, 1.0),
        "winding_j2": winding_map([1.0, 2.0], [0, 0], [0.25], 0.3, 0.6),
        "composite": compose(rotation_map(rot(0.7), 2.0, 1.0),
                             scaling_map(EuclideanGauge(3), 1.5, 0.2)),
    }


@pytest.mark.parametrize("name", list(strat_constructors()))
def test_batch_equals_rows(name):
    m = strat_constructors()[name]
    rng = np.random.default_rng(41)
    for mm in (m, m.inverted()):
        lo, hi = mm.bbox
        span = hi - lo
        pts = np.concatenate([
            lo + rng.uniform(size=(150, mm.dim)) * span,
            np.asarray(mm.boundary_sampler(rng, 60), dtype=float).reshape(-1, mm.dim),
            lo - 0.5 * span + rng.uniform(size=(60, mm.dim)) * 2.0 * span,
        ])
        for method in (mm.forward, mm.inverse, mm.piece_name):
            batch = method(pts)
            rows = np.array([method(x) for x in pts])
            assert batch.shape == rows.shape
            assert np.array_equal(batch, rows), method.__name__
        outside = ~mm.in_support_closure(pts)
        assert outside.any()
        assert np.array_equal(mm.forward(pts)[outside], pts[outside])


# the per-piece closed-region predicates that the region masks replaced, and
# the locate-then-apply code that placed rows with them, kept as the
# reference the masks and the placement must match bit for bit


def between_reference(v, lo, hi):
    return (lo <= v) & (v <= hi)


def everywhere_reference(x):
    return np.ones(np.shape(x)[:-1], dtype=bool)


def bump_reference(p):
    """(forward predicates, inverse predicates, lift) of bump_map(**p): one
    predicate per piece in piece order, and the image-side offset of the
    strip edges, the lift times the zone factor."""
    tau1, tau2, eps, a, n = p["tau1"], p["tau2"], p["eps"], p["a"], p["n"]
    axis_x, axis_y, sign = p["axis_x"], p["axis_y"], p["sign"]
    z_core, z_outer = p["z_core"], p["z_outer"]
    z_axes = [i for i in range(n) if i not in (axis_x, axis_y)]
    x_lo, x_hi = tau1 - eps, tau2 + eps
    y_bot, y_top = -2 * eps, 2 * a + 2 * eps
    slope = a / eps

    def shift(x):
        return np.where((x <= x_lo) | (x >= x_hi), 0.0,
                        np.where(x <= tau1 + eps, slope * (x - x_lo),
                                 np.where(x >= tau2 - eps, slope * (x_hi - x), 2 * a)))

    def z_radius(pt):
        return np.sqrt(sum(pt[..., i] ** 2 for i in z_axes))

    def ring_falloff(pt):
        u = (z_radius(pt) - z_core) / (z_outer - z_core)
        return 0.5 * (1.0 + np.cos(math.pi * u))

    def yval(pt):
        return sign * pt[..., axis_y]

    col_ranges = [(x_lo, tau1 + eps), (tau1 + eps, tau2 - eps), (tau2 - eps, x_hi)]
    row_ranges = [("bottom", y_bot, -eps), ("strip", -eps, eps), ("top", eps, y_top)]
    if z_axes:
        zone_ranges = [(0.0, z_core, lambda pt: 1.0), (z_core, z_outer, ring_falloff)]
    else:
        zone_ranges = [(0.0, 0.0, lambda pt: 1.0)]

    def make_contains(c_lo, c_hi, row, r_lo, r_hi, z_lo, z_hi, zone_g, forward_side):
        def contains(pt):
            x = pt[..., axis_x]
            inside = between_reference(x, c_lo, c_hi)
            if z_axes:
                inside &= between_reference(z_radius(pt), z_lo, z_hi)
            if not inside.any():
                return inside
            y = yval(pt)
            if forward_side:
                return inside & between_reference(y, r_lo, r_hi)
            off = shift(x) * zone_g(pt)
            lo = r_lo + off if row in ("strip", "top") else r_lo
            hi = r_hi + off if row in ("bottom", "strip") else r_hi
            return inside & between_reference(y, lo, hi)

        return contains

    def lift(pt):
        x = pt[..., axis_x]
        if not z_axes:
            return shift(x) * 1.0
        return shift(x) * np.where(z_radius(pt) <= z_core, 1.0, ring_falloff(pt))

    fwd, inv = [], []
    for (c_lo, c_hi), (row, r_lo, r_hi), (z_lo, z_hi, zone_g) in itertools.product(
            col_ranges, row_ranges, zone_ranges):
        fwd.append(make_contains(c_lo, c_hi, row, r_lo, r_hi, z_lo, z_hi, zone_g, True))
        inv.append(make_contains(c_lo, c_hi, row, r_lo, r_hi, z_lo, z_hi, zone_g, False))
    return fwd, inv, lift


def predicates_reference(m):
    """(forward, inverse) per-piece closed-region predicates of m, whose
    scaling gauges are Euclidean."""
    if isinstance(m, stratmaps._Composite):
        return [everywhere_reference], [everywhere_reference]
    if not m.pieces:
        return [], []
    family, p = m.family, m.params
    if family.startswith("inverse("):
        fwd, inv = predicates_reference(dataclasses.replace(m, family=family[8:-1]))
        return inv, fwd
    if family == "bump":
        return bump_reference(p)[:2]
    if family == "scaling":
        gauge, lam = EuclideanGauge(m.dim), p["lam"]
        shell_hi = (1.0 + p["eps"]) * max(lam, 1.0)
        return ([lambda x: gauge(x) <= 1.0, lambda x: between_reference(gauge(x), 1.0, shell_hi)],
                [lambda y: gauge(y) <= lam, lambda y: between_reference(gauge(y), lam, shell_hi)])
    assert family == "rotation"
    r1, r2 = p["r1"], p["r2"]
    preds = [lambda x: stratmaps._row_norm(x) <= r2,
             lambda x: between_reference(stratmaps._row_norm(x), r2, r1)]
    return preds, preds


def locate_reference(m, x, predicates):
    rows = x.reshape(-1, m.dim)
    idx = np.full(len(rows), -1)
    rest = np.flatnonzero(m.in_support_closure(rows))
    for k, contains in enumerate(predicates):
        if rest.size == 0:
            break
        hit = contains(rows[rest])
        idx[rest[hit]] = k
        rest = rest[~hit]
    return idx.reshape(x.shape[:-1])


def apply_reference(m, x, pieces, predicates):
    idx = locate_reference(m, x, predicates).reshape(-1)
    rows = x.reshape(-1, m.dim)
    out = rows.copy()
    for k, piece in enumerate(pieces):
        sel = idx == k
        if sel.any():
            out[sel] = piece.apply(rows[sel])
    return out.reshape(x.shape)


def piece_name_reference(m, x):
    names = np.array([p.name for p in m.pieces] + ["identity"])
    return names[locate_reference(m, np.asarray(x, dtype=float), predicates_reference(m)[0])]


def placement_points(m, rng):
    """Boundary-sampler points, the bbox corners and uniform points around
    the bbox, each with its +-1e-6 stencil."""
    lo, hi = m.bbox
    base = np.concatenate([
        np.asarray(m.boundary_sampler(rng, 80), dtype=float).reshape(-1, m.dim),
        np.array(list(itertools.product(*zip(lo, hi))), dtype=float),
        lo - 0.25 * (hi - lo) + rng.uniform(size=(40, m.dim)) * 1.5 * (hi - lo),
    ])
    steps = 1e-6 * np.eye(m.dim)
    return np.concatenate([base] + [base + e for e in steps] + [base - e for e in steps])


def shared_level_points(m, rng):
    """Rows exactly on the levels that pieces of m share.  A bump (or its
    inverse): every combination of a column edge, |z| = z_core or z_outer
    and y = +-eps, +-eps + the image-side lift or a box edge.  A scaling or
    rotation: axis points on each gauge or norm level."""
    family = m.family[8:-1] if m.family.startswith("inverse(") else m.family
    p = m.params
    if family in ("scaling", "rotation"):
        levels = (1.0, p["lam"], (1.0 + p["eps"]) * max(p["lam"], 1.0)) \
            if family == "scaling" else (p["r2"], p["r1"])
        return np.concatenate([s * r * np.eye(m.dim) for r in levels for s in (1.0, -1.0)])
    if family != "bump":
        return np.empty((0, m.dim))
    tau1, tau2, eps, a = p["tau1"], p["tau2"], p["eps"], p["a"]
    axis_x, axis_y, sign = p["axis_x"], p["axis_y"], p["sign"]
    z_axes = [i for i in range(m.dim) if i not in (axis_x, axis_y)]
    lift = bump_reference(p)[2]
    lo, hi = m.bbox
    base = lo + rng.uniform(size=(12, m.dim)) * (hi - lo)
    x_levels = [None, tau1 - eps, tau1 + eps, tau2 - eps, tau2 + eps]
    z_levels = [None, p["z_core"], p["z_outer"]] if z_axes else [None]
    y_levels = [None, -eps, eps, -2 * eps, 2 * a + 2 * eps]
    out = []
    for xv, zv, yv, lifted in itertools.product(x_levels, z_levels, y_levels, (False, True)):
        q = base.copy()
        if xv is not None:
            q[:, axis_x] = xv
        if zv is not None:
            q[:, z_axes] = 0.0
            q[:, z_axes[int(rng.integers(len(z_axes)))]] = zv * rng.choice([-1.0, 1.0], len(q))
        if yv is not None:
            q[:, axis_y] = sign * (yv + lift(q) if lifted else yv)
        out.append(q)
    return np.concatenate(out)


def region_mask_cases():
    """The eight constructors, the factors of the winding map, a downward
    tent in the (x, z) plane with custom radii, an identity, and every
    inverse."""
    maps = strat_constructors()
    maps.update({f"winding_j2.factors[{i}]": f
                 for i, f in enumerate(maps["winding_j2"].factors)})
    maps["tent"] = bump_map(0.8875, 1.1125, 0.0375, 0.125, 3, axis_y=2, sign=-1.0,
                            z_core=1.2, z_outer=2.4)
    maps["identity_scaling"] = scaling_map(EuclideanGauge(3), 1.0, 0.1)
    maps.update({f"inverse({name})": m.inverted() for name, m in list(maps.items())})
    return maps


@pytest.mark.parametrize("name", list(region_mask_cases()))
def test_region_masks_equal_the_per_piece_predicates(name):
    m = region_mask_cases()[name]
    rng = np.random.default_rng(44)
    pts = np.concatenate([placement_points(m, rng), shared_level_points(m, rng)])
    for regions, preds in zip((m.regions, m.inv_regions), predicates_reference(m)):
        mask = regions(pts)
        assert mask.shape == (len(pts), len(preds))
        for k, contains in enumerate(preds):
            assert np.array_equal(mask[:, k], contains(pts)), k
        assert np.array_equal(regions(pts[7]), mask[7])
        assert regions(pts[:0]).shape == (0, len(preds))
        if len(preds) > 1:
            # rows on shared closed boundaries
            assert (mask.sum(axis=-1) > 1).any()


@pytest.mark.parametrize("name", list(strat_constructors()) + ["identity_scaling",
                                                               "identity_winding"])
def test_placement_equals_the_locate_then_apply_reference(name, monkeypatch):
    identities = {
        "identity_scaling": scaling_map(EuclideanGauge(3), 1.0, 0.1),
        "identity_winding": winding_map([], [], [0.25], 0.3, 0.6),
    }
    m = identities[name] if name in identities else strat_constructors()[name]
    rng = np.random.default_rng(43)
    for mm in (m, m.inverted()):
        pts = np.concatenate([placement_points(mm, rng), shared_level_points(mm, rng)])
        calls = [pts, pts[None]] + list(pts[::97])
        got = [(mm.forward(c), mm.inverse(c), mm.piece_name(c)) for c in calls]
        # a composite's factors are placed by the reference too
        with monkeypatch.context() as mp:
            mp.setattr(stratmaps.StratMap, "forward",
                       lambda self, x: apply_reference(self, np.asarray(x, dtype=float),
                                                       self.pieces,
                                                       predicates_reference(self)[0]))
            mp.setattr(stratmaps.StratMap, "inverse",
                       lambda self, y: apply_reference(self, np.asarray(y, dtype=float),
                                                       self.inv_pieces,
                                                       predicates_reference(self)[1]))
            mp.setattr(stratmaps.StratMap, "piece_name", piece_name_reference)
            want = [(mm.forward(c), mm.inverse(c), mm.piece_name(c)) for c in calls]
        for got_c, want_c in zip(got, want):
            for g, w in zip(got_c, want_c):
                assert np.shape(g) == np.shape(w)
                assert np.asarray(g).dtype.kind == np.asarray(w).dtype.kind
                assert np.array_equal(g, w)
        names = mm.piece_name(pts)
        if mm.pieces:
            assert (names != "identity").any() and (names == "identity").any()
        for preds in predicates_reference(mm):
            if len(preds) > 1:
                # rows on shared closed boundaries, where the first match decides
                assert (sum(contains(pts).astype(int) for contains in preds) > 1).any()


def scaling_sampler_reference(gauge, dim, shell_hi):
    def boundary_sampler(rng, count):
        pts = []
        for _ in range(count):
            d = rng.normal(size=dim)
            level = 1.0 if rng.integers(2) else shell_hi
            pts.append(gauge.support_point(d, level))
        return pts

    return boundary_sampler


def rotation_sampler_reference(dim, r1, r2):
    def boundary_sampler(rng, count):
        pts = []
        for _ in range(count):
            d = rng.normal(size=dim)
            d /= np.linalg.norm(d)
            pts.append(d * (r2 if rng.integers(2) else r1))
        return pts

    return boundary_sampler


def test_shared_level_sampler_equals_the_two_samplers_it_replaced():
    simplex = SimplexGauge([(1.2, 0.1), (-0.8, 1.0), (-0.5, -1.1)])
    cases = [
        (scaling_map(EuclideanGauge(3), 2.0, 0.1),
         scaling_sampler_reference(EuclideanGauge(3), 3, 1.1 * 2.0)),
        (scaling_map(EuclideanGauge(3), 0.4, 0.2),
         scaling_sampler_reference(EuclideanGauge(3), 3, 1.2)),
        (scaling_map(simplex, 1.5, 0.2), scaling_sampler_reference(simplex, 2, 1.2 * 1.5)),
        (rotation_map(so_generator(3, 1.1), 2.0, 1.0), rotation_sampler_reference(3, 2.0, 1.0)),
        (rotation_map(so_generator(4, 0.6, 1, 3), 1.5, 0.5),
         rotation_sampler_reference(4, 1.5, 0.5)),
    ]
    for m, ref in cases:
        for seed in (0, 17):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = m.boundary_sampler(rng, 50), ref(rng_ref, 50)
            assert len(got) == len(want) == 50
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            # the same draws in the same order: both streams end in one state
            assert rng.random() == rng_ref.random()


def test_gauges_on_batches_equal_one_point_values():
    rng = np.random.default_rng(42)
    for dim in (2, 3, 4):
        pts = rng.normal(size=(2000, dim)) * rng.uniform(0.0, 3.0, size=(2000, 1))
        want = np.array([np.linalg.norm(x) / 1.5 for x in pts])
        assert np.array_equal(EuclideanGauge(dim, 1.5)(pts), want)
    sg = SimplexGauge([(1.2, 0.1), (-0.8, 1.0), (-0.5, -1.1)])
    pts = rng.normal(size=(2000, 2))
    assert np.array_equal(sg(pts), np.array([np.max(sg.facets @ x) for x in pts]))


def verify_stratified_reference(m, samples, rng):
    """verify_stratified as one Python loop over the samples, one point per
    call (the array-native version must report the same)."""
    lo, hi = m.bbox
    span = hi - lo
    boundary_max = 0.0
    for pt in m.boundary_sampler(rng, max(16, samples // 10)):
        vals = [v for mask, v in m.pieces_at(pt) if mask]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                boundary_max = max(boundary_max, np.linalg.norm(vals[i] - vals[j]))
    roundtrip_max = 0.0
    jac_min = math.inf
    h = 1e-6
    for _ in range(samples):
        x = lo + rng.uniform(size=m.dim) * span
        y = m.forward(x)
        roundtrip_max = max(roundtrip_max, np.linalg.norm(m.inverse(y) - x))
        z = m.inverse(x)
        roundtrip_max = max(roundtrip_max, np.linalg.norm(m.forward(z) - x))
        name = m.piece_name(x)
        if name != "identity":
            stencil_ok = all(
                m.piece_name(x + dh) == name and m.piece_name(x - dh) == name
                for dh in (h * np.eye(m.dim))
            )
            if stencil_ok:
                jac = np.empty((m.dim, m.dim))
                for c in range(m.dim):
                    e = np.zeros(m.dim)
                    e[c] = h
                    jac[:, c] = (m.forward(x + e) - m.forward(x - e)) / (2 * h)
                jac_min = min(jac_min, abs(float(np.linalg.det(jac))))
    support_violations = 0
    outside_max = 0.0
    for _ in range(samples):
        x = lo - 0.5 * span + rng.uniform(size=m.dim) * 2.0 * span
        if m.in_support(x):
            continue
        y = m.forward(x)
        if not np.array_equal(y, x):
            support_violations += 1
            outside_max = max(outside_max, np.linalg.norm(y - x))
    return {
        "boundary_max_mismatch": boundary_max,
        "roundtrip_max": roundtrip_max,
        "support_violations": support_violations,
        "outside_motion_max": outside_max,
        "jacobian_min_abs_det": None if jac_min is math.inf else jac_min,
        "samples": samples,
    }


@pytest.mark.parametrize("name", list(strat_constructors()))
def test_verify_matches_reference_loop(name):
    m = strat_constructors()[name]
    samples = 60 if name in ("winding_j2", "composite") else 200
    for seed in (3, 808):
        got = verify_stratified(m, samples, np.random.default_rng(seed))
        want = verify_stratified_reference(m, samples, np.random.default_rng(seed))
        assert got.keys() == want.keys()
        for key, value in want.items():
            if value is None or name.startswith(("bump", "scaling")):
                assert got[key] == value, key
            else:
                assert abs(got[key] - value) <= 1e-15, key


def segment_roots_reference(f, grid=128):
    """Zeros of a scalar function on [0, 1]: a scan of `grid` steps, one
    call per grid point, then 80 bisection steps per sign change."""
    svals = np.linspace(0.0, 1.0, grid + 1)
    fvals = [f(s) for s in svals]
    roots = []
    for i in range(grid):
        fa, fb = fvals[i], fvals[i + 1]
        if fa == 0.0 and 0 < svals[i] < 1:
            roots.append(svals[i])
            continue
        if fa * fb < 0:
            lo, hi = svals[i], svals[i + 1]
            flo = fa
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            r = 0.5 * (lo + hi)
            if 1e-12 < r < 1 - 1e-12:
                roots.append(r)
    return roots


def scan_roots(m, a, b, grid=128):
    """The roots of every break locus of m along [a, b], by the scalar scan."""
    return {r for g in m.break_functions
            for r in segment_roots_reference(lambda s: g(a + s * (b - a)), grid)}


def closed_form_roots(m, a, b):
    """The break parameters of m along [a, b], as the map solves them."""
    return m.path_break_params(a, b)


def break_params_reference(factors, a, b, roots=scan_roots):
    """Breaks of a composition along [a, b]: the first factor's roots, then
    the remaining factors on the image of each piece."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    svals = sorted(set(roots(factors[0], a, b)) | {0.0, 1.0})
    out = {s for s in svals if 0 < s < 1}
    if len(factors) > 1:
        for s0, s1 in zip(svals, svals[1:]):
            pa = factors[0].forward(a + s0 * (b - a))
            pb = factors[0].forward(a + s1 * (b - a))
            out.update(s0 + u * (s1 - s0)
                       for u in break_params_reference(factors[1:], pa, pb, roots))
    return sorted(out)


def assert_roots_close(got, want):
    """Equal counts and every root within 1e-12 of the reference's."""
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= 1e-12


def winding_cases(crossings, monkeypatch):
    """(map, factors, starts, ends) for three seeded winding maps."""
    composed = []
    real_compose = stratmaps.compose
    monkeypatch.setattr(stratmaps, "compose",
                        lambda *maps: composed.append(maps) or real_compose(*maps))
    rng = np.random.default_rng(100 + crossings)
    for _ in range(3):
        eps = float(rng.uniform(0.2, 0.3))
        taus = [float(rng.uniform(0.8, 1.2))]
        while len(taus) < crossings:
            taus.append(taus[-1] + float(rng.uniform(0.9, 1.1)))
        levels = [int(v) for v in rng.permutation([0, 1] * (crossings // 2))]
        m = winding_map(taus, levels, [0.0, 0.45], eps, float(rng.uniform(0.5, 0.6)))
        starts = np.array([[taus[0] - 1.0, 0.0, 0.0], [taus[0], 0.0, 0.0], [0.0, -0.1, 0.05]])
        ends = np.array([[taus[-1] + 1.0, 0.0, 0.0], [taus[-1], 0.3, 0.1], [taus[-1], 0.2, -0.05]])
        yield m, composed[-1], starts, ends


@pytest.mark.parametrize("crossings", [2, 4])
def test_winding_breaks_window_the_factor_breaks_exactly(crossings, monkeypatch):
    for m, factors, starts, ends in winding_cases(crossings, monkeypatch):
        batch = m.path_break_params(starts, ends)
        for a, b, got in zip(starts, ends, batch):
            want = break_params_reference(factors, a, b, closed_form_roots)
            assert len(want) >= 2 * crossings
            assert got == want
            assert m.path_break_params(a, b) == want


@pytest.mark.parametrize("crossings", [2, 4])
def test_winding_breaks_match_scalar_scan(crossings, monkeypatch):
    for m, factors, starts, ends in winding_cases(crossings, monkeypatch):
        for a, b, got in zip(starts, ends, m.path_break_params(starts, ends)):
            want = break_params_reference(factors, a, b)
            assert len(want) >= 2 * crossings
            assert_roots_close(got, want)


def locus_kinds():
    """(dimension, break locus) pairs of each kind, from the constructors."""
    def loci(m, which=slice(None)):
        return [(m.dim, g) for g in m.break_functions[which]]

    simplex3 = SimplexGauge([(1.1, 0.2, -0.4), (-0.7, 1.0, -0.3), (-0.4, -0.9, -0.35),
                             (0.1, 0.1, 1.2)])
    bump3 = bump_map(-1.0, 1.0, 0.25, 0.8, 3)
    return {
        "plane": loci(bump3, slice(8))
        + loci(bump_map(-1.0, 1.0, 0.25, 0.8, 3, axis_y=2, sign=-1.0), slice(8)),
        "max_of_forms_2d": loci(scaling_map(
            SimplexGauge([(1.2, 0.1), (-0.8, 1.0), (-0.5, -1.1)]), 1.5, 0.2)),
        "max_of_forms_3d": loci(scaling_map(simplex3, 0.6, 0.3)),
        "norm_all_axes": loci(rotation_map(so_generator(3, 1.1), 2.0, 1.0))
        + loci(scaling_map(EuclideanGauge(3), 2.0, 0.1)),
        "norm_z_axes": loci(bump3, slice(8, None))
        + loci(bump_map(-1.0, 1.0, 0.25, 0.8, 4), slice(8, None)),
    }


@pytest.mark.parametrize("kind", list(locus_kinds()))
def test_closed_form_roots_match_scalar_scan(kind):
    rng = np.random.default_rng(61)
    compared = 0
    for dim, g in locus_kinds()[kind]:
        starts = rng.uniform(-2.0, 2.0, size=(60, dim))
        ends = rng.uniform(-2.0, 2.0, size=(60, dim))
        seg, roots = g.roots(starts, ends)
        for i, (a, b) in enumerate(zip(starts, ends)):
            got = sorted(roots[seg == i])
            want = segment_roots_reference(lambda s: g(a + s * (b - a)))
            if any(np.any(np.diff(r) <= 1 / 128) for r in (got, want)):
                # two roots in one grid cell are beyond the scan: rescan on a
                # grid 64 times finer
                want = segment_roots_reference(lambda s: g(a + s * (b - a)), 128 * 64)
            assert_roots_close(got, want)
            compared += len(want)
    assert compared >= 60


def test_a_form_constant_along_a_segment_bounds_it_or_empties_it():
    # facets -y = 1, -x = 1 and x + y = 1
    (g, _) = scaling_map(SimplexGauge([(-1, -1), (2, -1), (-1, 2)]), 1.5, 0.2).break_functions
    starts = np.array([[-3.0, -2.0], [-3.0, 0.0], [-3.0, -1.0]])
    ends = np.array([[3.0, -2.0], [3.0, 0.0], [3.0, -1.0]])
    seg, roots = g.roots(starts, ends)
    # parallel to the facet y = -1 outside it, then inside it: the scan's roots
    for i in (0, 1):
        want = segment_roots_reference(lambda s: g(starts[i] + s * (ends[i] - starts[i])))
        assert_roots_close(sorted(roots[seg == i]), want)
    assert len(want) == 2
    # along the facet: where the segment enters and leaves the level set
    assert_roots_close(sorted(roots[seg == 2]), [1 / 3, 5 / 6])


def test_two_crossings_inside_one_grid_cell_are_found():
    m = rotation_map(so_generator(3, 1.1), 2.0, 1.0)
    a, b = np.array([-10.0, 0.99999, 0.0]), np.array([12.0, 0.99999, 0.0])
    got = m.path_break_params(a, b)
    # the r2 = 1 sphere is crossed at s ~ 0.45434 and 0.45475, inside one
    # 1/128 cell, so the reference scans a grid 64 times finer
    want = sorted(scan_roots(m, a, b, 128 * 64))
    assert len(want) == 4
    assert want[2] - want[1] < 1 / 128
    assert_roots_close(got, want)


def test_a_segment_tangent_to_a_sphere_gets_no_break_there():
    m = rotation_map(so_generator(3, 1.1), 2.0, 1.0)
    # touches the r2 = 1 sphere at s = 1/2 and crosses the r1 = 2 sphere
    # where x^2 = 3
    got = m.path_break_params(np.array([-2.0, 1.0, 0.0]), np.array([2.0, 1.0, 0.0]))
    assert_roots_close(got, [(2 - math.sqrt(3)) / 4, (2 + math.sqrt(3)) / 4])


def test_segment_inside_a_break_locus_gets_no_breaks_from_it():
    m = bump_map(-1.0, 1.0, 0.25, 0.8, 3)
    # the segment lies in the row plane y = eps, where the scan finds a root
    # at every grid node
    a, b = np.array([-2.0, 0.25, 0.1]), np.array([2.0, 0.25, -0.1])
    assert m.path_break_params(a, b) == [0.1875, 0.3125, 0.6875, 0.8125]
    image = map_path(m, PolyPath([a, b]))
    assert len(image.vertices) == 6
    # the same curve as the image split at the scan's 127 breaks: its
    # vertices are among that polyline's, whose vertices all lie on it
    scanned = sorted(scan_roots(m, a, b))
    assert len(scanned) == 127
    pts = m.forward(np.array([a] + [a + s * (b - a) for s in scanned] + [b]))
    reference = PolyPath(pts, validate=False)
    assert len(reference.vertices) == 92
    assert set(image.vertices) <= set(reference.vertices)
    verts = np.array([pt_float(v) for v in image.vertices])
    for p in map(pt_float, reference.vertices):
        d = verts[1:] - verts[:-1]
        t = np.clip(np.sum((p - verts[:-1]) * d, axis=-1) / np.sum(d * d, axis=-1), 0.0, 1.0)
        assert np.min(np.linalg.norm(verts[:-1] + t[:, None] * d - p, axis=-1)) <= 1e-12


@pytest.mark.parametrize("name", ["winding_j2", "composite"])
def test_inverted_composite_is_the_reverse_composite_of_inverted_factors(name, monkeypatch):
    if name == "winding_j2":
        composed = []
        real_compose = stratmaps.compose
        monkeypatch.setattr(stratmaps, "compose",
                            lambda *maps: composed.append(maps) or real_compose(*maps))
        m = winding_map([1.0, 2.0], [0, 0], [0.25], 0.3, 0.6)
        factors = composed[-1]
        # the segments of the axis's image polyline
        image = map_path(m, PolyPath([(-0.5, 0, 0), (3.5, 0, 0)]))
        verts = np.array([pt_float(v) for v in image.vertices])
        starts, ends = verts[:-1], verts[1:]
    else:
        factors = (rotation_map(so_generator(3, 0.7), 2.0, 1.0),
                   scaling_map(EuclideanGauge(3), 1.5, 0.2))
        m = compose(*factors)
        starts = np.array([[-2.5, 0.3, 0.1], [0.0, -2.5, 0.2]])
        ends = np.array([[2.5, -0.2, 0.4], [0.1, 2.5, -0.3]])
    inv = m.inverted()
    ref = compose(*[f.inverted() for f in reversed(factors)])
    rng = np.random.default_rng(5)
    lo, hi = m.bbox
    pts = lo - 0.25 * (hi - lo) + rng.uniform(size=(500, m.dim)) * 1.5 * (hi - lo)
    # values stay those of the forward map's inverse, bit for bit
    assert np.array_equal(inv.forward(pts), m.inverse(pts))
    assert np.array_equal(inv.inverse(pts), m.forward(pts))
    assert np.array_equal(inv.forward(pts), ref.forward(pts))
    assert np.array_equal(inv.in_support(pts), ref.in_support(pts))
    got = inv.path_break_params(starts, ends)
    assert got == ref.path_break_params(starts, ends)
    assert sum(map(len, got)) > 0
    # the certificate's boundary comparison sees every factor's pieces
    edge = np.asarray(inv.boundary_sampler(np.random.default_rng(6), 64), dtype=float)
    entries = inv.pieces_at(edge)
    want = ref.pieces_at(edge)
    assert len(entries) == len(want)
    for (mask, vals), (want_mask, want_vals) in zip(entries, want):
        assert np.array_equal(mask, want_mask)
        assert np.array_equal(vals, want_vals, equal_nan=True)
    assert sum(1 for mask, _ in entries if mask.any()) > 2
    rep = verify_stratified(inv, 400, np.random.default_rng(7))
    assert rep == verify_stratified(ref, 400, np.random.default_rng(7))
