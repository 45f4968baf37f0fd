import math
from fractions import Fraction

import numpy as np
import pytest

from holoflux.connections import DomainError, constant_label, random_connection
from holoflux.cylindrical import (
    align_to_common,
    cylfun,
    evaluate,
    gsn,
    inner_product_exact,
    norm_l2,
    refine_for_surface,
)
from holoflux.geometry import (
    AffineMap,
    Graph,
    OrientedSurface,
    PolyPath,
    Simplex,
    pt_float,
)
from holoflux.liegroup import (
    PAULI,
    character,
    exp_alg,
    haar_sample,
    identity,
    parse_irrep,
    u1_element,
)
from holoflux.stratmaps import EuclideanGauge, bump_map, scaling_map
from holoflux.weylops import (
    GaugeTransform,
    Graphomorphism,
    WeylDescriptor,
    adjoint_weyl,
    apply_gauge,
    apply_graphomorphism,
    apply_weyl,
    apply_weyl_connection,
    compose_check,
    conjugate_label_by_gauge,
    map_weyl_descriptor,
    operator_distance,
    weyl_constant,
    weyl_one_param,
)

HALF = "su2:1/2"
ONE = "su2:1"


def plane_surface(x0=0, ids=None):
    tri = Simplex(
        [(x0, -9, -9), (x0, 20, -9), (x0, -9, 20)],
        normal=(1, 0, 0),
    )
    return OrientedSurface([tri], piece_ids=ids or (f"p{x0}",))


def crossing_state(rho=HALF, m=0, n=0):
    """Single edge crossing the x=0 plane transversally."""
    graph = Graph.from_paths([PolyPath([(-1, 0, 0), (1, 0, 0)])])
    return gsn(graph, "su2", {"e0": (rho, m, n)})


def sample_states(rng, n=5):
    out = []
    graph = Graph.from_paths([PolyPath([(-1, 0, 0), (1, 0, 0)])])
    for _ in range(n):
        rho = HALF if rng.integers(2) else ONE
        d = parse_irrep(rho).dim
        out.append(gsn(graph, "su2", {"e0": (rho, int(rng.integers(d)), int(rng.integers(d)))}))
    return out


def test_identity_label_fixes_function():
    t = crossing_state()
    s = plane_surface()
    w = weyl_constant(s, identity("su2"))
    wt = apply_weyl(w, t)
    t_ref = refine_for_surface(t, s)
    assert norm_l2(wt - t_ref) <= 1e-14


def test_pullback_consistency():
    """(W f)(A) = f(flux(A)) on random connections, exactly."""
    rng = np.random.default_rng(8)
    s = plane_surface()
    for _ in range(25):
        t = crossing_state(ONE, int(rng.integers(3)), int(rng.integers(3)))
        g = haar_sample(rng, "su2")
        w = weyl_constant(s, g)
        wt = apply_weyl(w, t)
        t_ref = refine_for_surface(t, s)
        conn = random_connection(wt.graph, "su2", rng)
        lhs = evaluate(wt, conn)
        rhs = evaluate(t_ref, apply_weyl_connection(w, conn))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_internal_edge_untouched():
    graph = Graph.from_paths([PolyPath([(0, 0, 0), (0, 1, 0)])])
    t = gsn(graph, "su2", {"e0": (HALF, 0, 1)})
    s = plane_surface()
    g = haar_sample(np.random.default_rng(1), "su2")
    wt = apply_weyl(weyl_constant(s, g), t)
    assert norm_l2(wt - t) <= 1e-14


def test_unitarity_on_random_pairs():
    rng = np.random.default_rng(21)
    s = plane_surface()
    for _ in range(30):
        f1, f2 = sample_states(rng, 2)
        g = haar_sample(rng, "su2")
        w = weyl_constant(s, g)
        a1, a2 = apply_weyl(w, f1), apply_weyl(w, f2)
        b1, b2 = refine_for_surface(f1, s), refine_for_surface(f2, s)
        lhs = inner_product_exact(a1, a2)
        rhs = inner_product_exact(b1, b2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_adjoint_is_inverse_and_involution():
    rng = np.random.default_rng(31)
    s = plane_surface()
    g = haar_sample(rng, "su2")
    w = weyl_constant(s, g)
    wa = adjoint_weyl(w)
    assert adjoint_weyl(wa).rule == w.rule
    t = crossing_state(HALF, 0, 1)
    t_ref = refine_for_surface(t, s)
    roundtrip = apply_weyl(wa, apply_weyl(w, t))
    assert norm_l2(roundtrip - t_ref) <= 1e-12
    # adjoint pairing <W f, h> = <f, W* h>
    for _ in range(10):
        f1, f2 = sample_states(rng, 2)
        lhs = inner_product_exact(apply_weyl(w, f1), refine_for_surface(f2, s))
        rhs = inner_product_exact(refine_for_surface(f1, s), apply_weyl(wa, f2))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_adjoint_equals_inverse_labels():
    rng = np.random.default_rng(32)
    s = plane_surface()
    g = haar_sample(rng, "su2")
    w_adj = adjoint_weyl(weyl_constant(s, g))
    w_inv = weyl_constant(s, g.inverse())
    t = crossing_state(HALF, 1, 0)
    assert norm_l2(apply_weyl(w_adj, t) - apply_weyl(w_inv, t)) <= 1e-12


def test_same_surface_commuting_labels_multiply():
    rng = np.random.default_rng(41)
    s = plane_surface()
    # two elements of a common maximal torus commute
    g1 = exp_alg(1j * PAULI[2], 0.37)
    g2 = exp_alg(1j * PAULI[2], -1.1)
    w1, w2 = weyl_constant(s, g1), weyl_constant(s, g2)
    report = compose_check(w1, w2, sample_states(rng, 5))
    assert report["labels_commute"] <= 1e-12
    assert report["product_law"] <= 1e-12


def test_disjoint_surfaces_commute():
    rng = np.random.default_rng(42)
    s1, s2 = plane_surface(0), plane_surface(Fraction(1, 2))
    g1, g2 = haar_sample(rng, "su2"), haar_sample(rng, "su2")
    report = compose_check(weyl_constant(s1, g1), weyl_constant(s2, g2),
                           sample_states(rng, 5))
    assert report["commutator"] <= 1e-12


def test_inverse_label_gives_identity_operator():
    rng = np.random.default_rng(43)
    s = plane_surface()
    g = haar_sample(rng, "su2")
    t = crossing_state(ONE, 2, 1)
    t_ref = refine_for_surface(t, s)
    out = apply_weyl(weyl_constant(s, g.inverse()), apply_weyl(weyl_constant(s, g), t))
    assert norm_l2(out - t_ref) <= 1e-12


# ---------------------------------------------------------------------------
# graphomorphism covariance
# ---------------------------------------------------------------------------


def pythagorean_rotation_3d():
    # exact rational rotation in the x-y plane
    c, s = Fraction(3, 5), Fraction(4, 5)
    return AffineMap(
        [[c, -s, 0], [s, c, 0], [0, 0, 1]],
    )


def test_graphomorphism_identity():
    t = crossing_state()
    phi = Graphomorphism(affine=AffineMap([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert norm_l2(apply_graphomorphism(phi, t) - t) <= 1e-15


def test_graphomorphism_preserves_inner_products():
    rng = np.random.default_rng(55)
    phi = Graphomorphism(affine=pythagorean_rotation_3d())
    for _ in range(10):
        f1, f2 = sample_states(rng, 2)
        a1, a2 = apply_graphomorphism(phi, f1), apply_graphomorphism(phi, f2)
        assert inner_product_exact(a1, a2) == pytest.approx(
            inner_product_exact(f1, f2), abs=1e-14
        )


def test_weyl_graphomorphism_covariance():
    """alpha_phi W alpha_phi^-1 equals the Weyl operator of the moved data."""
    rng = np.random.default_rng(56)
    phi = Graphomorphism(affine=pythagorean_rotation_3d())
    s = plane_surface()
    for _ in range(10):
        g = haar_sample(rng, "su2")
        w = weyl_constant(s, g)
        w_moved = map_weyl_descriptor(phi, w)
        t = crossing_state(HALF, int(rng.integers(2)), int(rng.integers(2)))
        u = apply_graphomorphism(phi, t)
        pulled_back = apply_graphomorphism(phi.inverse(), u)  # = t
        lhs = apply_graphomorphism(phi, apply_weyl(w, pulled_back))
        rhs = apply_weyl(w_moved, u)
        assert norm_l2(lhs - rhs) <= 1e-12


# stratified graphomorphisms, against one-point forward calls


def exact(v):
    return tuple(Fraction(float(c)) for c in v)


def map_surface_strat_reference(strat, surface):
    """One forward call per vertex, edge midpoint and difference point."""
    pieces = []
    for s in surface.pieces:
        verts = [pt_float(v) for v in s.vertices]
        images = [strat.forward(v) for v in verts]
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                mid = strat.forward(0.5 * (verts[i] + verts[j]))
                assert np.linalg.norm(mid - 0.5 * (images[i] + images[j])) <= 1e-9
        normal = None
        if s.normal is not None:
            base = np.mean(verts, axis=0)
            k, h = len(base), 1e-6
            lin = np.empty((k, k))
            for c in range(k):
                e = np.zeros(k)
                e[c] = h
                lin[:, c] = (strat.forward(base + e) - strat.forward(base - e)) / (2 * h)
            n = np.linalg.solve(lin.T, pt_float(s.normal))
            normal = exact(n / np.linalg.norm(n))
        pieces.append((tuple(exact(v) for v in images), normal, s.closed_facets))
    return pieces


def test_stratified_graphomorphism_on_surface_scaling():
    strat = scaling_map(EuclideanGauge(3), 2.0, 0.1)
    q = Fraction(1, 4)
    surface = OrientedSurface([
        Simplex([(q, -q, -q), (q, 2 * q, -q), (q, -q, 2 * q)], normal=(1, 0, 0),
                closed_facets=(True, False, True)),
        Simplex([(-q, 0, 0), (-q, q, 0), (-2 * q, 0, q)]),
    ])
    moved = Graphomorphism(strat=strat).on_surface(surface)
    want = map_surface_strat_reference(strat, surface)
    assert [(p.vertices, p.normal, p.closed_facets) for p in moved.pieces] == want
    # lambda * id on the core: vertices double exactly, the normal stays +x
    assert moved.pieces[0].vertices == tuple(tuple(2 * c for c in v)
                                             for v in surface.pieces[0].vertices)
    assert np.allclose(pt_float(moved.pieces[0].normal), [1, 0, 0], atol=1e-9)
    assert moved.piece_ids == surface.piece_ids


def test_stratified_graphomorphism_on_path_and_point_bump():
    strat = bump_map(-1.0, 1.0, 0.25, 0.8, 3)
    phi = Graphomorphism(strat=strat)
    path = PolyPath([(-2, 0, 0), (0, Fraction(1, 8), 0), (2, 0, 0)])
    # reference: split one segment at a time, map one point at a time
    verts = [pt_float(v) for v in path.vertices]
    refined = [verts[0]]
    for a, b in zip(verts, verts[1:]):
        for s in strat.path_break_params(a, b):
            refined.append(a + s * (b - a))
        refined.append(b)
    want = PolyPath([exact(strat.forward(v)) for v in refined], validate=False)
    image = phi.on_path(path)
    assert image.vertices == want.vertices
    assert max(float(v[1]) for v in image.vertices) == pytest.approx(1.6 + 1 / 8)  # lifted by 2a
    points = [(0, 0, 0), (Fraction(-9, 8), Fraction(1, 10), 0), (Fraction(1, 2), 1, Fraction(1, 8)),
              (3, 0, 0)]
    batch = strat.forward(np.array([pt_float(p) for p in points]))
    for p, row in zip(points, batch):
        assert phi.on_point(p) == exact(strat.forward(pt_float(p))) == exact(row)
    assert phi.on_point((3, 0, 0)) == (3, 0, 0)  # outside the box: identity


# stratified graphomorphisms, against the batched transport they replace


def map_surface_strat_batch_reference(strat, surface):
    """The batched stratified surface transport as weylops wrote it before
    geometry.map_surface took both kinds of map."""
    new_pieces = []
    for s in surface.pieces:
        verts = np.array([pt_float(v) for v in s.vertices])
        images = np.asarray(strat.forward(verts), dtype=float)
        i, j = np.triu_indices(len(verts), 1)
        fmid = np.asarray(strat.forward(0.5 * (verts[i] + verts[j])), dtype=float)
        if np.any(np.linalg.norm(fmid - 0.5 * (images[i] + images[j]), axis=-1) > 1e-9):
            raise DomainError("stratified map is not affine on the surface")
        normal = None
        if s.normal is not None:
            base = np.mean(verts, axis=0)
            k = len(base)
            h = 1e-6
            steps = h * np.eye(k)
            fd = np.asarray(strat.forward(np.concatenate([base + steps, base - steps])),
                            dtype=float)
            lin = (fd[:k] - fd[k:]).T / (2 * h)
            n = np.linalg.solve(lin.T, pt_float(s.normal))
            n /= np.linalg.norm(n)
            normal = tuple(Fraction(float(c)) for c in n)
        new_pieces.append(Simplex([exact(img) for img in images],
                                  closed_facets=s.closed_facets, normal=normal))
    return OrientedSurface(new_pieces, rule=surface.rule, inverted=surface.inverted,
                           piece_ids=surface.piece_ids)


def on_point_strat_reference(strat, point):
    return exact(strat.forward(pt_float(point)))


def transported(f, *args):
    """The fields of the surface f returns, or its error."""
    try:
        out = f(*args)
    except DomainError as exc:
        return "DomainError", str(exc)
    return ([(p.vertices, p.normal, p.closed_facets) for p in out.pieces],
            out.rule, out.inverted, out.piece_ids)


def triangle(x, y, z, size, normal=(1, 0, 0), closed=(True, True, True)):
    """A triangle in the plane x = const with one corner at (x, y, z)."""
    return Simplex([(x, y, z), (x, y + size, z), (x, y, z + size)],
                   normal=normal, closed_facets=closed)


def strat_case(name):
    """A stratified map and surfaces (lists of pieces) to move through it."""
    q = Fraction(1, 4)
    if name == "bump":
        return bump_map(-1.0, 1.0, 0.25, 0.8, 3), [
            [triangle(3, 0, 0, 1)],                                 # outside the box
            [triangle(0, -q / 2, -q / 2, q / 2)],                   # around the lifted axis
            [triangle(0, -q / 2, -q / 2, q / 2), triangle(5, 0, 0, 1)],
            [triangle(-1, -q, -q, 2 * q)],                          # where the slope starts
            [Simplex([(0, -1, 0), (0, 1, 0)])],                     # across the rows: refused
        ]
    return scaling_map(EuclideanGauge(3), 2.0, 0.1), [
        [triangle(q, -q, -q, 3 * q, closed=(True, False, True)),
         Simplex([(-q, 0, 0), (-q, q, 0), (-2 * q, 0, q)])],
        [triangle(-q, -q, -q, q / 2, normal=(-1, 0, 0))],
        [triangle(0, -1, -1, 3)],                                   # through the shell
        [triangle(9, 0, 0, 1)],                                     # outside the shell
    ]


@pytest.mark.parametrize("name", ["bump", "scaling"])
def test_stratified_transport_is_bit_identical_to_the_batched_reference(name):
    strat, surfaces = strat_case(name)
    phi = Graphomorphism(strat=strat)
    outcomes = set()
    for pieces in surfaces:
        for inverted in (False, True):
            surface = OrientedSurface(pieces, inverted=inverted)
            got = transported(phi.on_surface, surface)
            assert got == transported(map_surface_strat_batch_reference, strat, surface)
            outcomes.add(got[0] == "DomainError")
    assert outcomes == {False, True}  # both moved surfaces and refusals compared
    rng = np.random.default_rng(57)
    lo, hi = strat.bbox
    points = [tuple(Fraction(float(c)) for c in rng.uniform(lo - 0.5, hi + 0.5))
              for _ in range(200)]
    points += [(0, 0, 0), (Fraction(-9, 8), Fraction(1, 10), 0), (3, 0, 0)]
    for p in points:
        assert phi.on_point(p) == on_point_strat_reference(strat, p)


# ---------------------------------------------------------------------------
# gauge covariance
# ---------------------------------------------------------------------------


def test_trivial_gauge_fixes_function():
    t = crossing_state()
    gt = GaugeTransform("su2")
    assert norm_l2(apply_gauge(gt, t) - t) <= 1e-15


def test_gauge_preserves_inner_products():
    rng = np.random.default_rng(60)
    pts = [(-1, 0, 0), (1, 0, 0)]
    gt = GaugeTransform(
        "su2",
        {tuple(Fraction(c) for c in p): haar_sample(rng, "su2") for p in pts},
    )
    for _ in range(10):
        f1, f2 = sample_states(rng, 2)
        b1, b2 = apply_gauge(gt, f1), apply_gauge(gt, f2)
        assert inner_product_exact(b1, b2) == pytest.approx(
            inner_product_exact(f1, f2), abs=1e-12
        )


def test_weyl_gauge_covariance():
    """beta_g W_d beta_g^-1 = W_{g d g^-1} on samples."""
    rng = np.random.default_rng(61)
    s = plane_surface()
    pts = [(-1, 0, 0), (0, 0, 0), (1, 0, 0)]
    for _ in range(10):
        gt = GaugeTransform(
            "su2",
            {tuple(Fraction(c) for c in p): haar_sample(rng, "su2") for p in pts},
        )
        g = haar_sample(rng, "su2")
        w = weyl_constant(s, g)
        w_conj = conjugate_label_by_gauge(gt, w)
        t = crossing_state(HALF, int(rng.integers(2)), int(rng.integers(2)))
        lhs = apply_gauge(gt, apply_weyl(w, apply_gauge(gt.inverse(), refine_for_surface(t, s))))
        rhs = apply_weyl(w_conj, refine_for_surface(t, s))
        assert norm_l2(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# one-parameter groups and regularity
# ---------------------------------------------------------------------------


def leaving_edge_state(rho=HALF, m=0, n=0):
    """Edge starting on the plane x=0, leaving to +x: sigma_out=1, sigma_in=0."""
    graph = Graph.from_paths([PolyPath([(0, 0, 0), (1, 0, 0)])])
    return gsn(graph, "su2", {"e0": (rho, m, n)})


def test_one_param_identity_at_zero():
    s = plane_surface()
    w0 = weyl_one_param(s, 1j * PAULI[2], 0.0)
    t = leaving_edge_state()
    assert norm_l2(apply_weyl(w0, t) - t) <= 1e-14


def test_one_param_group_law():
    s = plane_surface()
    x = 1j * PAULI[2]
    t = leaving_edge_state(HALF, 0, 1)
    for t1, t2 in [(0.3, 0.5), (-0.2, 0.9), (1.1, -1.7)]:
        w1, w2 = weyl_one_param(s, x, t1), weyl_one_param(s, x, t2)
        w12 = weyl_one_param(s, x, t1 + t2)
        lhs = apply_weyl(w1, apply_weyl(w2, t))
        rhs = apply_weyl(w12, t)
        assert norm_l2(lhs - rhs) <= 1e-12


def test_regularity_norm_formula_and_monotone_decay():
    """||w_t T - T||^2 = 2 - 2 Re rho^k_k(e^{tX}) for a leaving edge."""
    s = plane_surface()
    x = 1j * PAULI[2]
    rho = parse_irrep(HALF)
    k, l = 0, 1
    t_state = leaving_edge_state(HALF, k, l)
    norms = []
    for kk in range(0, 21):
        tval = 2.0 ** (-kk)
        w = weyl_one_param(s, x, tval)
        diff = apply_weyl(w, t_state) - t_state
        measured = norm_l2(diff) ** 2
        predicted = 2 - 2 * (rho.evaluate(exp_alg(x, tval))[k, k]).real
        assert measured == pytest.approx(predicted, abs=1e-12)
        norms.append(measured)
    assert all(a >= b - 1e-15 for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= 1e-10


def test_u1_weyl_phase_action():
    """Abelian crossing: W_g T = chi(g^2) T for a transversal puncture."""
    graph = Graph.from_paths([PolyPath([(-1, 0, 0), (1, 0, 0)])])
    t = gsn(graph, "u1", {"e0": ("u1:1", 0, 0)})
    s = plane_surface()
    theta = 0.83
    g = u1_element(theta)
    w = weyl_constant(s, g)
    wt = apply_weyl(w, t)
    t_ref = refine_for_surface(t, s)
    expected = t_ref.scale(np.exp(2j * theta))
    assert norm_l2(wt - expected) <= 1e-12
