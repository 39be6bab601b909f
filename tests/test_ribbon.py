"""Fat-graph structure: faces, genus, components, canonical form, Aut."""

import random
from itertools import product

import pytest

from fatrec.ribbon import FatGraph, dot_graph, involutions, loop_graph, theta_graph


def nested_two_loops():
    # sigma = (1 2 3 4), alpha = (1 4)(2 3)
    return FatGraph((4,), (4, 3, 2, 1))


def crossing_two_loops():
    # sigma = (1 2 3 4), alpha = (1 3)(2 4)
    return FatGraph((4,), (3, 4, 1, 2))


def test_one_loop_two_faces():
    assert loop_graph().face_count() == 2


def test_nested_loops_three_faces():
    assert nested_two_loops().face_count() == 3


def test_theta_three_faces():
    assert theta_graph().face_count() == 3


def test_genus_values():
    assert nested_two_loops().genus() == 0
    assert crossing_two_loops().genus() == 1
    assert dot_graph().genus() == 0
    assert theta_graph().genus() == 0


def test_isolated_vertex_has_one_face():
    assert dot_graph().face_count() == 1


def test_components():
    assert theta_graph().vertex_components() == [(0, 1)]
    two_loops = FatGraph((2, 2), (2, 1, 4, 3))
    assert len(two_loops.vertex_components()) == 2
    edge_plus_dot = FatGraph((1, 1, 0), (2, 1))
    assert len(edge_plus_dot.vertex_components()) == 2


def test_canonical_rotation_invariance():
    rng = random.Random(5)
    for alpha in involutions(6):
        g = FatGraph((3, 3), alpha)
        for _ in range(4):
            rot = (rng.randrange(3), rng.randrange(3))
            assert g.rotate(rot).canonical() == g.canonical()
            assert g.rotate(rot).face_count() == g.face_count()
            assert g.rotate(rot).genus() == g.genus()
            assert g.rotate(rot).aut_order() == g.aut_order()


def test_nested_vs_crossing_distinct():
    assert nested_two_loops().canonical() != crossing_two_loops().canonical()


def test_loop_graph_unique_encoding():
    encodings = {FatGraph((2,), a).canonical() for a in involutions(2)}
    assert len(encodings) == 1


def test_aut_orders():
    assert loop_graph().aut_order() == 2
    assert theta_graph().aut_order() == 3
    assert FatGraph((1, 1), (2, 1)).aut_order() == 1


def test_orbit_stabilizer():
    # class size x |Aut| = prod(mu) for every class, checked by explicit orbits
    for mu in [(4,), (6,), (3, 3), (2, 4), (2, 2, 2), (4, 4)]:
        h = sum(mu)
        classes = {}
        for alpha in involutions(h):
            g = FatGraph(mu, alpha)
            classes.setdefault(g.canonical(), []).append(g)
        total = 1
        for m in mu:
            total *= m
        for members in classes.values():
            assert len(members) * members[0].aut_order() == total


def test_aut_multiplicative_over_union():
    from fatrec.graphsum import graph_union
    g1 = loop_graph()
    g2 = FatGraph((3, 3), theta_graph().alpha, (2, 3))
    u = graph_union(g1, g2)
    assert u.aut_order() == g1.aut_order() * g2.aut_order()


def test_euler_formula_per_component():
    for mu in [(4,), (3, 1), (2, 2), (1, 1, 2)]:
        for alpha in involutions(sum(mu)):
            g = FatGraph(mu, alpha)
            if not g.is_connected():
                continue
            v, e, f = g.n_vertices, g.n_edges, g.face_count()
            assert v - e + f == 2 - 2 * g.genus()
            assert g.genus() >= 0


def test_serialization_roundtrip():
    for g in [theta_graph(), loop_graph(), dot_graph(),
              FatGraph((3, 1), (4, 3, 2, 1), (2, 5))]:
        assert FatGraph.from_text(g.to_text()) == g
        assert FatGraph.from_text(g.to_text()).labels == g.labels


def test_serialization_format():
    assert theta_graph().to_text() == "n=2; mu=3,3; alpha=(1 4)(2 6)(3 5)"


def test_construction_errors():
    with pytest.raises(ValueError):
        FatGraph((3,), (2, 1, 3))  # odd half-edge count
    with pytest.raises(ValueError):
        FatGraph((2,), (1, 2))  # fixed point
    with pytest.raises(ValueError):
        FatGraph((2,), (2, 2))  # not an involution
    with pytest.raises(ValueError):
        FatGraph((2,), (2, 1), (1, 2))  # label count mismatch


def test_involution_count():
    # (2k-1)!! fixed-point-free involutions
    assert sum(1 for _ in involutions(2)) == 1
    assert sum(1 for _ in involutions(4)) == 3
    assert sum(1 for _ in involutions(6)) == 15
    assert sum(1 for _ in involutions(8)) == 105
    assert list(involutions(3)) == []


def test_faceset_structure():
    fs = theta_graph().faces()
    assert fs.count == 3
    assert sorted(h for cyc in fs.cycles for h in cyc) == list(range(1, 7))
    dot_faces = dot_graph().faces()
    assert dot_faces.count == 1 and dot_faces.cycles == ()


def test_from_text_documented_example():
    g = FatGraph.from_text("n=2; mu=3,3; alpha=(1 4)(2 5)(3 6)")
    assert g.mu == (3, 3)
    assert g.n_edges == 3
    assert g.to_text() == "n=2; mu=3,3; alpha=(1 4)(2 5)(3 6)"


def _random_graph(rng, n):
    while True:
        mu = [rng.randrange(6) for _ in range(n)]
        if sum(mu) % 2 == 0:
            break
    halves = list(range(1, sum(mu) + 1))
    rng.shuffle(halves)
    alpha = {}
    for a, b in zip(halves[::2], halves[1::2]):
        alpha[a], alpha[b] = b, a
    return FatGraph(mu, alpha)


def _scan_cases():
    from fatrec.graphsum import graph_union
    rng = random.Random(2024)
    cases = [dot_graph(),
             graph_union(dot_graph(1), FatGraph((2,), (2, 1), (2,))),
             graph_union(dot_graph(3), theta_graph()),
             graph_union(FatGraph((0, 0), (), (1, 3)),
                         FatGraph((4,), (3, 4, 1, 2), (2,)))]
    for n in range(1, 5):
        cases += [_random_graph(rng, n) for _ in range(40)]
    return cases


def test_rotation_scan_matches_every_rotation():
    # canonical_word and aut_order against all _rotated_alpha words
    cases = _scan_cases()
    assert any(0 in g.mu and g.n_half_edges for g in cases)
    for g in cases:
        words = [g._rotated_alpha(rot)
                 for rot in product(*(range(max(m, 1)) for m in g.mu))]
        assert g.canonical_word() == min(words), g
        assert g.aut_order() == words.count(g.alpha), g
