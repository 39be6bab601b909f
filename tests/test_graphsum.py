"""Graph sums: enumeration, the oracle, edge contraction, the recursion."""

import gc
import hashlib
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import prod

import pytest

from fatrec import graphsum, ribbon
from fatrec.cli import main
from fatrec.correlators import max_feasible_genus
from fatrec.exact import TPoly
from fatrec.graphsum import (GraphSum, contract_K1, enumerate_graphs,
                             graph_union, oracle_correlator,
                             oracle_correlators_all_genus, relabel,
                             relabel_graph, verify_abstract_recursion)
from fatrec.ribbon import (FatGraph, _least_rotation, _rotation_perms, dot_graph,
                           involutions, loop_graph)


def test_enumerate_single_loop():
    s = enumerate_graphs(0, (2,))
    assert len(s.terms) == 1
    [(g, c)] = s.terms.items()
    assert c == Fraction(1, 2)
    assert g == loop_graph()


def test_enumerate_six_valent():
    s = enumerate_graphs(0, (6,))
    assert sorted(s.terms.values()) == [Fraction(1, 3), Fraction(1, 2)]


def test_enumerate_genus_one_two_valent_empty():
    assert enumerate_graphs(1, (2,)).is_zero()


def test_enumerate_odd_weight_empty():
    assert enumerate_graphs(0, (3,)).is_zero()


def test_enumerate_dot():
    s = enumerate_graphs(0, (0,))
    assert s == GraphSum.single(dot_graph(1))
    assert enumerate_graphs(1, (0,)).is_zero()


def test_oracle_values():
    assert oracle_correlator(0, (4,)) == TPoly.t_power(3, Fraction(1, 2))
    assert oracle_correlator(1, (4,)) == TPoly.t_power(1, Fraction(1, 4))
    assert oracle_correlator(0, (3, 3)) == TPoly.t_power(3, Fraction(4, 3))


def test_oracle_matches_enumeration_route():
    # sum over classes of coeff * t^faces equals the direct involution sum
    for total in range(2, 11, 2):
        for mu in _partitions(total):
            by_genus = oracle_correlators_all_genus(mu)
            for g in range(0, total // 4 + 2):
                s = enumerate_graphs(g, mu)
                assert s.weighted_t_total() == by_genus.get(g, TPoly.zero())


def _partitions(total):
    def rec(remaining, maximum, prefix):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, maximum), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))
    yield from rec(total, total, ())


def test_oracle_symmetric_in_mu():
    assert oracle_correlators_all_genus((2, 4)) == oracle_correlators_all_genus((4, 2))
    assert oracle_correlators_all_genus((1, 2, 3)) == oracle_correlators_all_genus((3, 1, 2))


def test_selection_rule_monomial():
    # every oracle value is a single power t^(2-2g-n+|mu|/2)
    for mu in [(4,), (6,), (2, 4), (3, 3), (1, 1, 2)]:
        for g, poly in oracle_correlators_all_genus(mu).items():
            single = poly.single_term()
            assert single is not None
            assert single[0] == 2 - 2 * g - len(mu) + sum(mu) // 2


def test_contract_loop_gives_two_dots():
    out = contract_K1(GraphSum.single(loop_graph()))
    expected = GraphSum.single(graph_union(dot_graph(1), dot_graph(2)), 2)
    assert out == expected


def test_contract_crossing_gives_single_edge():
    crossing = FatGraph((4,), (3, 4, 1, 2))
    out = contract_K1(GraphSum.single(crossing))
    expected = GraphSum.single(FatGraph((1, 1), (2, 1)), 4)
    assert out == expected


def test_contract_lollipop():
    # v1 trivalent with a loop, pendant v2: one loop graph + two edge-plus-dot
    lollipop = FatGraph((3, 1), (4, 3, 2, 1))
    out = contract_K1(GraphSum.single(lollipop))
    edge_13_dot_2 = FatGraph((1, 0, 1), (2, 1), (1, 2, 3))
    edge_23_dot_1 = FatGraph((0, 1, 1), (2, 1), (1, 2, 3))
    expected = (GraphSum.single(loop_graph())
                + GraphSum.single(edge_13_dot_2)
                + GraphSum.single(edge_23_dot_1))
    assert out == expected


def test_contract_errors():
    with pytest.raises(ValueError, match="nothing to contract"):
        contract_K1(GraphSum.single(dot_graph(1)))
    g = FatGraph((2,), (2, 1), (2,))
    with pytest.raises(ValueError):
        contract_K1(GraphSum.single(g))


def test_relabel_identity_and_composition():
    s = enumerate_graphs(0, (1, 1))
    assert relabel(s, {1, 2}) == s
    r = relabel(s, {1, 3})
    [(g, _)] = r.terms.items()
    assert g.labels == (1, 3)
    assert relabel(relabel(s, {2, 5}), {1, 4}) == relabel(s, {1, 4})


def test_relabel_size_mismatch():
    with pytest.raises(ValueError):
        relabel(enumerate_graphs(0, (1, 1)), {1, 2, 3})


def test_relabel_rejects_repeated_labels():
    s = enumerate_graphs(0, (1, 1))
    [gr] = s.terms
    for bad in (lambda: relabel(s, [4, 4]), lambda: relabel_graph(gr, [4, 4])):
        with pytest.raises(ValueError, match="labels must be distinct"):
            bad()
    with pytest.raises(ValueError, match="labels must be distinct"):
        FatGraph((1, 1), (2, 1), (4, 4))


def test_union_label_clash():
    with pytest.raises(ValueError):
        graph_union(dot_graph(1), dot_graph(1))


def test_recursion_base_case_two_valent():
    report = verify_abstract_recursion(0, (2,))
    assert report.equal
    lhs = contract_K1(enumerate_graphs(0, (2,)))
    assert lhs == GraphSum.single(graph_union(dot_graph(1), dot_graph(2)))


def test_recursion_genus_one_four_valent():
    # K1 F_1^(4) = F_0^(1,1)
    lhs = contract_K1(enumerate_graphs(1, (4,)))
    assert lhs == enumerate_graphs(0, (1, 1))
    assert verify_abstract_recursion(1, (4,)).equal


def test_recursion_dumbbell():
    # K1 F_0^(1,1) = the dot labelled v1
    lhs = contract_K1(enumerate_graphs(0, (1, 1)))
    assert lhs == GraphSum.single(dot_graph(1))
    assert verify_abstract_recursion(0, (1, 1)).equal


def test_recursion_411_five_term_identity():
    # the worked example: 6 F^(3,1) + 2 dot_2 F^(2,1,1) + 2 dot_1 F^(2,1,1)
    #                     + F^(1,1)_{1,3} F^(1,1)_{2,4} + F^(1,1)_{1,4} F^(1,1)_{2,3}
    lhs = contract_K1(enumerate_graphs(0, (4, 1, 1)))
    rhs = enumerate_graphs(0, (3, 1)).scale(6)
    tail = enumerate_graphs(0, (2, 1, 1))
    rhs = rhs + (GraphSum.single(dot_graph(2)) * relabel(tail, {1, 3, 4})).scale(2)
    rhs = rhs + (GraphSum.single(dot_graph(1)) * relabel(tail, {2, 3, 4})).scale(2)
    edge = enumerate_graphs(0, (1, 1))
    rhs = rhs + relabel(edge, {1, 3}) * relabel(edge, {2, 4})
    rhs = rhs + relabel(edge, {1, 4}) * relabel(edge, {2, 3})
    assert lhs == rhs
    assert verify_abstract_recursion(0, (4, 1, 1)).equal


def test_recursion_report_shape():
    report = verify_abstract_recursion(0, (3, 1))
    d = report.to_dict()
    assert d["status"] == "pass"
    assert d["mismatches"] == []


def test_recursion_sweep_small():
    for mu in [(4,), (6,), (2, 2), (3, 1), (4, 2), (1, 1, 2), (2, 2, 2), (3, 3)]:
        for g in range(0, 2):
            assert verify_abstract_recursion(g, mu).equal, (g, mu)


# ---------------------------------------------------------------------------
# The pairing walk against a loop over every involution
# ---------------------------------------------------------------------------

# Orders that are not descending, with 1s, and inputs that are mostly
# disconnected pairings.
UNSORTED_MU = [(1, 1, 2), (1, 2, 1), (4, 1, 1), (1, 4, 1), (1, 3), (2, 4),
               (1, 1, 1, 1, 2), (1, 2, 1, 2, 1, 1), (2, 2, 2, 2, 1, 1),
               (1, 2, 3, 4), (3, 1, 1, 1)]


@lru_cache(maxsize=None)
def _reference(mu):
    """{genus: {first alpha met: [pairings, faces]}}, one entry per class.

    A class is the orbit of a connected pairing under every rotation; its
    first member met in ``involutions`` order is the representative.
    """
    out = {}
    seen = {}
    rotations = list(product(*(range(max(m, 1)) for m in mu)))
    for alpha in involutions(sum(mu)):
        if alpha in seen:
            seen[alpha][0] += 1
            continue
        gr = FatGraph(mu, alpha)
        if not gr.is_connected():
            continue
        faces = gr.face_count()
        genus2 = 2 - len(mu) + gr.n_edges - faces
        assert genus2 % 2 == 0
        entry = out.setdefault(genus2 // 2, {})[alpha] = [1, faces]
        for rot in rotations:
            seen[gr._rotated_alpha(rot)] = entry
    return out


def _walk_cases(total):
    cases = list(_partitions(total))
    cases += [mu for mu in UNSORTED_MU if sum(mu) == total]
    return cases


@pytest.mark.parametrize("total", range(1, 11))
def test_enumerate_matches_per_involution_reference(total):
    for mu in _walk_cases(total):
        ref = _reference(mu)
        for g in range(0, total // 4 + 2):
            expected = sorted(
                (FatGraph(mu, alpha).to_text(), Fraction(count, prod(mu)))
                for alpha, (count, _) in ref.get(g, {}).items())
            got = sorted((gr.to_text(), c)
                         for gr, c in enumerate_graphs(g, mu).terms.items())
            assert got == expected, (g, mu)


@pytest.mark.parametrize("total", range(1, 11))
def test_oracle_matches_per_involution_reference(total):
    for mu in _walk_cases(total):
        expected = {}
        for g, classes in _reference(mu).items():
            poly = TPoly.zero()
            for count, faces in classes.values():
                poly = poly + TPoly.t_power(faces, Fraction(count, prod(mu)))
            expected[g] = poly
        assert oracle_correlators_all_genus(mu) == expected, mu


def test_brute_force_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        enumerate_graphs(1, (6, 2))
        oracle_correlators_all_genus((5, 3))
        verify_abstract_recursion(0, (4, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The walk's tail tables, and the walk against the one that walks every edge
# ---------------------------------------------------------------------------

def _cycle_count(perm):
    seen, count = set(), 0
    for x in range(len(perm)):
        if x not in seen:
            count += 1
            while x not in seen:
                seen.add(x)
                x = perm[x]
    return count


def _set_partitions(n):
    """Each set partition of range(n) as the block index of every point."""
    def rec(prefix, blocks):
        if len(prefix) == n:
            yield prefix
            return
        for b in range(blocks + 1):
            yield from rec(prefix + [b], max(blocks, b + 1))
    yield from rec([], 0)


def _key(digits):
    return sum((d + 1) << 3 * i for i, d in enumerate(digits))


def test_tail_tables_match_cycle_counts_and_union_find():
    for n in (2, 4, 6):
        pairings = graphsum._PAIRINGS[n]
        # The pairings as words, in the walk's order.
        words = []
        for pairing in pairings:
            word = [0] * n
            for i, j in pairing:
                word[i], word[j] = j + 1, i + 1
            words.append(tuple(word))
        assert words == list(involutions(n))
        for rho in permutations(range(n)):
            row = (graphsum._FACE_CHANGES.get(_key(rho))
                   or graphsum._fill_face_changes(_key(rho), n))
            for stored, word in zip(row, words, strict=True):
                composed = [rho[word[x] - 1] for x in range(n)]
                assert stored - 3 == _cycle_count(composed) - _cycle_count(rho)
        for blocks in _set_partitions(n):
            first = [blocks.index(b) for b in blocks]
            row = (graphsum._JOINS.get(_key(first))
                   or graphsum._fill_joins(_key(first), n))
            for stored, pairing in zip(row, pairings, strict=True):
                parent = list(range(max(blocks) + 1))

                def root(x):
                    while parent[x] != x:
                        x = parent[x]
                    return x
                for i, j in pairing:
                    parent[root(blocks[i])] = root(blocks[j])
                connected = len({root(b) for b in blocks}) == 1
                assert stored == connected
    assert len(graphsum._FACE_CHANGES) == 2 + 24 + 720
    assert len(graphsum._JOINS) == 2 + 15 + 203


class _EdgeByEdgeWalk:
    """The pairing walk as it was before the tail tables, for reference:
    it glues every edge, the forced last pair inline."""

    __slots__ = ("alpha", "phi", "owner", "comp", "full", "target", "perms",
                 "found")

    def __init__(self, mu, target=None):
        h = sum(mu)
        self.alpha = [0] * (h + 1)
        self.phi = [0] * (h + 1)
        self.owner = [0] * (h + 1)
        start = 1
        for v, m in enumerate(mu):
            for k in range(m):
                self.phi[start + k] = start + (k + 1) % m
                self.owner[start + k] = v
            start += m
        self.comp = [1 << v for v in range(len(mu))]
        self.full = (1 << len(mu)) - 1
        self.target = target
        self.perms = None if target is None else _rotation_perms(mu)
        self.found = {}
        self._glue(1, h // 2 - 1, len(mu))

    def _glue(self, a, left, faces):
        alpha, phi, comp, owner = self.alpha, self.phi, self.comp, self.owner
        target, full = self.target, self.full
        cu = comp[owner[a]]
        for b in range(a + 1, len(alpha)):
            if alpha[b]:
                continue
            x = phi[a]
            while x != a and x != b:
                x = phi[x]
            f = faces + 1 if x == b else faces - 1
            if target is not None and abs(f - target) > left:
                continue
            cw = comp[owner[b]]
            alpha[a], alpha[b] = b, a
            phi[a], phi[b] = phi[b], phi[a]
            if left == 1:
                c = a + 1
                while alpha[c]:
                    c += 1
                d = c + 1
                while alpha[d]:
                    d += 1
                joined = cu | cw
                cc, cd = comp[owner[c]], comp[owner[d]]
                if cc & joined:
                    cc |= joined
                if cd & joined:
                    cd |= joined
                if cc | cd == full:
                    x = phi[c]
                    while x != c and x != d:
                        x = phi[x]
                    last = f + 1 if x == d else f - 1
                    if target is None or last == target:
                        alpha[c], alpha[d] = d, c
                        self._leaf(last)
                        alpha[c] = alpha[d] = 0
            elif not left:
                if cu | cw == full:
                    self._leaf(f)
            else:
                if not cu & cw:
                    merged = cu | cw
                    for v, mask in enumerate(comp):
                        if mask == cu or mask == cw:
                            comp[v] = merged
                nxt = a + 1
                while alpha[nxt]:
                    nxt += 1
                self._glue(nxt, left - 1, f)
                if not cu & cw:
                    for v, mask in enumerate(comp):
                        if mask == merged:
                            comp[v] = cu if cu >> v & 1 else cw
            phi[a], phi[b] = phi[b], phi[a]
            alpha[a] = alpha[b] = 0

    def _leaf(self, faces):
        found = self.found
        if self.target is None:
            found[faces] = found.get(faces, 0) + 1
            return
        least = _least_rotation(self.alpha, self.perms, stop_if_smaller=True)
        if least is not None:
            found[tuple(self.alpha[1:])] = least[1]


# |mu| = 12 and 14; the last two have more vertices than a connected graph
# of six edges can reach, so every tail is cut by its components.
WALK_MU = [(14,), (4, 3, 3, 2), (1, 1, 1, 1, 1, 1, 2, 2, 2),
           (2, 1, 2, 1, 2, 1, 2, 1)]


@pytest.mark.parametrize("mu", WALK_MU)
def test_walk_matches_the_edge_by_edge_walk(mu):
    assert graphsum._Walk(mu).found == _EdgeByEdgeWalk(mu).found
    # (14,) at genus 2 and 3 alone would take most of a second.
    for g in range(2 if mu == (14,) else 4):
        faces = 2 - 2 * g - len(mu) + sum(mu) // 2
        got = graphsum._Walk(mu, faces).found
        assert list(got.items()) == list(_EdgeByEdgeWalk(mu, faces).found.items())


# Equal valences, parts of 1 and unsorted parts: the rotations the prefix
# cut keeps differ per vertex.
@pytest.mark.parametrize("mu", [(6, 6), (4, 4, 2, 2), (1, 3, 3, 1)])
def test_cut_walk_keeps_the_edge_by_edge_order(mu):
    # every genus with a face, and the first without one
    for g in range((sum(mu) // 2 - len(mu)) // 2 + 2):
        faces = 2 - 2 * g - len(mu) + sum(mu) // 2
        got = graphsum._Walk(mu, faces).found
        assert list(got.items()) == list(_EdgeByEdgeWalk(mu, faces).found.items())


@pytest.mark.parametrize("g, mu, checks", [(2, (12,), 1605), (1, (6, 6), 256)])
def test_prefix_cut_leaves_few_canonical_checks(g, mu, checks, monkeypatch):
    # the uncut walk tests 6,468 and 4,800 leaves for 553 and 138 classes
    calls = []

    def counted(word, perms, **kw):
        calls.append(None)
        return _least_rotation(word, perms, **kw)

    monkeypatch.setattr(graphsum, "_least_rotation", counted)
    enumerate_graphs(g, mu)
    assert len(calls) == checks


# The oracle's count by cycle type: mu with one or two vertices reach it on
# most branches, (6, 4, 2) on some.  (14,) and (4, 3, 3, 2) are compared in
# the test above.
@pytest.mark.parametrize("mu", [(12,), (10,), (8, 6), (10, 4), (6, 4, 2)])
def test_oracle_matches_the_edge_by_edge_walk(mu):
    assert graphsum._Walk(mu).found == _EdgeByEdgeWalk(mu).found


def test_oracle_gives_harer_zagier_at_sixteen_half_edges():
    # one-vertex maps with 8 edges by genus, epsilon_g(8) (Harer and Zagier,
    # Invent. Math. 85, 1986); genus g has 9 - 2g faces
    found = graphsum._Walk((16,)).found
    assert found == {9: 1430, 7: 60060, 5: 570570, 3: 1169740, 1: 225225}


def _cycle_type(perm):
    seen, lengths = set(), []
    for x in range(len(perm)):
        if x not in seen:
            n = 0
            while x not in seen:
                seen.add(x)
                x = perm[x]
                n += 1
            lengths.append(n)
    return tuple(sorted(lengths))


def test_cycle_type_histograms_match_the_exact_rho_rows():
    for n in (2, 4, 6):
        for rho in permutations(range(n)):
            row = (graphsum._FACE_CHANGES.get(_key(rho))
                   or graphsum._fill_face_changes(_key(rho), n))
            counts = {}
            for stored in row:
                counts[stored - 3] = counts.get(stored - 3, 0) + 1
            got = graphsum._cycle_type_histogram(_cycle_type(rho))
            assert got == tuple(sorted(counts.items()))


def test_cycle_type_table_matches_conjugates_and_stays_bounded():
    rng = random.Random(8)
    words = list(involutions(8))
    types = sorted(p[::-1] for p in _partitions(8))
    assert len(types) == 22
    for lengths in types:
        stored = graphsum._BY_CYCLE_TYPE.get(lengths)
        if stored is None:
            stored = graphsum._BY_CYCLE_TYPE[lengths] = \
                graphsum._cycle_type_histogram(lengths)
        rho0, start = [], 0
        for n in lengths:
            rho0 += list(range(start + 1, start + n)) + [start]
            start += n
        for _ in range(20):
            pi = list(range(8))
            rng.shuffle(pi)
            rho = [0] * 8
            for x in range(8):
                rho[pi[x]] = pi[rho0[x]]
            assert _cycle_type(rho) == lengths
            before = _cycle_count(rho)
            counts = {}
            for word in words:
                d = _cycle_count([rho[word[x] - 1] for x in range(8)]) - before
                counts[d] = counts.get(d, 0) + 1
            assert tuple(sorted(counts.items())) == stored, lengths
    # walks add only the cycle types of 2, 4 and 6 positions
    for mu in [(14,), (8, 6), (6, 4, 2), (4,), (6,), (2, 2, 2), (3, 3)]:
        graphsum._Walk(mu)
    smaller = {p[::-1] for n in (2, 4, 6) for p in _partitions(n)}
    assert set(graphsum._BY_CYCLE_TYPE) - set(types) <= smaller
    assert len(graphsum._BY_CYCLE_TYPE) <= 2 + 5 + 11 + 22


def test_enumerate_rejects_empty_mu():
    with pytest.raises(ValueError, match="mu must have at least one vertex"):
        enumerate_graphs(1, ())


def test_oracle_rejects_empty_mu():
    with pytest.raises(ValueError, match="mu must have at least one vertex"):
        oracle_correlators_all_genus(())


# ---------------------------------------------------------------------------
# Derived graphs and sums, built without re-validation
# ---------------------------------------------------------------------------

def _rebuild_reference(blocks, alpha_map):
    """Renumbering through the validating constructor, as ``_rebuild`` was."""
    new_id = {}
    counter = 1
    for _, seq in blocks:
        for old in seq:
            new_id[old] = counter
            counter += 1
    mu = [len(seq) for _, seq in blocks]
    labels = [lab for lab, _ in blocks]
    alpha = {}
    for old, new in new_id.items():
        alpha[new] = new_id[alpha_map[old]]
    return FatGraph(mu, alpha, labels)


def _contract_at_reference(gr, h):
    """The sigma walks that ``graphsum._contract_at`` replaced."""
    n = gr.n_vertices
    hp = gr.alpha_of(h)
    p1 = gr.vertex_of(h)
    pj = gr.vertex_of(hp)
    alpha_map = {x: gr.alpha_of(x) for x in range(1, gr.n_half_edges + 1)
                 if x not in (h, hp)}
    if p1 != pj:
        # Whitehead collapse: merge the two endpoints into a new v_1.
        a_part = []
        x = gr.sigma(h)
        while x != h:
            a_part.append(x)
            x = gr.sigma(x)
        b_part = []
        x = gr.sigma(hp)
        while x != hp:
            b_part.append(x)
            x = gr.sigma(x)
        blocks = [(1, a_part + b_part)]
        next_label = 2
        for i in range(n):
            if i in (p1, pj):
                continue
            blocks.append((next_label, list(gr.block(i))))
            next_label += 1
        blocks.sort(key=lambda p: p[0])
        return _rebuild_reference(blocks, alpha_map)
    # Loop: split v_1; the side right after h becomes the new v_1.
    between = []
    x = gr.sigma(h)
    while x != hp:
        between.append(x)
        x = gr.sigma(x)
    after = []
    x = gr.sigma(hp)
    while x != h:
        after.append(x)
        x = gr.sigma(x)
    blocks = [(1, between), (2, after)]
    next_label = 3
    for i in range(n):
        if i == p1:
            continue
        blocks.append((next_label, list(gr.block(i))))
        next_label += 1
    return _rebuild_reference(blocks, alpha_map)


def _small_mu():
    for total in range(1, 9):
        yield from _walk_cases(total)


def _contract_at(gr, h):
    """The contraction at h as ``graphsum._contracted`` renumbers it,
    through the validating constructor."""
    mu, word = graphsum._contracted(gr._blocks, gr._owner, (0,) + gr.alpha, h)
    return FatGraph(mu, word[1:], range(1, len(mu) + 1))


def test_contraction_matches_sigma_walk_reference():
    for mu in _small_mu():
        for alpha in involutions(sum(mu)):
            gr = FatGraph(mu, alpha)
            for h in gr.block(0):
                assert (_contract_at(gr, h).to_text()
                        == _contract_at_reference(gr, h).to_text()), (mu, alpha, h)


def _assert_valid(gr):
    ref = FatGraph(gr.mu, gr.alpha, gr.labels)
    assert ref == gr
    for name in ("mu", "alpha", "labels", "_blocks", "_owner"):
        assert getattr(ref, name) == getattr(gr, name), (name, gr)


def _assert_valid_sum(s):
    assert all(type(c) is Fraction and c for c in s.terms.values())
    for gr in s.terms:
        _assert_valid(gr)


def test_derived_graphs_equal_validated_ones():
    for mu in _small_mu():
        n = len(mu)
        for g in range(0, sum(mu) // 4 + 2):
            s = enumerate_graphs(g, mu)
            shifted = relabel(s, range(n + 1, 2 * n + 1))
            for derived in (s, contract_K1(s), shifted, s * shifted,
                            GraphSum.single(dot_graph(n + 1)) * s, s + s, s - s):
                _assert_valid_sum(derived)
            for gr in s.terms:
                for rot in product(*(range(m) for m in mu)):
                    _assert_valid(gr.rotate(rot))


def test_recursion_builds_no_graph_through_the_constructors(monkeypatch):
    callers = []
    graph_init, sum_init = FatGraph.__init__, GraphSum.__init__

    def spy(init):
        def wrapped(self, *args):
            callers.append((init.__qualname__, sys._getframe(1).f_code.co_name))
            init(self, *args)
        return wrapped

    monkeypatch.setattr(FatGraph, "__init__", spy(graph_init))
    monkeypatch.setattr(GraphSum, "__init__", spy(sum_init))
    assert verify_abstract_recursion(1, (10,)).equal
    assert set(callers) == {("FatGraph.__init__", "dot_graph")}


# ---------------------------------------------------------------------------
# The recursion on class words against the graph-by-graph path it replaced
# ---------------------------------------------------------------------------

def _fresh(gr):
    """gr through the validating constructor, its word computed anew."""
    return FatGraph(gr.mu, gr.alpha, gr.labels)


def _contract_K1_reference(s):
    """K1 graph by graph: every contraction through the validating
    constructor and canonicalised anew, equal graphs added."""
    terms = {}
    for gr, c in s.terms.items():
        for h in gr.block(0):
            key = _contract_at(gr, h)
            terms[key] = terms.get(key, 0) + c
    return GraphSum(terms)


def _union_reference(g1, g2):
    """Disjoint union through the validating constructor, vertices sorted
    by label."""
    shift = g1.n_half_edges
    blocks = [(lab, list(g1.block(i))) for i, lab in enumerate(g1.labels)]
    blocks += [(lab, [h + shift for h in g2.block(i)])
               for i, lab in enumerate(g2.labels)]
    alpha_map = {h: g1.alpha_of(h) for h in range(1, shift + 1)}
    alpha_map.update({h + shift: g2.alpha_of(h) + shift
                      for h in range(1, g2.n_half_edges + 1)})
    return _rebuild_reference(sorted(blocks), alpha_map)


def _relabel_reference(gr, new_labels):
    """Order-preserving relabel through the validating constructor."""
    mapping = dict(zip(sorted(gr.labels), sorted(new_labels)))
    blocks = sorted((mapping[lab], list(gr.block(i)))
                    for i, lab in enumerate(gr.labels))
    return _rebuild_reference(blocks, {h: gr.alpha_of(h)
                                       for h in range(1, gr.n_half_edges + 1)})


def _recursion_rhs_reference(g, mu):
    """The right-hand side as graph sums, each term's graph validated and
    canonicalised anew, equal graphs added; only the enumeration is
    graphsum's."""
    def union(s1, s2):
        return [(_union_reference(g1, g2), c1 * c2)
                for g1, c1 in s1 for g2, c2 in s2]

    def relabelled(s, labels):
        return [(_relabel_reference(gr, labels), c) for gr, c in s.terms.items()]

    @lru_cache(maxsize=None)  # for this call only
    def enumerate_graphs(g, mu):
        return graphsum.enumerate_graphs(g, mu)

    n = len(mu)
    rest = mu[1:]
    terms = []
    if g == 0 and n == 1 and mu[0] == 2:
        terms += union([(dot_graph(1), 1)], [(dot_graph(2), 1)])
    for j in range(2, n + 1):
        m0 = mu[0] + mu[j - 1] - 2
        new_mu = (m0,) + tuple(mu[i - 1] for i in range(2, n + 1) if i != j)
        if m0 > 0:
            terms += enumerate_graphs(g, new_mu).scale(m0).terms.items()
        elif m0 == 0 and n == 2 and g == 0:
            terms.append((dot_graph(1), 1))
    rest_indices = list(range(2, n + 1))
    for a in range(1, mu[0] - 2):
        b = mu[0] - 2 - a
        coeff = a * b
        terms += enumerate_graphs(g - 1, (a, b) + rest).scale(coeff).terms.items()
        for size in range(len(rest_indices) + 1):
            for subset in combinations(rest_indices, size):
                comp = tuple(i for i in rest_indices if i not in subset)
                mu_i = tuple(mu[i - 1] for i in subset)
                mu_j = tuple(mu[i - 1] for i in comp)
                for g1 in range(0, g + 1):
                    left = relabelled(enumerate_graphs(g1, (a,) + mu_i),
                                      {1} | {i + 1 for i in subset})
                    right = relabelled(enumerate_graphs(g - g1, (b,) + mu_j),
                                       {2} | {i + 1 for i in comp})
                    terms += [(gr, c * coeff) for gr, c in union(left, right)]
    if mu[0] - 2 > 0:
        tail = enumerate_graphs(g, (mu[0] - 2,) + rest)
        for v in (1, 2):
            terms += [(gr, c * (mu[0] - 2)) for gr, c in union(
                [(dot_graph(v), 1)], relabelled(tail, set(range(1, n + 2)) - {v}))]
    out = {}
    for gr, c in terms:
        gr = _fresh(gr)
        out[gr] = out.get(gr, 0) + c
    return GraphSum(out)


def _recursion_cases(total):
    """Every (g, mu) the abstract-rec suite would check at |mu| = total,
    at most three parts."""
    for k in range(3):
        for cuts in combinations(range(1, total), k):
            mu = tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
            for g in range(max_feasible_genus(mu) + 1):
                yield g, mu


@pytest.fixture
def words_checked(monkeypatch):
    """Check every word given to FatGraph._make against a from-scratch
    least rotation; the fixture's list counts them."""
    make = FatGraph._make.__func__
    checked = []
    perms = {}  # built here, not read from the module's cache

    def checking(cls, mu, alpha, labels, canon=None):
        if canon is not None:
            if mu not in perms:
                perms[mu] = _rotation_perms.__wrapped__(mu)
            least, _ = _least_rotation((0,) + alpha, perms[mu])
            assert canon == tuple(least[1:])
            checked.append(mu)
        return make(cls, mu, alpha, labels, canon)

    monkeypatch.setattr(FatGraph, "_make", classmethod(checking))
    return checked


@pytest.mark.parametrize("total", range(1, 11))
def test_recursion_on_words_matches_the_graph_path(total, words_checked):
    for g, mu in _recursion_cases(total):
        s = enumerate_graphs(g, mu)
        lhs = contract_K1(s)
        assert lhs.terms == _contract_K1_reference(s).terms, (g, mu)
        rhs = graphsum.recursion_rhs(g, mu)
        assert rhs.terms == _recursion_rhs_reference(g, mu).terms, (g, mu)
        # every graph is born with its word as alpha
        assert all(gr._canon == gr.alpha for gr in chain(s.terms, lhs.terms, rhs.terms))
    assert words_checked or total % 2


def test_unions_and_relabels_match_the_references(words_checked):
    graphs = [gr for mu in [(4, 2), (3, 3), (2, 1, 1), (6,)] for g in range(2)
              for gr in enumerate_graphs(g, mu).terms]
    graphs += [FatGraph((4,), (4, 3, 2, 1)),  # alpha not its least rotation
               FatGraph((1, 3), (2, 1, 4, 3), (2, 1)),  # labels not sorted
               FatGraph((2, 4), (2, 1, 5, 6, 3, 4), (5, 2)), dot_graph(7)]
    for gr in graphs:
        assert gr == _fresh(gr)  # its word is known from here on
        n = gr.n_vertices
        shifted = relabel_graph(gr, range(9, 9 + n))
        assert shifted.to_text() == _relabel_reference(gr, range(9, 9 + n)).to_text()
        assert shifted == _relabel_reference(gr, range(9, 9 + n))
        for other in (shifted, dot_graph(8), FatGraph((1, 1), (2, 1), (6, 8))):
            union = graph_union(gr, other)
            assert union.to_text() == _union_reference(gr, other).to_text()
            assert union == _union_reference(gr, other)


def test_one_check_builds_each_rotation_table_once():
    # about two dozen valence vectors, more than the old bound of 16
    _rotation_perms.cache_clear()
    assert verify_abstract_recursion(0, (9, 1, 2)).equal
    info = _rotation_perms.cache_info()
    assert info.maxsize is not None
    assert 16 < info.misses == info.currsize <= info.maxsize


def test_graphs_born_with_their_word_are_not_canonicalised_again(monkeypatch):
    def no_rotation_tried(word, perms, *args):
        assert not perms, "a graph's word was computed again"
        return word, 1

    monkeypatch.setattr(ribbon, "_least_rotation", no_rotation_tried)
    for g, mu in [(1, (6, 2)), (0, (4, 1, 1)), (0, (2,))]:
        s = enumerate_graphs(g, mu)
        for derived in (contract_K1(s), graphsum.recursion_rhs(g, mu)):
            assert all(gr._canon == gr.alpha for gr in derived.terms)


def _mismatches_reference(g, mu):
    """The mismatches as verify_abstract_recursion listed them from graph
    sums: every graph of either side sorted by its canonical encoding."""
    lhs = _contract_K1_reference(enumerate_graphs(g, mu))
    rhs = graphsum.recursion_rhs(g, mu)
    out = []
    for gr in sorted(set(lhs.terms) | set(rhs.terms), key=lambda x: x.canonical()):
        a = lhs.terms.get(gr, Fraction(0))
        b = rhs.terms.get(gr, Fraction(0))
        if a != b:
            out.append((gr.canonical(), a, b))
    return out, len(lhs.terms), len(rhs.terms)


def test_mismatches_keep_their_order_on_a_wrong_rhs(monkeypatch):
    terms = graphsum._rhs_terms

    def wrong(g, mu, memo):
        # drop a third of the terms and scale the others by 1, 2 or 3
        for i, (key, c) in enumerate(terms(g, mu, memo)):
            if i % 3:
                yield key, c * (i % 4 or 3)

    monkeypatch.setattr(graphsum, "_rhs_terms", wrong)
    for g, mu in [(0, (6, 2)), (1, (8,)), (0, (4, 1, 1)), (1, (5, 3)), (0, (2,))]:
        report = verify_abstract_recursion(g, mu)
        got = [(FatGraph.from_text(t).canonical(), a, b)
               for t, a, b in report.mismatches]
        expected, lhs_terms, rhs_terms = _mismatches_reference(g, mu)
        assert expected, (g, mu)
        assert got == expected, (g, mu)
        assert report.equal == (not expected)
        assert (report.lhs_terms, report.rhs_terms) == (lhs_terms, rhs_terms)
        # each mismatch is printed with its class's least alpha
        for text, _, _ in report.mismatches:
            gr = FatGraph.from_text(text)
            assert gr.alpha == gr.canonical_word(), text
        if (g, mu) == (1, (8,)):
            assert report.mismatches[0] == (
                "n=2; mu=0,6; alpha=(1 2)(3 5)(4 6)", Fraction(6), Fraction(12))


@pytest.mark.parametrize("argv, digest", [
    ("enumerate --mu 3,3,2 --details --format json",
     "e37933665ff153681ec0aefb8847c450ac0c61264105519abaff35a1c15bc7e4"),
    ("enumerate --mu 10 --genus 2 --details",
     "b6b8435b9c87f9bf04865149d9691ac2c022c5303b1515b57a17b7920f685d98"),
    ("verify --suite abstract-rec --format json",
     "dc38c881e8fd27563b1d6194dea5f71e32a410dd2171250377db79638199f8af"),
], ids=["enumerate_332_json", "enumerate_10_genus_2", "abstract_rec_json"])
def test_cli_graph_golden(argv, digest, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*argv.split(), "--no-cache"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
