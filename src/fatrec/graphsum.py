"""Formal graph sums, the brute-force enumerator, and the contraction operator.

This module is the structural oracle of the package: abstract correlators are
built literally (one canonical fat graph per class, weighted 1/|Aut|), the
edge-contraction operator acts graph by graph, and the quadratic recursion is
checked as an identity between finite graph sums.

The brute force counts each of the (|mu|-1)!! pairings once, depth first, in
lexicographic order of the alpha word.  Faces and components are updated per
edge (see ``_Walk``) in place of a fresh face count and union-find per
pairing, and the last three edges of every pairing are counted from two
bounded tables in place of walking them edge by edge: the face change of
each of their 15 pairings, keyed by how the open faces pass through the six
free half-edges, and whether it connects the graph, keyed by the components
those half-edges lie on.  Once the map is connected with four edges or
fewer left, the oracle counts them all at once: every completion of it is
connected, and the face changes of the pairings of its free half-edges
depend only on the cycle type of the open faces (how many free half-edges
each holds), since relabelling the free half-edges permutes the pairings and
keeps each face change, so a third table keyed by that cycle type gives
their histogram.  The tables are filled on first use and kept for the
process, since there are at most 746, 220 and 40 keys and refilling them
would cost more than a small walk.
``enumerate_graphs`` makes one canonical test per pairing of the wanted
genus: since a class's first word met is its least, a pairing is kept only
when no rotation gives a smaller word, and its weight 1/|Aut| comes from the
rotations that give the same word.  Nothing here uses the correlator
recursion, so the oracle stays an independent check of it.

Every graph and sum derived here comes from valid parts, so it is built on
one trusted path: graphs by ``FatGraph._make`` (``_rebuild`` renumbers the
half-edges of a contraction, union or relabelling; the walk's words come
out whole) and sums by ``GraphSum._of``, through ``_summed`` wherever terms
are added.  Only the public constructors check their input.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import prod

from .exact import Rat, TPoly, rat_str
from .ribbon import (FatGraph, _least_rotation, _rotation_perms, dot_graph,
                     involutions)


class GraphSum:
    """Finite linear combination of labelled fat graphs with Rat coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[FatGraph, Rat] | None = None):
        clean: dict[FatGraph, Rat] = {}
        if terms:
            for gr, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[gr] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, terms: dict[FatGraph, Fraction]) -> "GraphSum":
        """Trusted constructor: every coefficient is a nonzero Fraction."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *a):
        raise AttributeError("GraphSum is immutable")

    @staticmethod
    def zero() -> "GraphSum":
        return GraphSum._of({})

    @staticmethod
    def single(graph: FatGraph, coeff=1) -> "GraphSum":
        return GraphSum({graph: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphSum):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "GraphSum") -> "GraphSum":
        return _summed(chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "GraphSum":
        return GraphSum._of({gr: -c for gr, c in self.terms.items()})

    def __sub__(self, other: "GraphSum") -> "GraphSum":
        return self + (-other)

    def scale(self, c) -> "GraphSum":
        c = Fraction(c)
        if c == 0:
            return GraphSum.zero()
        return GraphSum._of({gr: k * c for gr, k in self.terms.items()})

    def __mul__(self, other: "GraphSum") -> "GraphSum":
        """Disjoint union of graphs, bilinear; label sets must not clash."""
        return _summed((graph_union(g1, g2), c1 * c2)
                       for g1, c1 in self.terms.items()
                       for g2, c2 in other.terms.items())

    def weighted_t_total(self) -> TPoly:
        """Sum of coeff * t^(face count) over the graphs in this sum."""
        out = TPoly.zero()
        for gr, c in self.terms.items():
            out = out + TPoly.t_power(gr.face_count(), c)
        return out

    def sorted_terms(self) -> list[tuple[FatGraph, Rat]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].canonical())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{rat_str(c)} * [{gr.to_text()}]"
                          for gr, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"GraphSum({self})"


def _summed(terms) -> GraphSum:
    """The GraphSum of (graph, Fraction) terms: equal graphs added, zeros dropped."""
    out: dict[FatGraph, Fraction] = {}
    for gr, c in terms:
        out[gr] = out.get(gr, 0) + c
    return GraphSum._of({gr: c for gr, c in out.items() if c})


def _rebuild(pieces, alpha) -> FatGraph:
    """Renumber half-edges into a fresh FatGraph, vertices sorted by label.

    ``pieces`` lists (label, old half-edge ids in rotation order), one per
    vertex; ``alpha[x]`` is the old id paired with old id x.
    """
    pieces = sorted(pieces, key=lambda p: p[0])
    order = [old for _, seq in pieces for old in seq]
    new_id = dict(zip(order, range(1, len(order) + 1)))
    return FatGraph._make(tuple(len(seq) for _, seq in pieces),
                          tuple(new_id[alpha[old]] for old in order),
                          tuple(lab for lab, _ in pieces))


def graph_union(g1: FatGraph, g2: FatGraph) -> FatGraph:
    """Disjoint union; vertices re-sorted by label."""
    if set(g1.labels) & set(g2.labels):
        raise ValueError("label sets overlap")
    shift = g1.n_half_edges
    pieces = [(lab, g1.block(i)) for i, lab in enumerate(g1.labels)]
    pieces += [(lab, tuple(h + shift for h in g2.block(i)))
               for i, lab in enumerate(g2.labels)]
    return _rebuild(pieces, (0,) + g1.alpha + tuple(h + shift for h in g2.alpha))


def relabel_graph(gr: FatGraph, new_labels: set[int] | list[int]) -> FatGraph:
    """Replace the labels by ``new_labels``, preserving relative order."""
    new = sorted(new_labels)
    if len(new) != gr.n_vertices:
        raise ValueError("label count mismatch")
    mapping = dict(zip(sorted(gr.labels), new))
    return _rebuild([(mapping[lab], gr.block(i)) for i, lab in enumerate(gr.labels)],
                    (0,) + gr.alpha)


def relabel(s: GraphSum, index_set) -> GraphSum:
    """F_{g,I}: replace labels v_1..v_n by the sorted indices of I."""
    return _summed((relabel_graph(gr, index_set), c) for gr, c in s.terms.items())


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _valences(mu) -> tuple[int, ...]:
    mu = tuple(int(m) for m in mu)
    if not mu:
        raise ValueError("mu must have at least one vertex")
    if mu != (0,) and any(m < 1 for m in mu):
        raise ValueError("valences must be positive (or the single (0))")
    return mu


class _Walk:
    """Depth-first walk over the pairings of mu, in lexicographic word order.

    The smallest free half-edge a is glued to each larger free b in turn.
    phi = sigma o alpha is kept up to date: gluing a to b swaps phi[a] and
    phi[b], which splits one face in two when a and b lie on one phi-cycle
    and merges two faces otherwise, so the face count starts at n (one per
    vertex) and moves by one per edge.  ``comp[v]`` is the vertex bitmask
    of the component of v.  With a ``target`` face count, branches that
    cannot reach it are cut.

    The last three edges (all of them when mu has at most six half-edges)
    are not walked: ``_tail`` reads their 15 pairings, in the same order,
    from the tables ``_FACE_CHANGES`` and ``_JOINS``.  Without a target, a
    connected map with four edges or fewer left is not walked either:
    ``_count_by_cycle_type`` adds the face histogram of its completions from
    ``_BY_CYCLE_TYPE``.  Each pairing is still counted once.  Building a
    walk runs it: ``found`` maps face counts to connected pairing counts or,
    given a target, the canonical words of that face count to |Aut|.
    """

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
        if h > 6:
            self._glue(1, h // 2 - 1, len(mu))
        else:
            self._tail(1, len(mu))

    def _glue(self, a, left, faces):
        """Glue half-edge a to each larger free one; ``left`` edges follow."""
        alpha, phi, comp, owner = self.alpha, self.phi, self.comp, self.owner
        target = self.target
        cu = comp[owner[a]]
        if left == 3 and target is None and cu == self.full:  # 8 free
            self._count_by_cycle_type(a, faces)
            return
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
            if not cu & cw:
                merged = cu | cw
                for v, mask in enumerate(comp):
                    if mask == cu or mask == cw:
                        comp[v] = merged
            nxt = a + 1
            while alpha[nxt]:
                nxt += 1
            if left == 3:
                self._tail(nxt, f)
            else:
                self._glue(nxt, left - 1, f)
            if not cu & cw:
                for v, mask in enumerate(comp):
                    if mask == merged:
                        comp[v] = cu if cu >> v & 1 else cw
            phi[a], phi[b] = phi[b], phi[a]
            alpha[a] = alpha[b] = 0

    def _count_by_cycle_type(self, a, faces):
        """Count the completions of a connected map, a the smallest of its
        free half-edges, of which there are at most eight.

        Every completion is connected, and the face changes of the pairings
        depend on rho only through its cycle type: how many free half-edges
        lie on each face that still has any.
        """
        alpha, phi = self.alpha, self.phi
        lengths = []
        seen = 0
        for x in range(a, len(alpha)):
            if alpha[x] or seen >> x & 1:
                continue
            n = 1
            y = phi[x]
            while y != x:
                if not alpha[y]:
                    n += 1
                    seen |= 1 << y
                y = phi[y]
            lengths.append(n)
        lengths.sort()
        key = tuple(lengths)
        histogram = _BY_CYCLE_TYPE.get(key)
        if histogram is None:
            histogram = _BY_CYCLE_TYPE[key] = _cycle_type_histogram(key)
        found = self.found
        for d, k in histogram:
            found[faces + d] = found.get(faces + d, 0) + k

    def _tail(self, a, faces):
        """Count the pairings of the free half-edges, a the smallest of them.

        rho, the first return of phi to the free half-edges, gives the face
        change of every pairing; the components they lie on give the
        pairings that connect the graph.  Without a target, a connected map
        is counted by the cycle type of rho instead.
        """
        alpha, phi, comp, owner = self.alpha, self.phi, self.comp, self.owner
        target = self.target
        if target is None and comp[owner[a]] == self.full:
            self._count_by_cycle_type(a, faces)
            return
        free = [x for x in range(a, len(alpha)) if not alpha[x]]
        key = shift = 0
        for x in free:
            y = phi[x]
            while alpha[y]:
                y = phi[y]
            key |= (free.index(y) + 1) << shift
            shift += 3
        changes = _FACE_CHANGES.get(key) or _fill_face_changes(key, len(free))
        masks = [comp[owner[x]] for x in free]
        joins = _CONNECTED
        if masks[0] != self.full:
            key = shift = union = 0
            for m in masks:
                key |= (masks.index(m) + 1) << shift
                shift += 3
                union |= m
            if union != self.full:
                return
            joins = _JOINS.get(key) or _fill_joins(key, len(free))
        if target is None:
            found = self.found
            for d, ok in zip(changes, joins):
                if ok:
                    found[faces + d - 3] = found.get(faces + d - 3, 0) + 1
            return
        want = target - faces + 3
        # A walk that starts here was not cut, so want may be out of range.
        if not 0 <= want <= 6 or want not in changes:
            return
        for d, pairing, ok in zip(changes, _PAIRINGS[len(free)], joins):
            if d == want and ok:
                for i, j in pairing:
                    alpha[free[i]], alpha[free[j]] = free[j], free[i]
                self._leaf()
        for x in free:
            alpha[x] = 0

    def _leaf(self):
        """Keep the connected pairing in ``alpha`` if its word is canonical."""
        least = _least_rotation(self.alpha, self.perms, stop_if_smaller=True)
        if least is not None:
            self.found[tuple(self.alpha[1:])] = least[1]


def _pairings_of(n):
    """The pairings of n free half-edges in walk order, each as its (i, j)
    pairs of positions, i < j."""
    return tuple(tuple((i, w[i] - 1) for i in range(n) if i < w[i] - 1)
                 for w in involutions(n))


# The pairings of 2, 4 and 6 positions.  Those of 8 are built for each of
# the at most 22 fills of _BY_CYCLE_TYPE and not kept.
_PAIRINGS = {n: _pairings_of(n) for n in (2, 4, 6)}
# The joins of a tail whose half-edges all lie on one component.
_CONNECTED = b"\1" * 15

# The walk's tail tables.  A key packs one digit d_i + 1 per free position i
# in 3 bits, so keys of 2, 4 and 6 positions never collide.  _FACE_CHANGES
# maps rho (d_i = rho(i)) to the face change + 3 of each pairing, at most
# 2 + 24 + 720 keys; _JOINS maps a component pattern (d_i = the first
# position on the component of i) to 1 for each pairing that joins all the
# components, at most 2 + 15 + 203 keys.  _BY_CYCLE_TYPE maps the cycle type
# of a rho on 2, 4, 6 or 8 positions, its cycle lengths sorted, to the
# (face change, pairings) pairs of its pairings, at most p(2) + p(4) + p(6)
# + p(8) = 2 + 5 + 11 + 22 keys: conjugating by a permutation of the
# positions maps the pairings onto themselves and keeps every face change,
# and two rho of one cycle type are conjugate.  The oracle reads it for every
# connected tail, so it reads the other two only for the tails of
# enumerate_graphs and of maps not yet connected.  They are filled on first
# use and kept for the life of the
# process: they are bounded, and a key costs about 15 us to fill (an eight-
# point one about 0.6 ms), so refilling them for each walk would take the
# oracle of (10,) from 0.1 to 3.5 ms (5 keys) and that of (14,) from 6 to
# 15 ms (15 keys).
_FACE_CHANGES: dict[int, bytes] = {}
_JOINS: dict[int, bytes] = {}
_BY_CYCLE_TYPE: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}


def _digits(key, n):
    return [(key >> 3 * i & 7) - 1 for i in range(n)]


def _face_changes(rho):
    """The face change of each pairing of the positions of rho, in walk order.

    Gluing i to j splits a face (+1) when they lie on one rho-cycle and
    merges two (-1) otherwise, and swaps rho(i) and rho(j).
    """
    n = len(rho)
    for pairing in _PAIRINGS[n] if n in _PAIRINGS else _pairings_of(n):
        r = list(rho)
        d = 0
        for i, j in pairing:
            x = r[i]
            while x != i and x != j:
                x = r[x]
            d += 1 if x == j else -1
            r[i], r[j] = r[j], r[i]
        yield d


def _fill_face_changes(key, n):
    """Store and return the face change + 3 of every pairing under rho = key."""
    _FACE_CHANGES[key] = row = bytes(3 + d for d in _face_changes(_digits(key, n)))
    return row


def _cycle_type_histogram(lengths):
    """The (face change, pairings) pairs, sorted, of any rho whose cycles
    have the given lengths, counted on the one whose cycles run through
    consecutive positions."""
    rho, start = [], 0
    for n in lengths:
        rho += range(start + 1, start + n)
        rho.append(start)
        start += n
    return tuple(sorted(Counter(_face_changes(rho)).items()))


def _fill_joins(key, n):
    """Store and return 1 per pairing that joins every component of ``key``."""
    first = _digits(key, n)
    row = bytearray()
    for pairing in _PAIRINGS[n]:
        comp = list(first)
        for i, j in pairing:
            old, new = comp[j], comp[i]
            comp = [new if c == old else c for c in comp]
        row.append(len(set(comp)) == 1)
    _JOINS[key] = row = bytes(row)
    return row


def enumerate_graphs(g: int, mu) -> GraphSum:
    """Abstract correlator: sum over connected genus-g classes of 1/|Aut|.

    The walk meets the words of a class in lexicographic order, so a
    connected genus-g pairing is kept only when no rotation gives a smaller
    word: it is then the class's canonical word, and the rotations that fix
    it number |Aut|.
    """
    mu = _valences(mu)
    if mu == (0,):
        return GraphSum._of({dot_graph(1): Fraction(1)} if g == 0 else {})
    h = sum(mu)
    if h % 2 or g < 0:
        return GraphSum.zero()
    faces = 2 - 2 * g - len(mu) + h // 2
    walk = _Walk(mu, faces)
    labels = tuple(range(1, len(mu) + 1))
    return GraphSum._of({FatGraph._make(mu, word, labels): Fraction(1, aut)
                         for word, aut in walk.found.items()})


def oracle_correlators_all_genus(mu) -> dict[int, TPoly]:
    """Brute-force correlators for every genus at once, keyed by genus.

    Sums t^faces over all connected pairings divided by prod(mu); equals
    sum over classes of t^faces / |Aut| by orbit-stabilizer.
    """
    mu = _valences(mu)
    if mu == (0,):
        return {0: TPoly.t_power(1)}
    h = sum(mu)
    if h % 2:
        return {}
    rotations = prod(mu)
    out = {}
    for faces, count in _Walk(mu).found.items():
        genus2 = 2 - (len(mu) - h // 2 + faces)
        if genus2 % 2:
            raise AssertionError("non-integer genus in enumeration")
        out[genus2 // 2] = TPoly({faces: Fraction(count, rotations)})
    return out


def oracle_correlator(g: int, mu) -> TPoly:
    """Independent brute-force value of the correlator of genus g, type mu."""
    return oracle_correlators_all_genus(mu).get(g, TPoly.zero())


# ---------------------------------------------------------------------------
# Edge contraction
# ---------------------------------------------------------------------------

def _after(gr: FatGraph, x: int) -> tuple[int, ...]:
    """The half-edges after x at its vertex, in rotation order, x left out."""
    block = gr.block(gr.vertex_of(x))
    i = x - block[0]
    return block[i + 1:] + block[:i]


def _contract_at(gr: FatGraph, h: int) -> FatGraph:
    """The graph obtained by contracting the edge holding half-edge h at v_1.

    An edge to another vertex merges its ends into a new v_1 (Whitehead
    collapse); a loop splits v_1, the side right after h becoming the new
    v_1.  The other vertices keep their blocks and order and take the next
    labels.
    """
    hp = gr.alpha_of(h)
    p1, pj = gr.vertex_of(h), gr.vertex_of(hp)
    after = _after(gr, h)
    if p1 == pj:
        k = after.index(hp)
        head = [after[:k], after[k + 1:]]
    else:
        head = [after + _after(gr, hp)]
    blocks = head + [gr.block(v) for v in range(gr.n_vertices) if v not in (p1, pj)]
    return _rebuild(list(enumerate(blocks, 1)), (0,) + gr.alpha)


def contract_K1(s: GraphSum) -> GraphSum:
    """Edge-contracting operator: sum of contractions over half-edges at v_1."""
    terms = []
    for gr, c in s.terms.items():
        if 1 not in gr.labels:
            raise ValueError("graph has no vertex labelled v1")
        p1 = gr.labels.index(1)
        if gr.mu[p1] == 0:
            raise ValueError("nothing to contract")
        if gr.labels != tuple(range(1, gr.n_vertices + 1)):
            raise ValueError("contraction requires standard labels 1..n")
        terms += [(_contract_at(gr, h), c) for h in gr.block(p1)]
    return _summed(terms)


# ---------------------------------------------------------------------------
# The quadratic recursion, verified at the graph-sum level
# ---------------------------------------------------------------------------

@dataclass
class RecursionReport:
    g: int
    mu: tuple[int, ...]
    equal: bool
    mismatches: list = field(default_factory=list)
    lhs_terms: int = 0
    rhs_terms: int = 0

    def to_dict(self) -> dict:
        return {
            "g": self.g,
            "mu": list(self.mu),
            "status": "pass" if self.equal else "fail",
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "mismatches": [
                {"graph": t, "lhs": rat_str(a), "rhs": rat_str(b)}
                for t, a, b in self.mismatches
            ],
        }


def recursion_rhs(g: int, mu) -> GraphSum:
    """Right-hand side of the contraction recursion, as labelled graph sums."""
    return _summed(_rhs_terms(g, tuple(int(m) for m in mu)))


def _rhs_terms(g: int, mu: tuple[int, ...]):
    """Yield the (graph, coeff) terms of recursion_rhs; a graph may repeat."""
    n = len(mu)
    rest = mu[1:]
    one = Fraction(1)

    if g == 0 and n == 1 and mu[0] == 2:
        yield graph_union(dot_graph(1), dot_graph(2)), one

    for j in range(2, n + 1):
        m0 = mu[0] + mu[j - 1] - 2
        new_mu = (m0,) + tuple(mu[i - 1] for i in range(2, n + 1) if i != j)
        if m0 > 0:
            yield from enumerate_graphs(g, new_mu).scale(m0).terms.items()
        elif m0 == 0 and n == 2 and g == 0:
            # Contracting the dumbbell leaves the single valence-0 vertex.
            # The displayed coefficient m0 is 0 here and would drop it, yet
            # the dumbbell is one graph with one face, so F_0^(1,1) = t needs
            # this term with coefficient 1.
            yield dot_graph(1), one

    rest_indices = list(range(2, n + 1))
    for a in range(1, mu[0] - 2):
        b = mu[0] - 2 - a
        if b < 1:
            continue
        coeff = a * b
        yield from enumerate_graphs(g - 1, (a, b) + rest).scale(coeff).terms.items()
        for size in range(len(rest_indices) + 1):
            for subset in combinations(rest_indices, size):
                comp = tuple(i for i in rest_indices if i not in subset)
                mu_i = tuple(mu[i - 1] for i in subset)
                mu_j = tuple(mu[i - 1] for i in comp)
                for g1 in range(0, g + 1):
                    g2 = g - g1
                    left = enumerate_graphs(g1, (a,) + mu_i)
                    if left.is_zero():
                        continue
                    right = enumerate_graphs(g2, (b,) + mu_j)
                    if right.is_zero():
                        continue
                    left = relabel(left, {1} | {i + 1 for i in subset})
                    right = relabel(right, {2} | {i + 1 for i in comp})
                    yield from (left * right).scale(coeff).terms.items()

    if mu[0] - 2 > 0:
        tail = enumerate_graphs(g, (mu[0] - 2,) + rest)
        c = mu[0] - 2
        lab_all = set(range(1, n + 2))
        for v in (1, 2):
            dot = dot_graph(v)
            for gr, k in relabel(tail, lab_all - {v}).terms.items():
                yield graph_union(dot, gr), k * c


def verify_abstract_recursion(g: int, mu) -> RecursionReport:
    """Check K1(F_g^mu) against the recursion's right-hand side, exactly."""
    mu = tuple(int(m) for m in mu)
    lhs = contract_K1(enumerate_graphs(g, mu))
    rhs = recursion_rhs(g, mu)
    mismatches = []
    for gr in sorted(set(lhs.terms) | set(rhs.terms), key=lambda x: x.canonical()):
        a = lhs.terms.get(gr, Fraction(0))
        b = rhs.terms.get(gr, Fraction(0))
        if a != b:
            mismatches.append((gr.to_text(), a, b))
    return RecursionReport(g=g, mu=mu, equal=not mismatches, mismatches=mismatches,
                           lhs_terms=len(lhs.terms), rhs_terms=len(rhs.terms))
