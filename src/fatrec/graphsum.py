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
``enumerate_graphs`` keeps a pairing of the wanted genus only when no
rotation gives a smaller word, since a class's first word met is its least,
and its weight 1/|Aut| comes from the rotations that give the same word.
The walk cuts a branch as soon as its prefix cannot be canonical (orderly
generation: R. C. Read, Ann. Discrete Math. 2, 1978; B. D. McKay, J.
Algorithms 26, 1998).  After each edge every position below the next free
half-edge is assigned, and an assigned position keeps its value in the whole
subtree, so each rotation still in play is compared with the partial word
up to the first position where either is unassigned: one already smaller
cuts the branch, one already larger is dropped for the subtree, and only
those still tied reach the canonical test at a leaf.  A dropped rotation
gives a larger word in every completion, so it can neither beat a word nor
tie with it: every canonical word is still kept, with the same |Aut|, in
the same order.  The oracle counts pairings, not classes, and cuts nothing
by rotation.  Nothing here uses the correlator recursion, so the oracle
stays an independent check of it.

Every graph and sum derived here comes from valid parts, so it is built on
one trusted path: graphs by ``FatGraph._make`` (``_renumbered`` renumbers
the half-edges of a contraction, union or relabelling; the walk's words come
out whole) and sums by ``GraphSum._of``, through ``_added`` wherever terms
are added.  Only the public constructors check their input.

The recursion is checked on classes: a class is the key (mu, labels, word),
its word the least rotation of alpha.  Each contraction's word is
canonicalised once, a union of two classes is a class with no rotation
tried (``_union``), each (g, mu) is enumerated once per right-hand side, and
coefficients are added per key; a graph is built per class only for a
GraphSum that is returned or a mismatch that is reported.
``FatGraph._make`` is given a word only when it is alpha's least rotation,
so a graph given its word at birth has an alpha that is its own least
rotation (an enumerated class, a contraction, a class of the recursion);
unions and relabellings of graphs compute their word when first asked.
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


def _added(terms) -> dict:
    """{key: coeff} of (key, Fraction) terms: equal keys added, zeros dropped."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _summed(terms) -> GraphSum:
    """The GraphSum of (graph, Fraction) terms: equal graphs added, zeros dropped."""
    return GraphSum._of(_added(terms))


# A class (mu, labels, word) is a labelled graph up to rotation, given by
# its canonical word: the least rotation of its alpha.

def _key(gr: FatGraph) -> tuple:
    return gr.mu, gr.labels, gr.canonical_word()


def _graph(key) -> FatGraph:
    """The graph of a class, born with its word as alpha."""
    mu, labels, word = key
    return FatGraph._make(mu, word, labels, word)


def _graphs(coeffs: dict) -> GraphSum:
    """The GraphSum of {class: coeff}, one graph per class."""
    return GraphSum._of({_graph(key): c for key, c in coeffs.items()})


def _blocks_of(mu) -> list[range]:
    """The half-edges of each vertex, numbered from 1 in the order of mu."""
    blocks, start = [], 1
    for m in mu:
        blocks.append(range(start, start + m))
        start += m
    return blocks


def _renumbered(blocks, alpha) -> list[int]:
    """The word, 0 at index 0, of alpha on the half-edges of ``blocks``
    renumbered 1, 2, ... in that order.

    ``blocks`` lists old half-edge ids, vertex by vertex in rotation order;
    ``alpha[x]`` is the old id paired with old id x.
    """
    order = [x for block in blocks for x in block]
    new_id = dict(zip(order, range(1, len(order) + 1)))
    return [0] + [new_id[alpha[x]] for x in order]


def _by_label(mu, labels, alpha) -> tuple:
    """(mu, labels, alpha) with the vertices sorted by label; ``alpha``
    holds the word at index x and 0 at index 0."""
    pieces = sorted(zip(labels, _blocks_of(mu)))
    blocks = [block for _, block in pieces]
    return (tuple(map(len, blocks)), tuple(lab for lab, _ in pieces),
            tuple(_renumbered(blocks, alpha)[1:]))


def _union(part1, part2) -> tuple:
    """(mu, labels, alpha) of the disjoint union of two (mu, labels, alpha).

    Two canonical classes with sorted labels give a canonical one: a
    rotation moves the positions and values of its own part only, and the
    renumbering is increasing on each part, so the least word of the union
    is the union of the least words.
    """
    (mu1, labels1, w1), (mu2, labels2, w2) = part1, part2
    shift = len(w1)
    return _by_label(mu1 + mu2, labels1 + labels2,
                     (0,) + w1 + tuple(x + shift for x in w2))


def graph_union(g1: FatGraph, g2: FatGraph) -> FatGraph:
    """Disjoint union; vertices re-sorted by label."""
    if set(g1.labels) & set(g2.labels):
        raise ValueError("label sets overlap")
    mu, labels, alpha = _union((g1.mu, g1.labels, g1.alpha),
                               (g2.mu, g2.labels, g2.alpha))
    return FatGraph._make(mu, alpha, labels)


def relabel_graph(gr: FatGraph, new_labels: set[int] | list[int]) -> FatGraph:
    """Replace the labels by ``new_labels``, preserving relative order."""
    new = sorted(new_labels)
    if len(new) != gr.n_vertices:
        raise ValueError("label count mismatch")
    if len(set(new)) != len(new):
        raise ValueError("labels must be distinct")
    mapping = dict(zip(sorted(gr.labels), new))
    mu, labels, alpha = _by_label(gr.mu, [mapping[lab] for lab in gr.labels],
                                  (0,) + gr.alpha)
    return FatGraph._make(mu, alpha, labels)


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
    cannot reach it are cut, and so are those whose prefix cannot be
    canonical: the walk carries the rotations still tied with the partial
    word (``_tied``), cuts a branch at the first rotation already smaller
    and drops one already larger for the subtree.  Since the positions below
    the next free half-edge stay assigned, a dropped rotation is larger in
    every completion, so the leaf test over the tied ones keeps the same
    words with the same |Aut|.

    The last three edges (all of them when mu has at most six half-edges)
    are not walked: ``_tail`` reads their 15 pairings, in the same order,
    from the tables ``_FACE_CHANGES`` and ``_JOINS``.  Without a target, a
    connected map with four edges or fewer left is not walked either:
    ``_count_by_cycle_type`` adds the face histogram of its completions from
    ``_BY_CYCLE_TYPE``.  Each pairing is still counted once.  Building a
    walk runs it: ``found`` maps face counts to connected pairing counts or,
    given a target, the canonical words of that face count to |Aut|.
    """

    __slots__ = ("alpha", "phi", "owner", "comp", "full", "target", "found")

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
        self.found = {}
        live = None if target is None else _rotation_perms(mu)
        if h > 6:
            self._glue(1, h // 2 - 1, len(mu), live)
        else:
            self._tail(1, len(mu), live)

    def _glue(self, a, left, faces, live):
        """Glue half-edge a to each larger free one; ``left`` edges follow.

        ``live`` holds the rotations still tied with the partial word, or
        None without a target.
        """
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
            alpha[a], alpha[b] = b, a
            nxt = a + 1
            while alpha[nxt]:
                nxt += 1
            tied = live
            if target is not None:
                tied = self._tied(live, nxt)
                if tied is None:
                    alpha[a] = alpha[b] = 0
                    continue
            cw = comp[owner[b]]
            phi[a], phi[b] = phi[b], phi[a]
            if not cu & cw:
                merged = cu | cw
                for v, mask in enumerate(comp):
                    if mask == cu or mask == cw:
                        comp[v] = merged
            if left == 3:
                self._tail(nxt, f, tied)
            else:
                self._glue(nxt, left - 1, f, tied)
            if not cu & cw:
                for v, mask in enumerate(comp):
                    if mask == merged:
                        comp[v] = cu if cu >> v & 1 else cw
            phi[a], phi[b] = phi[b], phi[a]
            alpha[a] = alpha[b] = 0

    def _tied(self, live, nxt):
        """The rotations of ``live`` whose word still ties with alpha, which
        is assigned below ``nxt``, or None if one is already smaller.

        Each rotated word is compared with alpha position by position up to
        the first position where either is unassigned (the rotated word is
        0 there): a rotation is kept while the two agree that far, and
        dropped at the first assigned position where its word is larger.
        """
        alpha = self.alpha
        out = []
        for p, q in live:
            for x in range(1, nxt):
                v = p[alpha[q[x]]]
                if v != alpha[x]:
                    if not v:
                        out.append((p, q))
                    elif v < alpha[x]:
                        return None
                    break
            else:
                out.append((p, q))
        return out

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

    def _tail(self, a, faces, live):
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
                self._leaf(live)
        for x in free:
            alpha[x] = 0

    def _leaf(self, live):
        """Keep the connected pairing in ``alpha`` if its word is canonical:
        if no rotation of ``live`` gives a smaller word."""
        least = _least_rotation(self.alpha, live, stop_if_smaller=True)
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
    it number |Aut|.  Branches whose prefix a rotation already beats are
    not walked.  Each graph is born with that word as its alpha.
    """
    mu = _valences(mu)
    if mu == (0,):
        return GraphSum._of({dot_graph(1): Fraction(1)} if g == 0 else {})
    labels = tuple(range(1, len(mu) + 1))
    return GraphSum._of({FatGraph._make(mu, word, labels, word): Fraction(1, aut)
                         for word, aut in _classes(g, mu).items()})


def _classes(g: int, mu: tuple[int, ...]) -> dict:
    """{canonical word: |Aut|} of the connected genus-g classes of mu, a
    valence vector other than (0,)."""
    h = sum(mu)
    if h % 2 or g < 0:
        return {}
    return _Walk(mu, 2 - 2 * g - len(mu) + h // 2).found


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

def _after(block, x: int) -> tuple[int, ...]:
    """The half-edges after x in its block, in rotation order, x left out."""
    i = x - block[0]
    return block[i + 1:] + block[:i]


def _contracted(blocks, owner, alpha, h: int) -> tuple:
    """(mu, alpha) of the graph obtained by contracting the edge holding
    half-edge h of v_1, the vertex of ``blocks[0]``.

    ``owner`` and ``alpha`` are a graph's ``_owner`` and its word with 0 at
    index 0, which the returned alpha also has.  An edge to another vertex
    merges its ends into a new v_1 (Whitehead collapse); a loop splits v_1,
    the side right after h becoming the new v_1.  The other vertices keep
    their blocks and order.
    """
    hp = alpha[h]
    pj = owner[hp]
    after = _after(blocks[0], h)
    if not pj:
        k = after.index(hp)
        head = [after[:k], after[k + 1:]]
    else:
        head = [after + _after(blocks[pj], hp)]
    pieces = head + [block for v, block in enumerate(blocks) if v and v != pj]
    return tuple(map(len, pieces)), _renumbered(pieces, alpha)


def _contraction_terms(s: GraphSum):
    """Yield the (class, coeff) terms of K1 s, each contraction's word
    canonicalised once; a class may repeat."""
    for gr, c in s.terms.items():
        if 1 not in gr.labels:
            raise ValueError("graph has no vertex labelled v1")
        p1 = gr.labels.index(1)
        if gr.mu[p1] == 0:
            raise ValueError("nothing to contract")
        if gr.labels != tuple(range(1, gr.n_vertices + 1)):
            raise ValueError("contraction requires standard labels 1..n")
        blocks, owner, alpha = gr._blocks, gr._owner, (0,) + gr.alpha
        for h in blocks[0]:
            mu, word = _contracted(blocks, owner, alpha, h)
            least, _ = _least_rotation(word, _rotation_perms(mu))
            yield (mu, tuple(range(1, len(mu) + 1)), tuple(least[1:])), c


def contract_K1(s: GraphSum) -> GraphSum:
    """Edge-contracting operator: sum of contractions over half-edges at v_1."""
    return _graphs(_added(_contraction_terms(s)))


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
    return _graphs(_added(_rhs_terms(g, tuple(int(m) for m in mu), {})))


def _enumerated(g: int, mu: tuple[int, ...], memo: dict) -> list:
    """The (word, 1/|Aut|) pairs of enumerate_graphs(g, mu), mu not (0,),
    walked once per ``memo``."""
    found = memo.get((g, mu))
    if found is None:
        found = memo[g, mu] = [(word, Fraction(1, aut)) for word, aut
                               in _classes(g, _valences(mu)).items()]
    return found


def _rhs_terms(g: int, mu: tuple[int, ...], memo: dict):
    """Yield the (class, coeff) terms of recursion_rhs; a class may repeat.

    ``memo`` keeps the classes of each (genus, mu) enumerated, for one call.
    """
    n = len(mu)
    rest = mu[1:]
    one = Fraction(1)

    if g == 0 and n == 1 and mu[0] == 2:
        yield _union(_key(dot_graph(1)), _key(dot_graph(2))), one

    for j in range(2, n + 1):
        m0 = mu[0] + mu[j - 1] - 2
        new_mu = (m0,) + tuple(mu[i - 1] for i in range(2, n + 1) if i != j)
        if m0 > 0:
            labels = tuple(range(1, n))
            for word, c in _enumerated(g, new_mu, memo):
                yield (new_mu, labels, word), c * m0
        elif m0 == 0 and n == 2 and g == 0:
            # Contracting the dumbbell leaves the single valence-0 vertex.
            # The displayed coefficient m0 is 0 here and would drop it, yet
            # the dumbbell is one graph with one face, so F_0^(1,1) = t needs
            # this term with coefficient 1.
            yield _key(dot_graph(1)), one

    rest_indices = list(range(2, n + 1))
    for a in range(1, mu[0] - 2):
        b = mu[0] - 2 - a
        if b < 1:
            continue
        coeff = a * b
        split = (a, b) + rest
        labels = tuple(range(1, n + 2))
        for word, c in _enumerated(g - 1, split, memo):
            yield (split, labels, word), c * coeff
        for size in range(len(rest_indices) + 1):
            for subset in combinations(rest_indices, size):
                comp = tuple(i for i in rest_indices if i not in subset)
                mu_i = (a,) + tuple(mu[i - 1] for i in subset)
                mu_j = (b,) + tuple(mu[i - 1] for i in comp)
                labels_i = (1,) + tuple(i + 1 for i in subset)
                labels_j = (2,) + tuple(i + 1 for i in comp)
                for g1 in range(0, g + 1):
                    left = _enumerated(g1, mu_i, memo)
                    if not left:
                        continue
                    right = _enumerated(g - g1, mu_j, memo)
                    for w1, c1 in left:
                        for w2, c2 in right:
                            yield (_union((mu_i, labels_i, w1), (mu_j, labels_j, w2)),
                                   c1 * c2 * coeff)

    if mu[0] - 2 > 0:
        tail = (mu[0] - 2,) + rest
        c = mu[0] - 2
        for v in (1, 2):
            dot = _key(dot_graph(v))
            labels = tuple(lab for lab in range(1, n + 2) if lab != v)
            for word, k in _enumerated(g, tail, memo):
                yield _union(dot, (tail, labels, word)), k * c


def verify_abstract_recursion(g: int, mu) -> RecursionReport:
    """Check K1(F_g^mu) against the recursion's right-hand side, exactly.

    Both sides are {class: coeff}; graphs are built only for mismatches,
    which are listed in the order of their canonical encodings.
    """
    mu = tuple(int(m) for m in mu)
    lhs = _added(_contraction_terms(enumerate_graphs(g, mu)))
    rhs = _added(_rhs_terms(g, mu, {}))
    mismatches = []
    if lhs != rhs:
        zero = Fraction(0)
        for key in lhs.keys() | rhs.keys():
            a, b = lhs.get(key, zero), rhs.get(key, zero)
            if a != b:
                mismatches.append((_graph(key), a, b))
        mismatches.sort(key=lambda m: m[0].canonical())
    return RecursionReport(g=g, mu=mu, equal=not mismatches,
                           mismatches=[(gr.to_text(), a, b)
                                       for gr, a, b in mismatches],
                           lhs_terms=len(lhs), rhs_terms=len(rhs))
