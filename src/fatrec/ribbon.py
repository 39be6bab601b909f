"""Fat graphs as permutation pairs: faces, genus, components, canonical form.

A fat graph on labelled vertices is stored as
  * a valence vector mu (vertex i owns the contiguous half-edge block
    of size mu[i], numbered consecutively from 1),
  * the pairing alpha, a fixed-point-free involution of {1..H},
  * vertex labels (label k means the vertex named v_k).

The vertex rotation sigma is implicit: within each block the cyclic order is
block order.  Faces are the orbits of sigma o alpha (sigma applied after
alpha); the choice is pinned by the test suite against three known face
counts.  Equivalence of two graphs (same labels, same mu) is alpha-conjugacy
under the rotation group prod_i Z/mu_i, realized by canonical encodings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence


@dataclass(frozen=True)
class FaceSet:
    """Faces of a fat graph: the sigma-alpha orbits plus isolated-vertex faces.

    ``cycles`` partitions the half-edges; ``count`` additionally counts one
    face per valence-0 vertex.
    """

    cycles: tuple[tuple[int, ...], ...]
    count: int


class FatGraph:
    """Immutable labelled fat graph; see module docstring.

    The constructor checks its input: valences, labels, and that alpha is a
    fixed-point-free involution of 1..H.  Graphs derived from valid ones
    (renumbered, rotated or enumerated) are built by the trusted ``_make``,
    which skips those checks; both fill the same slots through ``_fill``.
    """

    __slots__ = ("mu", "labels", "alpha", "_blocks", "_canon", "_owner")

    def __init__(self, mu: Sequence[int], alpha: Sequence[int] | dict[int, int],
                 labels: Sequence[int] | None = None):
        mu = tuple(int(m) for m in mu)
        if any(m < 0 for m in mu):
            raise ValueError("negative valence")
        h = sum(mu)
        if h % 2:
            raise ValueError("odd number of half-edges cannot be glued")
        if labels is None:
            labels = tuple(range(1, len(mu) + 1))
        else:
            labels = tuple(int(x) for x in labels)
        if len(labels) != len(mu) or len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct, one per vertex")
        if isinstance(alpha, dict):
            a = tuple(alpha[i] for i in range(1, h + 1))
        else:
            a = tuple(int(x) for x in alpha)
        if len(a) != h or sorted(a) != list(range(1, h + 1)):
            raise ValueError("alpha must permute 1..H")
        for i, j in enumerate(a, start=1):
            if j == i:
                raise ValueError("alpha has a fixed point")
            if a[j - 1] != i:
                raise ValueError("alpha is not an involution")
        self._fill(mu, a, labels)

    @classmethod
    def _make(cls, mu: tuple[int, ...], alpha: tuple[int, ...],
              labels: tuple[int, ...], canon: tuple[int, ...] | None = None
              ) -> "FatGraph":
        """Trusted constructor: tuples of ints that the constructor would accept.

        ``canon``, when the caller knows it, is the least rotation of alpha
        (what ``canonical_word`` would compute).
        """
        self = object.__new__(cls)
        self._fill(mu, alpha, labels, canon)
        return self

    def _fill(self, mu, alpha, labels, canon=None):
        blocks = []
        owner = [0]
        for i, m in enumerate(mu):
            blocks.append(tuple(range(len(owner), len(owner) + m)))
            owner += [i] * m
        for name, value in (("mu", mu), ("labels", labels), ("alpha", alpha),
                            ("_blocks", tuple(blocks)), ("_canon", canon),
                            ("_owner", tuple(owner))):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("FatGraph is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.mu)

    @property
    def n_half_edges(self) -> int:
        return sum(self.mu)

    @property
    def n_edges(self) -> int:
        return self.n_half_edges // 2

    def vertex_of(self, h: int) -> int:
        """0-based vertex index owning half-edge h."""
        if not 1 <= h <= self.n_half_edges:
            raise ValueError(f"no such half-edge {h}")
        return self._owner[h]

    def block(self, i: int) -> tuple[int, ...]:
        return self._blocks[i]

    def sigma(self, h: int) -> int:
        """Next half-edge counterclockwise at the vertex of h."""
        i = self.vertex_of(h)
        block = self._blocks[i]
        pos = h - block[0]
        return block[(pos + 1) % len(block)]

    def alpha_of(self, h: int) -> int:
        return self.alpha[h - 1]

    # -- topology -----------------------------------------------------------

    def face_cycles(self) -> list[tuple[int, ...]]:
        """Orbits of sigma o alpha on half-edges (isolated vertices excluded)."""
        seen = [False] * (self.n_half_edges + 1)
        cycles = []
        for start in range(1, self.n_half_edges + 1):
            if seen[start]:
                continue
            cyc = []
            h = start
            while not seen[h]:
                seen[h] = True
                cyc.append(h)
                h = self.sigma(self.alpha_of(h))
            cycles.append(tuple(cyc))
        return cycles

    def face_count(self) -> int:
        """Number of faces: orbit count plus one per isolated vertex."""
        return len(self.face_cycles()) + sum(1 for m in self.mu if m == 0)

    def faces(self) -> FaceSet:
        cycles = tuple(self.face_cycles())
        return FaceSet(cycles, len(cycles) + sum(1 for m in self.mu if m == 0))

    def vertex_components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted tuples of 0-based vertex indices."""
        n = self.n_vertices
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for h in range(1, self.n_half_edges + 1):
            a, b = find(self.vertex_of(h)), find(self.vertex_of(self.alpha_of(h)))
            if a != b:
                parent[a] = b
        groups: dict[int, list[int]] = {}
        for v in range(n):
            groups.setdefault(find(v), []).append(v)
        return sorted(tuple(sorted(g)) for g in groups.values())

    def is_connected(self) -> bool:
        return len(self.vertex_components()) == 1

    def genus(self) -> int:
        """Genus; for disconnected graphs sum of component genera minus k-1."""
        comps = self.vertex_components()
        total = 0
        for comp in comps:
            total += self._component_genus(set(comp))
        return total - len(comps) + 1

    def _component_genus(self, vertices: set[int]) -> int:
        v = len(vertices)
        halves = [h for i in vertices for h in self._blocks[i]]
        e = len(halves) // 2
        if not halves:
            f = 1
        else:
            hs = set(halves)
            seen = set()
            f = 0
            for start in halves:
                if start in seen:
                    continue
                f += 1
                h = start
                while h not in seen:
                    seen.add(h)
                    h = self.sigma(self.alpha_of(h))
                    if h not in hs:
                        raise AssertionError("face escaped component")
        two_minus_2g = v - e + f
        if (2 - two_minus_2g) % 2:
            raise AssertionError("non-integer genus")
        g = (2 - two_minus_2g) // 2
        if g < 0:
            raise AssertionError("negative component genus")
        return g

    # -- canonical form and automorphisms ------------------------------------

    def _rotated_alpha(self, rot: Sequence[int]) -> tuple[int, ...]:
        """Alpha conjugated by rotating block i forward by rot[i]."""
        perm = [0] * (self.n_half_edges + 1)
        for i, block in enumerate(self._blocks):
            m = len(block)
            for pos, h in enumerate(block):
                perm[h] = block[(pos + rot[i]) % m]
        out = [0] * self.n_half_edges
        for h in range(1, self.n_half_edges + 1):
            out[perm[h] - 1] = perm[self.alpha[h - 1]]
        return tuple(out)

    def canonical_word(self) -> tuple[int, ...]:
        """Lexicographically minimal alpha word over the rotation group."""
        if self._canon is None:
            word, _ = _least_rotation((0,) + self.alpha, _rotation_perms(self.mu))
            object.__setattr__(self, "_canon", tuple(word[1:]))
        return self._canon

    def canonical(self) -> bytes:
        """Canonical byte encoding; equal iff the graphs are equivalent."""
        head = (f"mu={','.join(map(str, self.mu))};"
                f"labels={','.join(map(str, self.labels))};")
        word = ",".join(map(str, self.canonical_word()))
        return (head + "alpha=" + word).encode()

    def aut_order(self) -> int:
        """Size of the stabilizer of alpha inside the rotation group."""
        return _least_rotation((0,) + self.alpha, _rotation_perms(self.mu))[1]

    def rotate(self, rot: Sequence[int]) -> "FatGraph":
        return FatGraph._make(self.mu, self._rotated_alpha(rot), self.labels)

    # -- equality and text form ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FatGraph):
            return NotImplemented
        return (self.mu == other.mu and self.labels == other.labels
                and self.canonical_word() == other.canonical_word())

    def __hash__(self):
        return hash((self.mu, self.labels, self.canonical_word()))

    def alpha_cycles_str(self) -> str:
        pairs = sorted({tuple(sorted((h, self.alpha_of(h))))
                        for h in range(1, self.n_half_edges + 1)})
        return "".join(f"({a} {b})" for a, b in pairs)

    def to_text(self) -> str:
        """Serialization "n=2; mu=3,3; alpha=(1 4)(2 5)(3 6)"; round-trips."""
        base = (f"n={self.n_vertices}; mu={','.join(map(str, self.mu))}; "
                f"alpha={self.alpha_cycles_str() or '()'}")
        if self.labels != tuple(range(1, self.n_vertices + 1)):
            base += f"; labels={','.join(map(str, self.labels))}"
        return base

    @staticmethod
    def from_text(text: str) -> "FatGraph":
        fields = dict()
        for part in text.split(";"):
            k, _, v = part.strip().partition("=")
            fields[k.strip()] = v.strip()
        n = int(fields["n"])
        mu = [int(x) for x in fields["mu"].split(",") if x != ""] if fields["mu"] else []
        if len(mu) != n:
            raise ValueError("n does not match mu")
        pairs = re.findall(r"\(\s*(\d+)\s+(\d+)\s*\)", fields["alpha"])
        alpha = {}
        for a, b in pairs:
            a, b = int(a), int(b)
            alpha[a] = b
            alpha[b] = a
        labels = None
        if "labels" in fields:
            labels = [int(x) for x in fields["labels"].split(",")]
        return FatGraph(mu, alpha, labels)

    def __repr__(self) -> str:
        return f"FatGraph({self.to_text()})"


def loop_graph() -> FatGraph:
    """One vertex, one loop: mu=(2)."""
    return FatGraph((2,), (2, 1))


def theta_graph() -> FatGraph:
    """Two valence-3 vertices joined by three parallel edges, genus 0."""
    return FatGraph((3, 3), {1: 4, 4: 1, 2: 6, 6: 2, 3: 5, 5: 3})


def dot_graph(label: int = 1) -> FatGraph:
    """A single isolated vertex (valence 0)."""
    return FatGraph((0,), (), (label,))


# One check of the recursion canonicalises the words of up to 24 valence
# vectors (|mu| <= 12, at most three parts), so a bound of 64 keeps every
# vector of a check and of the checks around it.
@lru_cache(maxsize=64)
def _rotation_perms(mu: tuple[int, ...]) -> tuple:
    """(p, p^-1) for every rotation but the identity, as tuples on 0..H.

    p turns block i forward by r_i; index 0 is fixed, so a word stored with a
    leading 0 maps to one that keeps it.  p^-1 is the tuple of the rotation
    by -r, shared, not copied.
    """
    sizes = [max(m, 1) for m in mu]
    perms = {}
    for rot in product(*map(range, sizes)):
        p = [0]
        for r, m in zip(rot, mu):
            base = len(p)
            p.extend(base + (pos + r) % m for pos in range(m))
        perms[rot] = tuple(p)
    return tuple((p, perms[tuple(-r % m for r, m in zip(rot, sizes))])
                 for rot, p in perms.items() if any(rot))


def _least_rotation(word: Sequence[int], perms, stop_if_smaller: bool = False):
    """The least rotated form of an alpha word and how many rotations give it.

    ``word`` holds alpha(x) at index x and 0 at index 0; ``perms`` is
    ``_rotation_perms(mu)``.  Each rotated word p o alpha o p^-1 is compared
    with the least so far position by position, up to the first difference,
    and built in full only when it is smaller.  The count of rotations giving
    the least word is |Aut| (a coset of the stabilizer).  With
    ``stop_if_smaller`` the scan returns None at the first smaller word.
    """
    best = word
    ties = 1
    h = len(word)
    for p, q in perms:
        for x in range(1, h):
            v = p[word[q[x]]]
            if v != best[x]:
                break
        else:
            ties += 1
            continue
        if v > best[x]:
            continue
        if stop_if_smaller:
            return None
        best = [p[word[x]] for x in q]
        ties = 1
    return best, ties


def involutions(h: int) -> Iterable[tuple[int, ...]]:
    """All fixed-point-free involutions of {1..h}, smallest-free-point pairing.

    Deterministic order: the smallest unpaired half-edge is paired with each
    larger free half-edge in increasing order.
    """
    if h % 2:
        return
    yield from _pair_up([0] * (h + 1), list(range(1, h + 1)))


def _pair_up(pairing: list[int], free: list[int]):
    if not free:
        yield tuple(pairing[1:])
        return
    a = free[0]
    rest = free[1:]
    for idx, b in enumerate(rest):
        pairing[a], pairing[b] = b, a
        yield from _pair_up(pairing, rest[:idx] + rest[idx + 1:])
    pairing[a] = 0
