"""Concrete permutation groups as carriers for abstract group terms.

Permutations are int32 arrays p of length `degree` with p[i] = image of
point i.  `compose(p, q)` applies p first, then q.  Groups are given by
generators; their orders come from a deterministic Schreier-Sims stabilizer
chain (Sims 1970; Holt, Eick & O'Brien 2005, sec. 4.4), which lists no
elements, on one orbit of each isomorphism class of orbits.

Isomorphism is certified for a given pairing of generators: g_i -> h_i
extends to an isomorphism exactly when |<g>| = |<h>| = |<(g_i, h_i)>|, the
last group acting on the disjoint union of the two point sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

import numpy as np

from kronrod.terms import GroupTerm, Prod, Triv, Wr, Wr2

Perm = np.ndarray
Gen = tuple[Perm, list[int]]  # a permutation and its images as a list


def identity(degree: int) -> Perm:
    return np.arange(degree, dtype=np.int32)


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return q[p]


def inverse(p: Perm) -> Perm:
    inv = np.empty_like(p)
    inv[p] = identity(len(p))
    return inv


def _is_identity(p: Perm) -> bool:
    return p.tobytes() == identity(len(p)).tobytes()


@dataclass
class PermGroup:
    """Permutation group on {0, ..., degree-1} given by generators, which
    may be passed as any integer sequences and are kept as int32 arrays."""

    degree: int
    generators: list[Perm]
    order: Optional[int] = None

    def __post_init__(self):
        self.generators = [np.asarray(g, dtype=np.int32) for g in self.generators]
        for g in self.generators:
            if g.shape != (self.degree,) or not (np.sort(g) == identity(self.degree)).all():
                raise ValueError(f"generator {g} is not a permutation of degree {self.degree}")


# ---------------------------------------------------------------------------
# group orders by Schreier-Sims
# ---------------------------------------------------------------------------


def _same_action(images: list[list[int]], a: int, b: int) -> bool:
    """Is x^s -> y^s, started from a -> b, a map of the orbit of a?  Onto an
    orbit of the same length it is then an isomorphism of the two actions, so
    every element fixes both orbits or neither."""
    phi, queue = {a: b}, [a]
    for x in queue:
        for s in images:
            if s[x] not in phi:
                phi[s[x]] = s[phi[x]]
                queue.append(s[x])
            elif phi[s[x]] != s[phi[x]]:
                return False
    return True


def _one_orbit_per_class(gens: list[Gen]) -> list[Gen]:
    """`gens` acting on one orbit of each isomorphism class of their orbits,
    its points renumbered in order.  The action stays faithful: isomorphic
    orbits have one kernel.  Orbits are compared from their least points,
    and one that is isomorphic to a kept orbit only from others stays."""
    images = [s for _, s in gens]
    seen = [False] * (len(images[0]) if images else 0)
    kept: dict[int, list[int]] = {}  # orbit length -> least points of kept orbits
    points: list[int] = []
    for a in range(len(seen)):
        if seen[a]:
            continue
        seen[a] = True
        orbit = [a]
        for x in orbit:
            for s in images:
                if not seen[s[x]]:
                    seen[s[x]] = True
                    orbit.append(s[x])
        like = kept.setdefault(len(orbit), [])
        if not any(_same_action(images, b, a) for b in like):
            like.append(a)
            points += orbit
    if len(points) == len(seen):
        return gens
    renumber = {x: k for k, x in enumerate(sorted(points))}  # in the order of the points
    reduced = [[renumber[s[x]] for x in renumber] for s in images]
    return [(np.array(s, dtype=np.int32), s) for s in reduced]


def _transversal(reps: dict[int, Perm], gens: list[Gen], new: int = 0) -> None:
    """Grow the orbit `reps` under `gens` in place: each orbit point x maps
    to a coset representative, sending the orbit's first point to x.  Known
    points keep theirs and see only gens[new:]."""
    queue = list(reps)
    seen = len(queue)
    for k, x in enumerate(queue):
        for s, images in gens[new if k < seen else 0 :]:
            if images[x] not in reps:
                reps[images[x]] = compose(reps[x], s)
                queue.append(images[x])


def _basic_orbit_lengths(perms: list[Perm]) -> list[int]:
    """Lengths of the basic orbits of a stabilizer chain of <perms>, acting
    on one orbit of each isomorphism class.

    Level i holds a base point, the strong generators that fix the earlier
    base points, and the transversal of its orbit.  Working from the last
    level up, every Schreier generator u_x s u_{x^s}^-1 of a level is sifted
    through the levels below it; a nontrivial residue becomes a strong
    generator of the levels it fixes (a new level if it fixes every base
    point), and the scan resumes at the last level it joined.  When
    every Schreier generator sifts to the identity the chain is complete and
    the group order is the product of the orbit lengths.

    Each pair (x, s) is sifted once; `checked[i][x]` counts the strong
    generators done.  Transversals only grow and keep their representatives,
    so a Schreier generator that sifted to the identity still does later.
    One whose residue joined the levels below lies in <strong[i + 1]>, and
    sifts to the identity once those levels are complete, as they are when
    the scan comes back to level i.
    """
    gens = _one_orbit_per_class([(p, p.tolist()) for p in perms if not _is_identity(p)])
    one = identity(len(gens[0][1]) if gens else 0)
    base: list[int] = []
    strong: list[list[Gen]] = []
    trans: list[dict[int, Perm]] = []
    inverses: dict[tuple[int, int], Perm] = {}  # (level, point) -> u^-1, made once needed
    checked: list[dict[int, int]] = []

    def fixes_base(images: list[int], levels: int) -> bool:
        return all(images[b] == b for b in base[:levels])

    def add_level(images: list[int]) -> None:
        base.append(next(k for k, x in enumerate(images) if k != x))
        strong.append([])
        trans.append({base[-1]: one})
        checked.append({})

    def inverse_rep(level: int, x: int) -> Perm:
        if (level, x) not in inverses:
            inverses[level, x] = inverse(trans[level][x])
        return inverses[level, x]

    def sift(h: Perm, start: int) -> tuple[Perm, int]:
        for level in range(start, len(base)):
            x = int(h[base[level]])
            if x not in trans[level]:
                return h, level
            h = compose(h, inverse_rep(level, x))
        return h, len(base)

    for _, images in gens:
        if fixes_base(images, len(base)):
            add_level(images)
    for level in range(len(base)):
        strong[level] = [s for s in gens if fixes_base(s[1], level)]
        _transversal(trans[level], strong[level])

    i = len(base) - 1
    while i >= 0:
        failure = None
        for x, u in trans[i].items():
            for k in range(checked[i].get(x, 0), len(strong[i])):
                s, images = strong[i][k]
                checked[i][x] = k + 1
                us = compose(u, s)
                if us.tobytes() == trans[i][images[x]].tobytes():
                    continue
                residue, j = sift(compose(us, inverse_rep(i, images[x])), i + 1)
                if j < len(base) or residue.tobytes() != one.tobytes():
                    failure = residue, j
                    break
            if failure:
                break
        if failure is None:
            i -= 1
            continue
        residue, j = failure
        gen = residue, residue.tolist()
        if j == len(base):
            add_level(gen[1])
        for level in range(i + 1, j + 1):
            strong[level].append(gen)
            _transversal(trans[level], strong[level], len(strong[level]) - 1)
        i = j
    return [len(t) for t in trans]


def group_order(g: PermGroup) -> int:
    """Order of `g`, computed once and kept in `g.order`."""
    if g.order is None:
        g.order = prod(_basic_orbit_lengths(g.generators))
    return g.order


# ---------------------------------------------------------------------------
# faithful imprimitive representation of a term
# ---------------------------------------------------------------------------


def rep_degree(t: GroupTerm) -> int:
    """Number of points `perm_rep(t)` acts on, worked out without building it."""
    if isinstance(t, Triv):
        return 1
    if isinstance(t, Prod):
        return sum(rep_degree(f) for f in t.factors)
    if isinstance(t, Wr):
        return t.n * rep_degree(t.base)
    if isinstance(t, Wr2):
        return t.n * t.n * t.m * rep_degree(t.base)
    raise TypeError(f"not a GroupTerm: {t!r}")


def perm_rep(t: GroupTerm) -> PermGroup:
    """Faithful permutation representation of the group denoted by `t`.

    Triv acts on one point; Prod acts on the disjoint union of its factors'
    point sets; Wr / Wr2 act on blocks of copies of the base representation,
    with the cyclic group(s) translating blocks.  Generators come in the
    order the constructions list their symmetries: at every Wr / Wr2 the
    block translations first, then the base generators acting on block 0.
    """
    return PermGroup(rep_degree(t), _gens(t))


def _embed(gen: Perm, offset: int, degree: int) -> Perm:
    """`gen` acting on the points from `offset` on, fixing the rest."""
    p = identity(degree)
    p[offset : offset + len(gen)] = gen + offset
    return p


def _gens(t: GroupTerm) -> list[Perm]:
    degree = rep_degree(t)
    if isinstance(t, Prod):
        out, offset = [], 0
        for f in t.factors:
            out += [_embed(gen, offset, degree) for gen in _gens(f)]
            offset += rep_degree(f)
        return out
    if isinstance(t, (Wr, Wr2)):
        d, k = rep_degree(t.base), identity(degree)
        row = degree if isinstance(t, Wr) else t.m * t.n * d  # points in one row of blocks
        out = [(k + row) % degree] if row < degree else []  # Wr2's (1, 0): the next row
        if row > d:  # (0, 1): the next block within a row
            out.append(k - k % row + (k % row + d) % row)
        return out + [_embed(gen, 0, degree) for gen in _gens(t.base)]
    return []


# ---------------------------------------------------------------------------
# isomorphism of a generator pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pairing:
    """The three orders behind the pairing g_i -> h_i; truthy when it
    extends to an isomorphism.

    The diagonal group <(g_i, h_i)> projects onto both groups.  The pairing
    extends to a homomorphism exactly when the projection onto <g> is
    injective, |diagonal| = |<g>|; that homomorphism is then onto <h>, and
    injective exactly when also |<g>| = |<h>|.
    """

    g: int
    h: int
    diagonal: int

    def __bool__(self) -> bool:
        return self.g == self.h == self.diagonal


def is_isomorphic(g: PermGroup, h: PermGroup) -> Pairing:
    """Does the i-th non-identity generator of `g` -> the i-th of `h` extend
    to an isomorphism?  A shorter list is padded with identities, so a
    missing generator maps to (or from) the identity."""
    gs = [p for p in g.generators if not _is_identity(p)]
    hs = [q for q in h.generators if not _is_identity(q)]
    k = max(len(gs), len(hs))
    gs += [identity(g.degree)] * (k - len(gs))
    hs += [identity(h.degree)] * (k - len(hs))
    diagonal = [np.concatenate([p, q + g.degree]) for p, q in zip(gs, hs)]
    return Pairing(group_order(g), group_order(h), prod(_basic_orbit_lengths(diagonal)))
