"""Concrete permutation groups as carriers for abstract group terms.

Permutations are intp arrays p of length `degree` with p[i] = image of
point i, so that they index without a cast.  `compose(p, q)` applies p
first, then q.  Groups are given by generators; their orders come from a
deterministic Schreier-Sims stabilizer chain (Sims 1970; Holt, Eick &
O'Brien 2005, sec. 4.4), which lists no elements, on one orbit of each
isomorphism class of orbits.

Isomorphism is certified for a given pairing of generators: g_i -> h_i
extends to an isomorphism exactly when |<g>| = |<h>| = |<(g_i, h_i)>|, the
last group acting on the disjoint union of the two point sets.  The
diagonal's order comes first and bounds the others: both groups are its
images, and the product of a partial chain's orbit lengths never exceeds
the group's order (Seress 2003), so a chain that reaches the bound stops
there with the exact order.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, NamedTuple, Optional

import numpy as np

from kronrod.terms import GroupTerm, Prod, Triv, Wr, Wr2

Perm = np.ndarray
Gen = tuple[Perm, list[int]]  # a permutation and its images as a list


def identity(degree: int) -> Perm:
    return np.arange(degree, dtype=np.intp)


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return q[p]


def inverse(p: Perm) -> Perm:
    inv = np.empty_like(p)
    inv[p] = identity(len(p))
    return inv


def _is_identity(p: Perm) -> bool:
    return p.tobytes() == identity(len(p)).tobytes()


class PermGroup:
    """Permutation group on {0, ..., degree-1} given by generators, which
    may be passed as any integer sequences and are kept as intp arrays."""

    __slots__ = ("degree", "generators", "order", "walk")

    def __init__(self, degree: int, generators: Iterable):
        self.degree, self.generators, self.order, self.walk = degree, [], None, None
        for g in map(np.asarray, generators):
            if g.dtype.kind in "iu" and g.shape == (degree,):
                g = g.astype(np.intp, copy=False)
                if _hits_each_point(g):
                    self.generators.append(g)
                    continue
            raise ValueError(f"generator {g} is not a permutation of degree {degree}")


def _hits_each_point(g: Perm) -> bool:
    """Is each of the points 0, ..., len(g)-1 an image of `g`, once?  Counts
    the images, with any past the last point counted at len(g)."""
    try:
        hits = np.bincount(np.minimum(g, len(g)), minlength=len(g) + 1)
    except ValueError:  # a negative image
        return False
    return np.count_nonzero(hits[:-1]) == len(g)


# ---------------------------------------------------------------------------
# group orders by Schreier-Sims
# ---------------------------------------------------------------------------


def _orbit_walk(images: list[list[int]], tables: set) -> list[int]:
    """The points, ascending, of one orbit of each isomorphism class of the
    orbits of two or more points of the permutations `images`, but for the
    classes with a table in `tables`, to which the kept orbits' are added.
    An orbit is walked breadth first from its least point, and its table
    lists, for each point in turn and each permutation, the place in the walk
    of the point's image.  Orbits with one table are isomorphic, by the map
    between their walks; one that is isomorphic to a kept orbit only from
    other points stays."""
    place = [-1] * (len(images[0]) if images else 0)  # in the walk of its orbit
    points: list[int] = []
    for a in range(len(place)):
        if place[a] >= 0:
            continue
        place[a], orbit, table = 0, [a], []
        for x in orbit:
            for s in images:
                y = s[x]
                if place[y] < 0:
                    place[y] = len(orbit)
                    orbit.append(y)
                table.append(place[y])
        if len(orbit) > 1 and tuple(table) not in tables:
            tables.add(tuple(table))
            points += orbit
    points.sort()
    return points


def _walk(g: PermGroup) -> tuple[list[Gen], list[int], set]:
    """The non-identity generators of `g` acting on one orbit of each
    isomorphism class of their orbits of two or more points (`_orbit_walk`),
    faithfully (isomorphic orbits have one kernel), the points kept, which
    they number from 0, and the kept orbits' tables; kept in `g.walk`."""
    if g.walk is None:
        gens = [(p, p.tolist()) for p in g.generators if not _is_identity(p)]
        images, tables = [s for _, s in gens], set()
        points = _orbit_walk(images, tables)
        if len(points) < g.degree:
            renumber = {x: k for k, x in enumerate(points)}
            reduced = [[renumber[s[x]] for x in points] for s in images]
            gens = [(np.array(s, dtype=np.intp), s) for s in reduced]
        g.walk = gens, points, tables
    return g.walk


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


def _basic_orbit_lengths(gens: list[Gen], bound: Optional[int] = None) -> list[int]:
    """Lengths of the basic orbits of a stabilizer chain of <gens>, the
    generators that `_walk` reduced.  The scan stops once their
    product reaches `bound`, an upper bound on the order: the chain's
    product never exceeds the order, so it then equals it.

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
    the scan comes back to level i; so does a strong generator that fixes
    the base point, which is its own Schreier generator there, and it is
    not sifted.
    """
    one = identity(len(gens[0][1]) if gens else 0)
    base: list[int] = []
    strong: list[list[Gen]] = []
    trans: list[dict[int, Perm]] = []
    inverses: list[dict[int, Perm]] = []  # u^-1 of each level's points, made once needed
    checked: list[dict[int, int]] = []

    def add_level(images: list[int]) -> None:
        base.append(next(k for k, x in enumerate(images) if k != x))
        strong.append([])
        trans.append({base[-1]: one})
        inverses.append({base[-1]: one})
        checked.append({})

    def inverse_rep(level: int, x: int) -> Perm:
        if x not in inverses[level]:
            inverses[level][x] = inverse(trans[level][x])
        return inverses[level][x]

    def sift(h: Perm, start: int) -> tuple[Perm, int]:
        for level in range(start, len(base)):
            x = h.item(base[level])
            if x not in trans[level]:
                return h, level
            h = compose(h, inverse_rep(level, x))
        return h, len(base)

    for _, images in gens:
        if all(images[b] == b for b in base):
            add_level(images)
    for level in range(len(base)):
        strong[level] = [s for s in gens if all(s[1][c] == c for c in base[:level])]
        _transversal(trans[level], strong[level])

    i = len(base) - 1
    while i >= 0 and prod(map(len, trans)) != bound:
        failure = None
        reps, done, level_gens = trans[i], checked[i], strong[i]
        for x, u in reps.items():
            for k in range(done.get(x, 0), len(level_gens)):
                s, images = level_gens[k]
                done[x] = k + 1
                if images[x] == x == base[i]:  # u = 1: s itself, in <strong[i + 1]>
                    continue
                us, y = compose(u, s), images[x]
                if us.tobytes() == reps[y].tobytes():
                    continue
                residue, j = sift(compose(us, inverse_rep(i, y)), i + 1)
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
        g.order = prod(_basic_orbit_lengths(_walk(g)[0]))
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
    return PermGroup(*_gens(t))


def _embed(gen: Perm, offset: int, degree: int) -> Perm:
    """`gen` acting on the points from `offset` on, fixing the rest."""
    p = identity(degree)
    p[offset : offset + len(gen)] = gen + offset
    return p


def _gens(t: GroupTerm) -> tuple[int, list[Perm]]:
    """`rep_degree(t)` and the generators of `perm_rep(t)`, with each
    subterm's degree worked out once."""
    if isinstance(t, Prod):
        parts = [_gens(f) for f in t.factors]
        degree, out, offset = sum(d for d, _ in parts), [], 0
        for d, gens in parts:
            out += [_embed(gen, offset, degree) for gen in gens]
            offset += d
        return degree, out
    if isinstance(t, (Wr, Wr2)):
        d, gens = _gens(t.base)
        row = t.n * d if isinstance(t, Wr) else t.m * t.n * d  # points in one row of blocks
        degree = row if isinstance(t, Wr) else t.n * row
        k = identity(degree)
        out = [(k + row) % degree] if row < degree else []  # Wr2's (1, 0): the next row
        if row > d:  # (0, 1): the next block within a row
            out.append(k - k % row + (k % row + d) % row)
        return degree, out + [_embed(gen, 0, degree) for gen in gens]
    if isinstance(t, Triv):
        return 1, []
    raise TypeError(f"not a GroupTerm: {t!r}")


# ---------------------------------------------------------------------------
# isomorphism of a generator pairing
# ---------------------------------------------------------------------------


class Pairing(NamedTuple):
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
    missing generator maps to (or from) the identity.

    The diagonal's generators are reduced once, and the diagonal acts
    faithfully on the points the reduction keeps.  On g's points these are
    the points of the walk `group_order(g)` kept, so only h's are walked.
    When none of them is kept, an element that fixes g's points is the
    identity, so the projection onto <g> is injective and |diagonal| =
    |<g>|: `group_order(g)`, which `generated_group` has already computed in
    a verify, is taken and no diagonal chain runs.  Otherwise the chain runs
    on the reduced generators.  The chain of a side whose order is still
    unknown stops at the diagonal's order, and the order is kept."""
    g_gens, g_points, tables = _walk(g)
    hs = [q.tolist() for q in h.generators if not _is_identity(q)]
    k = max(len(g_gens), len(hs))
    g_images = [s for _, s in g_gens] + [list(range(len(g_points)))] * (k - len(g_gens))
    hs += [list(range(h.degree))] * (k - len(hs))
    if k > len(g_gens):  # padded identities add entries: g's kept orbits are walked again
        _orbit_walk(g_images, tables := set())
    kept = _orbit_walk(hs, set(tables))
    if not kept:
        diagonal = group_order(g)
    else:
        renumber = {x: len(g_points) + i for i, x in enumerate(kept)}
        pairs = [a + [renumber[q[x]] for x in kept] for a, q in zip(g_images, hs)]
        diagonal = prod(_basic_orbit_lengths([(np.array(s, dtype=np.intp), s) for s in pairs]))
    for side in (g, h):
        if side.order is None:
            side.order = prod(_basic_orbit_lengths(_walk(side)[0], diagonal))
    return Pairing(g.order, h.order, diagonal)
