"""Concrete permutation groups as carriers for abstract group terms.

Permutations are tuples p of length `degree` with p[i] = image of point i.
`compose(p, q)` applies p first, then q.  Groups are given by generators;
their orders come from a deterministic Schreier-Sims stabilizer chain
(Sims 1970; Holt, Eick & O'Brien 2005, sec. 4.4), which lists no elements.

Isomorphism is certified for a given pairing of generators: g_i -> h_i
extends to an isomorphism exactly when |<g>| = |<h>| = |<(g_i, h_i)>|, the
last group acting on the disjoint union of the two point sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

from kronrod.errors import DegreeCapExceeded
from kronrod.terms import GroupTerm, Prod, Triv, Wr, Wr2

DEGREE_CAP = 1 << 14

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple([q[i] for i in p])


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _is_identity(p: Perm) -> bool:
    return all(i == j for i, j in enumerate(p))


@dataclass
class PermGroup:
    """Permutation group on {0, ..., degree-1} given by generators."""

    degree: int
    generators: list[Perm]
    order: Optional[int] = None

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.degree or sorted(g) != list(range(self.degree)):
                raise ValueError(f"generator {g} is not a permutation of degree {self.degree}")


# ---------------------------------------------------------------------------
# group orders by Schreier-Sims
# ---------------------------------------------------------------------------


def _transversal(reps: dict[int, tuple[Perm, Perm]], gens: list[Perm], new: int = 0) -> None:
    """Grow the orbit `reps` under <gens> in place: each orbit point x maps
    to a coset representative u, sending the orbit's first point to x, and its
    inverse.  Known points keep theirs and see only gens[new:]."""
    queue = list(reps)
    seen = len(queue)
    for k, x in enumerate(queue):
        u = reps[x][0]
        for s in gens[new if k < seen else 0 :]:
            y = s[x]
            if y not in reps:
                v = compose(u, s)
                reps[y] = (v, inverse(v))
                queue.append(y)


def _basic_orbit_lengths(gens: list[Perm]) -> list[int]:
    """Lengths of the basic orbits of a stabilizer chain of <gens>.

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
    gens = [p for p in gens if not _is_identity(p)]
    base: list[int] = []
    strong: list[list[Perm]] = []
    trans: list[dict[int, tuple[Perm, Perm]]] = []
    checked: list[dict[int, int]] = []

    def fixes_base(p: Perm, levels: int) -> bool:
        return all(p[b] == b for b in base[:levels])

    def add_level(p: Perm) -> None:
        base.append(next(k for k, x in enumerate(p) if k != x))
        strong.append([])
        trans.append({base[-1]: (identity(len(p)),) * 2})
        checked.append({})

    def sift(h: Perm, start: int) -> tuple[Perm, int]:
        for level in range(start, len(base)):
            rep = trans[level].get(h[base[level]])
            if rep is None:
                return h, level
            h = compose(h, rep[1])
        return h, len(base)

    for p in gens:
        if fixes_base(p, len(base)):
            add_level(p)
    for level in range(len(base)):
        strong[level] = [p for p in gens if fixes_base(p, level)]
        _transversal(trans[level], strong[level])

    i = len(base) - 1
    while i >= 0:
        failure = None
        for x, (u, _) in trans[i].items():
            for k in range(checked[i].get(x, 0), len(strong[i])):
                s = strong[i][k]
                checked[i][x] = k + 1
                us = compose(u, s)
                target, target_inv = trans[i][s[x]]
                if us == target:
                    continue
                residue, j = sift(compose(us, target_inv), i + 1)
                if j < len(base) or not _is_identity(residue):
                    failure = residue, j
                    break
            if failure:
                break
        if failure is None:
            i -= 1
            continue
        residue, j = failure
        if j == len(base):
            add_level(residue)
        for level in range(i + 1, j + 1):
            strong[level].append(residue)
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


def perm_rep(t: GroupTerm) -> PermGroup:
    """Faithful permutation representation of the group denoted by `t`.

    Triv acts on one point; Prod acts on the disjoint union of its factors'
    point sets; Wr / Wr2 act on blocks of copies of the base representation,
    with the cyclic group(s) translating blocks.  Generators come in the
    order the constructions list their symmetries: at every Wr / Wr2 the
    block translations first, then the base generators acting on block 0.
    DegreeCapExceeded beyond DEGREE_CAP points.
    """
    degree, gens = _rep(t)
    return PermGroup(degree=degree, generators=gens)


def _embed(gen: Perm, offset: int, degree: int) -> Perm:
    """`gen` acting on the points from `offset` on, fixing the rest."""
    p = list(range(degree))
    for i, j in enumerate(gen):
        p[offset + i] = offset + j
    return tuple(p)


def _check_degree(degree: int) -> None:
    if degree > DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {degree} exceeds cap {DEGREE_CAP}")


def _rep(t: GroupTerm) -> tuple[int, list[Perm]]:
    if isinstance(t, Triv):
        return 1, []
    if isinstance(t, Prod):
        degree = 0
        parts = []
        for f in t.factors:
            d, gens = _rep(f)
            parts.append((degree, gens))
            degree += d
            _check_degree(degree)
        return degree, [_embed(gen, offset, degree) for offset, gens in parts for gen in gens]
    if isinstance(t, Wr):
        d, gens = _rep(t.base)
        degree = t.n * d
        _check_degree(degree)
        out = []
        if t.n > 1:  # cyclic shift of blocks
            out.append(tuple((k + d) % degree for k in range(degree)))
        return degree, out + [_embed(gen, 0, degree) for gen in gens]
    if isinstance(t, Wr2):
        d, gens = _rep(t.base)
        rows, cols = t.n, t.m * t.n
        degree = rows * cols * d
        _check_degree(degree)
        row = cols * d  # points in one row of blocks
        out = []
        if rows > 1:  # (1, 0): the next row of blocks
            out.append(tuple((k + row) % degree for k in range(degree)))
        if cols > 1:  # (0, 1): the next block within a row
            out.append(tuple(k - k % row + (k % row + d) % row for k in range(degree)))
        return degree, out + [_embed(gen, 0, degree) for gen in gens]
    raise TypeError(f"not a GroupTerm: {t!r}")


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
    diagonal = [p + tuple([g.degree + j for j in q]) for p, q in zip(gs, hs)]
    return Pairing(group_order(g), group_order(h), prod(_basic_orbit_lengths(diagonal)))
