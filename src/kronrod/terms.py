"""Term algebra for groups built from the trivial group by direct products
and wreath products with cyclic groups.

A term denotes a finite group:

* ``Triv``            -- the trivial group,
* ``Prod(f1,...,fk)`` -- a direct product,
* ``Wr(A, n)``        -- ``A^n`` extended by a cyclic shift of the n copies,
* ``Wr2(A, n, m)``    -- ``A^(n*mn)`` extended by the two translations of an
  n-by-mn block grid (the second cyclic factor has order ``m*n``).

Class membership flags are named by what the realization side of the
package can do with the term: ``disk_realizable`` terms are produced by
the recursive disk construction, ``tree_realizable`` / ``circuit_realizable``
/ ``simple_realizable`` terms by the corresponding torus constructions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterator

from kronrod.errors import ParseError


class GroupTerm:
    """Base class; concrete terms are Triv, Prod, Wr, Wr2."""

    __slots__ = ()


@dataclass(frozen=True)
class Triv(GroupTerm):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Triv()"


@dataclass(frozen=True)
class Prod(GroupTerm):
    factors: tuple[GroupTerm, ...]

    def __init__(self, *factors: GroupTerm):
        if len(factors) == 1 and isinstance(factors[0], (tuple, list)):
            factors = tuple(factors[0])
        if not factors:
            raise ValueError("Prod needs at least one factor")
        for f in factors:
            if not isinstance(f, GroupTerm):
                raise TypeError(f"Prod factor {f!r} is not a GroupTerm")
        object.__setattr__(self, "factors", tuple(factors))

    def __repr__(self) -> str:
        return f"Prod({', '.join(map(repr, self.factors))})"


@dataclass(frozen=True)
class Wr(GroupTerm):
    base: GroupTerm
    n: int

    def __post_init__(self):
        if not isinstance(self.base, GroupTerm):
            raise TypeError("Wr base must be a GroupTerm")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"Wr index must be a positive integer, got {self.n}")


@dataclass(frozen=True)
class Wr2(GroupTerm):
    base: GroupTerm
    n: int
    m: int

    def __post_init__(self):
        if not isinstance(self.base, GroupTerm):
            raise TypeError("Wr2 base must be a GroupTerm")
        for name in ("n", "m"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"Wr2 index {name} must be a positive integer, got {v}")


@dataclass(frozen=True)
class ClassFlags:
    """Membership of a normalized term in the realizable classes."""

    disk_realizable: bool  # products and cyclic wreaths only
    disk_realizable_simple: bool  # same, with every wreath index in {1, 2}
    tree_realizable: bool  # top constructor Wr2 over a disk-realizable base
    circuit_realizable: bool  # Wr over a disk-realizable base (n=1 wrapping allowed)
    simple_realizable: bool  # Wr over a simple disk-realizable base


def order(t: GroupTerm) -> int:
    """Group order of a term."""
    if isinstance(t, Triv):
        return 1
    if isinstance(t, Prod):
        n = 1
        for f in t.factors:
            n *= order(f)
        return n
    if isinstance(t, Wr):
        return order(t.base) ** t.n * t.n
    if isinstance(t, Wr2):
        blocks = t.n * (t.m * t.n)
        return order(t.base) ** blocks * blocks
    raise TypeError(f"not a GroupTerm: {t!r}")


def _sort_key(t: GroupTerm) -> tuple:
    """Total order on terms: constructor rank, order, children, indices."""
    if isinstance(t, Triv):
        return (0, 1)
    if isinstance(t, Wr):
        return (1, order(t), _sort_key(t.base), t.n)
    if isinstance(t, Wr2):
        return (2, order(t), _sort_key(t.base), t.n, t.m)
    if isinstance(t, Prod):
        return (3, order(t), tuple(_sort_key(f) for f in t.factors))
    raise TypeError(f"not a GroupTerm: {t!r}")


def normalize(t: GroupTerm) -> GroupTerm:
    """Canonical form: no Wr(_, 1), no nested or trivial Prod factors,
    Prod factors sorted.  Preserves the group order and is idempotent."""
    if isinstance(t, Triv):
        return t
    if isinstance(t, Wr):
        base = normalize(t.base)
        if t.n == 1:
            return base
        return Wr(base, t.n)
    if isinstance(t, Wr2):
        return Wr2(normalize(t.base), t.n, t.m)
    if isinstance(t, Prod):
        flat: list[GroupTerm] = []
        for f in t.factors:
            nf = normalize(f)
            if isinstance(nf, Prod):
                flat.extend(nf.factors)
            elif isinstance(nf, Triv):
                continue
            else:
                flat.append(nf)
        if not flat:
            return Triv()
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=_sort_key)
        return Prod(*flat)
    raise TypeError(f"not a GroupTerm: {t!r}")


def class_of(t: GroupTerm) -> ClassFlags:
    """Syntactic class membership.  Expects a normalized term."""
    disk = _no_wr2(t)
    disk_simple = disk and _wreath_indices_at_most_two(t)
    # Any disk-realizable term is circuit-realizable via a trivial 1-wreath.
    circuit = disk or (isinstance(t, Wr) and _no_wr2(t.base))
    tree = isinstance(t, Wr2) and _no_wr2(t.base)
    simple = disk_simple or (
        isinstance(t, Wr) and _no_wr2(t.base) and _wreath_indices_at_most_two(t.base)
    )
    return ClassFlags(
        disk_realizable=disk,
        disk_realizable_simple=disk_simple,
        tree_realizable=tree,
        circuit_realizable=circuit,
        simple_realizable=simple,
    )


def _no_wr2(t: GroupTerm) -> bool:
    return all(not isinstance(s, Wr2) for s in subterms(t))


def _wreath_indices_at_most_two(t: GroupTerm) -> bool:
    return all(s.n <= 2 for s in subterms(t) if isinstance(s, Wr))


def subterms(t: GroupTerm) -> Iterator[GroupTerm]:
    """Depth-first traversal including the term itself."""
    yield t
    if isinstance(t, Prod):
        for f in t.factors:
            yield from subterms(f)
    elif isinstance(t, (Wr, Wr2)):
        yield from subterms(t.base)


# ---------------------------------------------------------------------------
# text grammar
#
#   term := "1" | "cyc(" INT ")" | "prod(" term ("," term)+ ")"
#         | "wr(" term "," INT ")" | "wr2(" term "," INT "," INT ")"
#
# cyc(n) is sugar for wr(1, n); whitespace is insignificant.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[a-z]\w*|[(),])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, int]:
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("", len(self.text))

    def next(self) -> tuple[str, int]:
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, what: str) -> None:
        tok, pos = self.next()
        if tok != what:
            raise ParseError(f"expected {what!r}, found {tok!r}", pos)

    def parse_int(self) -> int:
        tok, pos = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, found {tok!r}", pos)
        value = int(tok)
        if value < 1:
            raise ParseError(f"integer must be >= 1, got {value}", pos)
        return value

    def parse_term(self) -> GroupTerm:
        tok, pos = self.next()
        if tok == "1":
            return Triv()
        if tok == "cyc":
            self.expect("(")
            n = self.parse_int()
            self.expect(")")
            return Wr(Triv(), n)
        if tok == "wr":
            self.expect("(")
            base = self.parse_term()
            self.expect(",")
            n = self.parse_int()
            self.expect(")")
            return Wr(base, n)
        if tok == "wr2":
            self.expect("(")
            base = self.parse_term()
            self.expect(",")
            n = self.parse_int()
            self.expect(",")
            m = self.parse_int()
            self.expect(")")
            return Wr2(base, n, m)
        if tok == "prod":
            self.expect("(")
            factors = [self.parse_term()]
            while True:
                sep, spos = self.next()
                if sep == ",":
                    factors.append(self.parse_term())
                elif sep == ")":
                    break
                else:
                    raise ParseError(f"expected ',' or ')', found {sep!r}", spos)
            if len(factors) < 2:
                raise ParseError("prod needs at least two factors", pos)
            return Prod(*factors)
        raise ParseError(f"expected a term, found {tok!r}", pos)


def parse_term(text: str) -> GroupTerm:
    """Parse a term from text.  Returns the raw parse tree (not normalized)."""
    p = _Parser(text)
    try:
        t = p.parse_term()
    except RecursionError:
        raise ParseError("term nested too deeply", p.peek()[1]) from None
    tok, pos = p.peek()
    if tok:
        raise ParseError(f"trailing input {tok!r}", pos)
    return t


def format_term(t: GroupTerm) -> str:
    """Canonical text form; round-trips through parse_term."""
    if isinstance(t, Triv):
        return "1"
    if isinstance(t, Prod):
        return f"prod({','.join(format_term(f) for f in t.factors)})"
    if isinstance(t, Wr):
        return f"wr({format_term(t.base)},{t.n})"
    if isinstance(t, Wr2):
        return f"wr2({format_term(t.base)},{t.n},{t.m})"
    raise TypeError(f"not a GroupTerm: {t!r}")


# JSON form mirrors the constructor tree.


def term_to_json(t: GroupTerm) -> dict[str, Any]:
    if isinstance(t, Triv):
        return {"k": "triv"}
    if isinstance(t, Prod):
        return {"k": "prod", "f": [term_to_json(f) for f in t.factors]}
    if isinstance(t, Wr):
        return {"k": "wr", "b": term_to_json(t.base), "n": t.n}
    if isinstance(t, Wr2):
        return {"k": "wr2", "b": term_to_json(t.base), "n": t.n, "m": t.m}
    raise TypeError(f"not a GroupTerm: {t!r}")


def json_int(value: Any) -> int:
    """A JSON integer as read; ValueError for any other value, a float, a
    numeric string or a boolean included."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def term_from_json(obj: dict[str, Any]) -> GroupTerm:
    try:
        kind = obj.get("k")
        if kind == "triv":
            return Triv()
        if kind == "prod":
            return Prod(*[term_from_json(f) for f in obj["f"]])
        if kind == "wr":
            return Wr(term_from_json(obj["b"]), json_int(obj["n"]))
        if kind == "wr2":
            return Wr2(term_from_json(obj["b"]), json_int(obj["n"]), json_int(obj["m"]))
    except RecursionError:
        raise ValueError("term nested too deeply") from None
    raise ValueError(f"unknown term kind {kind!r}")
