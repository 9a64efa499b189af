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

import math
import re
from typing import Any, Iterator, NamedTuple

from kronrod.errors import ParseError


class GroupTerm:
    """Base class; concrete terms are Triv, Prod, Wr, Wr2.  A term is
    immutable, and equals a term of its own type with equal fields only."""

    __slots__ = ()

    def _set(self, *values: Any) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class Triv(GroupTerm):
    __slots__ = ()


class Prod(GroupTerm):
    __slots__ = ("factors",)

    def __init__(self, *factors: GroupTerm):
        if not factors:
            raise ValueError("Prod needs at least one factor")
        for f in factors:
            if not isinstance(f, GroupTerm):
                raise TypeError(f"Prod factor {f!r} is not a GroupTerm")
        self._set(factors)

    def __repr__(self) -> str:
        return f"Prod({', '.join(map(repr, self.factors))})"


class Wr(GroupTerm):
    __slots__ = ("base", "n")

    def __init__(self, base: GroupTerm, n: int):
        if not isinstance(base, GroupTerm):
            raise TypeError("Wr base must be a GroupTerm")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"Wr index must be a positive integer, got {n}")
        self._set(base, n)


class Wr2(GroupTerm):
    __slots__ = ("base", "n", "m")

    def __init__(self, base: GroupTerm, n: int, m: int):
        if not isinstance(base, GroupTerm):
            raise TypeError("Wr2 base must be a GroupTerm")
        for name, v in (("n", n), ("m", m)):
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"Wr2 index {name} must be a positive integer, got {v}")
        self._set(base, n, m)


class ClassFlags(NamedTuple):
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


def order_bits(t: GroupTerm) -> float:
    """log2 of the group order of a term, read off its structure without the
    order itself: inf where that passes the float range."""
    if isinstance(t, Triv):
        return 0.0
    if isinstance(t, Prod):
        return sum(map(order_bits, t.factors))
    if isinstance(t, (Wr, Wr2)):
        blocks = t.n if isinstance(t, Wr) else t.n * (t.m * t.n)
        base = order_bits(t.base)
        if base and blocks > 2**1000:  # past the float range
            return math.inf
        return blocks * base + math.log2(blocks)
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


# argument kinds of each constructor ("t" a term, "n" an integer >= 1), whether
# more terms may follow them, and the term it builds
_CONSTRUCTORS = {
    "cyc": ("n", False, lambda n: Wr(Triv(), n)),
    "wr": ("tn", False, Wr),
    "wr2": ("tnn", False, Wr2),
    "prod": ("tt", True, Prod),
}


def parse_term(text: str) -> GroupTerm:
    """Parse a term from text.  Returns the raw parse tree (not normalized)."""
    tokens = _tokenize(text)[::-1]  # the next token is last

    def take(what: str = "") -> tuple[str, int]:
        tok, pos = tokens.pop() if tokens else ("", len(text))
        if what and tok != what:
            raise ParseError(f"expected {what!r}, found {tok!r}", pos)
        return tok, pos

    def index() -> int:
        tok, pos = take()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, found {tok!r}", pos)
        try:
            value = int(tok)
        except ValueError:  # past the interpreter's limit on integer digits
            raise ParseError(f"integer of {len(tok)} digits is too long", pos) from None
        if value < 1:
            raise ParseError(f"integer must be >= 1, got {value}", pos)
        return value

    def term() -> GroupTerm:
        tok, pos = take()
        if tok == "1":
            return Triv()
        if tok not in _CONSTRUCTORS:
            raise ParseError(f"expected a term, found {tok!r}", pos)
        kinds, more, make = _CONSTRUCTORS[tok]
        sep = take("(")[0]
        args: list = []
        while sep != ")":
            args.append(term() if kinds[min(len(args), len(kinds) - 1)] == "t" else index())
            wanted = ",)" if more else "," if len(args) < len(kinds) else ")"
            sep, spos = take()
            if not sep or sep not in wanted:
                raise ParseError(f"expected {' or '.join(map(repr, wanted))}, found {sep!r}", spos)
        if len(args) < len(kinds):
            raise ParseError(f"{tok} needs at least two factors", pos)
        return make(*args)

    try:
        t = term()
    except RecursionError:
        raise ParseError("term nested too deeply", take()[1]) from None
    tok, pos = take()
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
