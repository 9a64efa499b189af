"""Exception types shared across the package."""


class KronrodError(Exception):
    """Base class for all package errors."""


class ParseError(KronrodError):
    """Malformed group-term text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FieldError(KronrodError):
    """Invalid scalar field."""


class InvalidField(FieldError):
    """Field violates a structural invariant (shape, frame, neighbor ties)."""


class DegenerateVertex(FieldError):
    """Vertex with six or more link sign changes; the field is not PL-Morse."""

    def __init__(self, x: int, y: int):
        super().__init__(f"degenerate vertex at ({x}, {y})")
        self.vertex = (x, y)


class ReebError(KronrodError):
    """Reeb graph construction or query failure."""


class NotATree(ReebError):
    pass


class ShapeViolation(ReebError):
    """Torus Reeb graph with first Betti number above one."""


class NotAnAutomorphism(KronrodError):
    """A pushed symmetry fails graph-automorphism validation."""


class AutOverflow(KronrodError):
    """Full automorphism group larger than the requested cap."""

    def __init__(self, cap: int):
        super().__init__(f"group size exceeds cap {cap}")
        self.cap = cap


class NotRealizable(KronrodError):
    """Requested term is outside the class the construction supports."""


class ConstructionError(KronrodError):
    """A construction cannot lay out its band profile, or its field fails a graph-free check."""


class IncompleteRecord(KronrodError):
    """Construction record is missing data needed for the group recursion."""


class GridCapExceeded(KronrodError):
    """Construction would need a grid larger than the configured cap."""
