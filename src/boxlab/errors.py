"""Exception hierarchy shared across the toolkit.

Two broad families matter to callers (and to the CLI exit codes):
``ValidationError`` for structurally readable but invalid inputs, and
``ParseError`` for inputs that could not be read at all.
"""

__all__ = [
    "BoxlabError",
    "ValidationError",
    "ParseError",
    "InvalidBoxError",
    "UndefinedOverlapError",
    "DegenerateAspectError",
    "DanglingIdError",
    "DuplicateIdError",
    "EmptyEvaluationError",
    "UnknownBaselineError",
]


class BoxlabError(Exception):
    """Base class for all boxlab errors."""


class ValidationError(BoxlabError, ValueError):
    """Input parsed fine but violates a documented contract (CLI exit 1)."""


class ParseError(BoxlabError, ValueError):
    """Input file is missing, malformed, or has bad field types (CLI exit 2)."""


class InvalidBoxError(ValidationError):
    """A box has negative extents, non-finite coordinates, or is out of bounds."""


class UndefinedOverlapError(ValidationError):
    """IoU or an IoU-family loss requested for a pair of boxes whose union has zero area,
    or, in a loss, one of whose squared denominators underflows to 0."""


class DegenerateAspectError(ValidationError):
    """Aspect-ratio term requested for a box with zero width or height."""


class DanglingIdError(ValidationError):
    """An annotation or prediction references an unknown image/category id."""


class DuplicateIdError(ValidationError):
    """An input lists the same key twice: a manifest image or category id, a report model name."""


class EmptyEvaluationError(ValidationError):
    """Aggregation requested but no class produced an evaluable result."""


class UnknownBaselineError(ValidationError):
    """Report comparison requested against a model name that is not present."""


def reject_duplicates(prefix: str, label: str, sections: dict[str, list]) -> None:
    """Raise ``DuplicateIdError`` naming every repeated key of every section and its first index."""
    messages = []
    for section, keys in sections.items():
        if len(set(keys)) == len(keys):
            continue
        first_at: dict = {}
        messages += [
            f"{section}[{i}]: duplicate {label} {key!r} (first at {section}[{first}])"
            for i, key in enumerate(keys)
            if (first := first_at.setdefault(key, i)) != i
        ]
    if messages:
        raise DuplicateIdError(prefix + "; ".join(messages))
