"""Exception types shared across the package."""


class JoltError(Exception):
    """Base class for all domain errors."""


class SqlSyntaxError(JoltError):
    """SQL that does not compile as one read-only SELECT, with SQLite's message."""


class UnknownTable(JoltError):
    pass


class UnknownColumn(JoltError):
    pass


class AmbiguousColumn(JoltError):
    pass


class SpanMisaligned(JoltError):
    """A character span boundary falls inside a token."""


class InvalidSpans(JoltError):
    """A spans file entry lacks a key of a table's layout, or has an unknown one."""


class InvalidSchema(JoltError):
    """A schema file entry lacks a required key or is not an object."""


class InvalidJson(JoltError):
    """An input file is not valid JSON."""


class MalformedInput(JoltError):
    """A vocab or corpus file is JSON of the wrong shape, a checkpoint is
    not an intact archive, or a text input's bytes do not decode as text."""


class InvalidSegmentation(JoltError):
    """Segment cut points are out of order, or a marker lies outside the schema."""


class ShapeMismatch(JoltError):
    pass


class GraphConsumed(JoltError):
    """Backward reached a node whose graph an earlier backward consumed."""


class EmptyRow(JoltError):
    """An attention mask row has no visible entries."""


class NoMarkers(JoltError):
    pass


class EmptyQuery(JoltError):
    pass


class MissingCacheEntry(JoltError):
    pass


class DegenerateExample(JoltError):
    """Gold SQL references no schema columns; unusable for linking supervision."""


class DegenerateLabels(JoltError):
    """Metric undefined for single-class label vectors."""


class LengthMismatch(JoltError):
    pass


class EmptyPrediction(JoltError):
    """Schema linking predicted no columns at the given threshold."""


class NonFiniteLoss(JoltError):
    pass


class DbError(JoltError):
    pass


class DbUnavailable(JoltError):
    pass


class ConfigError(JoltError):
    pass
