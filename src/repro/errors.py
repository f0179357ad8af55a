"""Exception hierarchy for the KadoP reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Subsystem-specific errors are
grouped under intermediate classes mirroring the package layout.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XmlError(ReproError):
    """Base class for XML parsing and data-model errors."""


class XmlParseError(XmlError):
    """Raised when an XML document is malformed.

    Carries the byte ``offset`` at which the problem was detected when it is
    known, so callers can report a precise location.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (at offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class EntityResolutionError(XmlError):
    """Raised when an external entity (include) cannot be resolved."""


class QueryError(ReproError):
    """Base class for query parsing and evaluation errors."""


class QueryParseError(QueryError):
    """Raised when a tree-pattern (XPath subset) query is malformed."""


class UnindexableQueryError(QueryError):
    """Raised when no node of a query carries an index term (only
    wildcards and stop words), so the index cannot evaluate it."""


class DhtError(ReproError):
    """Base class for DHT-level errors."""


class NoSuchPeerError(DhtError):
    """Raised when a message is routed to a peer that left the network."""


class StorageError(ReproError):
    """Base class for local index-store errors."""


class KeyNotFoundError(StorageError):
    """Raised when a store lookup misses and the caller required a hit."""


class IndexError_(ReproError):
    """Base class for distributed-index (DPP, Fundex) errors.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ConfigError(ReproError):
    """Raised for inconsistent :class:`repro.kadop.config.KadopConfig` values."""
