"""Exception types shared across the package."""


class MtaError(Exception):
    """Base class for all package errors."""


class InvalidElement(MtaError):
    """A group element or scalar failed validation (bad encoding, wrong
    subgroup, out-of-range value)."""


class EmptyInput(MtaError):
    """An operation that needs at least one item received none."""


class UnsupportedOperation(MtaError):
    """The selected backend does not provide this capability."""


class KeyMismatch(MtaError):
    """A signing key was used with an authority record it was not issued
    under."""


class MalformedEnvelope(MtaError):
    """A serialized object could not be decoded."""


class DuplicateKey(MtaError):
    """A fresh key for the same (identity, authority) pair already exists."""


class KeyNotFound(MtaError):
    """No key store entry with the requested id."""


class KeyAlreadyUsed(MtaError):
    """The one-time key behind this entry has already produced a signature."""


class CorruptJournal(MtaError):
    """The journal cannot be trusted: a bad header, a non-trailing record
    that fails its checksum or breaks the record schema, an unreadable frame
    with a whole record after it, or a stored key that fails to decode on
    first use."""


class StoreLocked(MtaError):
    """Another process holds the write lock on the journal."""


class StoreClosed(MtaError):
    """The key store is closed, by its owner or after a failed append."""


class UnknownCertificate(MtaError):
    """An oracle received a certificate that no prior authority-setup query
    produced."""


class ReductionAbort(MtaError):
    """The challenger aborted the game.

    ``site`` is one of ``"corrupt"``, ``"extract"``, ``"sign"``,
    ``"forgery"``.
    """

    def __init__(self, site: str, detail: str = ""):
        self.site = site
        self.detail = detail
        super().__init__(f"abort at {site}" + (f": {detail}" if detail else ""))


class DegenerateDenominator(MtaError):
    """The extraction denominator vanished mod the group order."""


class GiveUp(MtaError):
    """The scripted forger exhausted its resampling budget."""
