"""Exception types shared across the package, and the JSON form of the
witnesses they carry."""

import dataclasses


class CrcodesError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(CrcodesError):
    """A step would list more words, syndromes or members than the vertex cap."""


class FieldRequiredError(CrcodesError):
    """Operation needs GF(q) arithmetic but the alphabet is only a cyclic group."""


class NotAdditiveError(CrcodesError):
    """Operation needs a code closed under subtraction."""


class UndefinedMinimumDistanceError(CrcodesError):
    """Minimum distance requested for a code with fewer than two words."""


class SpectrumError(CrcodesError):
    """Eigenvalue scan found fewer integer roots than the matrix order requires."""


class DisconnectedGraphError(CrcodesError):
    """Distance-regularity certification needs a connected graph."""


class TheoremViolationError(CrcodesError):
    """An internally certified structure contradicts a property it must satisfy.

    Raising this always indicates an implementation bug (or corrupted input),
    never a mathematical discovery; the attached witness makes it replayable.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DigestMismatchError(CrcodesError):
    """A stored record's digest does not match its reconstructed content."""


class CodeSpecError(CrcodesError):
    """A code-spec JSON document is malformed or inconsistent."""


def jsonable(obj):
    """A JSON-ready copy of a witness or report value: ``to_json()`` where
    the object has one, a dataclass as its public fields, containers element
    by element, and ``repr()`` for anything else."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if not f.name.startswith("_")}
    return repr(obj)
