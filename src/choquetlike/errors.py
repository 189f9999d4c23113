"""Exception types shared across the package, and the checks that turn
JSON text, a wrongly typed JSON number, an unknown name or an unknown
JSON object key into one of them."""

import json
import sys


class ChoquetlikeError(Exception):
    """Base class for all library errors."""


class KindMismatch(ChoquetlikeError):
    """Operands belong to different carriers or dimensions."""


class ScaleOutOfRange(ChoquetlikeError):
    """Scaling coefficient outside [0, 1]."""


class NotMonotone(ChoquetlikeError):
    """Capacity table violates monotonicity; carries the witness pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BadBoundary(ChoquetlikeError):
    """Capacity boundary values differ from 0 at the empty set or 1 at the full set."""


class MissingSubset(ChoquetlikeError):
    """Capacity table does not assign every subset."""


class BadParameter(ChoquetlikeError):
    """Constructor argument outside its admissible range."""


class NotAdmissiblePermutation(ChoquetlikeError):
    """Permutation does not sort the inputs into a non-decreasing chain."""


class TooManyTies(ChoquetlikeError):
    """A row that must walk a tie group of more than ``MAX_TIE_GROUP``
    inputs, too many to decide consistency over; a certified row is not
    walked."""


class UnknownKernel(ChoquetlikeError):
    """Kernel specification names no catalog family, or is neither a family
    name nor an object."""


class KernelRangeError(ChoquetlikeError):
    """Kernel produced a value outside the bounded carrier set."""


class AlphaOutOfRange(ChoquetlikeError):
    """Width normalization requires alpha strictly inside (0, 1)."""


class ReconstructionOutOfK(ChoquetlikeError):
    """Reconstructed interval leaves [0, 1] beyond numeric noise."""


class HypothesisViolated(ChoquetlikeError):
    """A premise of the requested check failed its grid pre-check, so the
    characterization does not apply and the check refuses to run."""


class OracleDisagreement(ChoquetlikeError):
    """Condition-level verdict and brute-force verdict disagree; indicates a bug."""


class DatasetFormatError(ChoquetlikeError):
    """Dataset file failed to parse or validate."""


def load_json(text: str):
    """``json.loads``, refusing nesting past the recursion limit as ``JSONDecodeError``."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise json.JSONDecodeError(f"nested too deeply ({exc})", text, 0) from exc


def json_number(obj: dict, key: str, default=None, integral: bool = False):
    """``obj[key]``, or ``default`` when absent, as an int if ``integral``
    and as a float otherwise. Any other JSON value, and a number beyond
    the float range, raises ``BadParameter``."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            integral and isinstance(value, float) and not value.is_integer()):
        raise BadParameter(f"{key!r} must be {'an integer' if integral else 'a number'}, "
                           f"got {value!r}")
    if abs(value) > sys.float_info.max:
        raise BadParameter(f"{key!r} lies beyond the float range")
    return int(value) if integral else float(value)


def spec_numbers(what: str, spec: str, fields: list[str], cast) -> list:
    """``fields`` of the ``what`` spec ``spec``, each read by ``cast``; a
    field that ``cast`` refuses refuses the spec with ``BadParameter``."""
    try:
        return [cast(f) for f in fields]
    except ValueError:
        raise BadParameter(f"bad {what} spec: {spec!r}") from None


def lookup(table: dict, spec, what: str):
    """``table[spec]`` for a string key of ``table``. Any other spec raises
    ``BadParameter`` naming ``what``."""
    if isinstance(spec, str) and spec in table:
        return table[spec]
    raise BadParameter(f"unknown {what}: {spec!r}")


def refuse_unknown_keys(obj: dict, known: tuple, what: str, error=BadParameter) -> None:
    """Raise ``error`` if ``obj`` has a key outside ``known``. Nothing reads
    such a key, so a misspelt one would otherwise leave its default in place."""
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise error(f"unknown {what} key(s) {unknown}; known: {list(known)}")
