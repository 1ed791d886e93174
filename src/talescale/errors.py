"""Exception hierarchy shared by all talescale modules, and the rules that read
every JSON input: config, inventories, catalogs, tale metadata, archives and sessions."""

import math


class TalescaleError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TalescaleError):
    """Input violates a documented invariant or precondition."""


class ChecksumMismatchError(TalescaleError):
    def __init__(self, entry: str, expected: str, actual: str):
        super().__init__(f"checksum mismatch for {entry!r}: expected {expected}, got {actual}")
        self.entry = entry
        self.expected = expected
        self.actual = actual


class FormatVersionError(TalescaleError):
    """Archive declares a format version this code does not understand."""


class MissingFileError(TalescaleError):
    """A manifest entry points at a file that is not in the workspace."""


class UnknownResourceError(TalescaleError):
    pass


class UnknownCredentialError(TalescaleError):
    pass


class UnknownDialectError(TalescaleError):
    pass


class UnknownJobError(TalescaleError):
    pass


class DuplicateError(TalescaleError):
    """An id, path, uri or name is already taken."""


class SessionError(TalescaleError):
    """Session handshake failed or the pair is in backoff."""


class TransportError(TalescaleError):
    """A transport call failed; the operation may be retried later."""


class CapacityError(TalescaleError):
    """Cache cannot admit an entry even after evicting every candidate."""


class RouteNotFoundError(TalescaleError):
    pass


class ProxyPolicyError(TalescaleError):
    """Target resource forbids proxied access (no_proxy policy)."""


class InfeasiblePlanError(TalescaleError):
    def __init__(self, reasons):
        super().__init__("no feasible execution model: " + "; ".join(reasons))
        self.reasons = list(reasons)


class ConfigError(ValidationError):
    """An input failed one of the rules below, or its cross-references do not resolve."""


def check_keys(section: str, raw, allowed, required=(), strings=()) -> dict:
    """The key rule: ``raw`` is a JSON object, its keys are in ``allowed`` and
    include ``required``, and its ``strings`` keys hold a string or null."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be an object, got {raw!r:.200}")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{section} has unknown keys {sorted(raw.keys() - allowed)}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{section} is missing {sorted(k for k in required if k not in raw)}")
    for key in strings:
        if not isinstance(raw.get(key), (str, type(None))):
            raise ConfigError(f"{section} {key} must be a string, got {raw[key]!r:.200}")
    return raw


def check_number(section: str, key: str, value, low=0, *, above=False, integer=False, infinite=False):
    """The number rule: ``value`` is an int, or a float unless ``integer``, and
    never a bool; it is finite unless ``infinite``, and at least ``low``, or
    greater than it when ``above``. Returns ``value`` unchanged."""
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not (value > low if above else value >= low)  # NaN fails both
            or value == math.inf and not infinite):
        bound = f"{'greater than' if above else 'at least'} {low}, got {value!r:.200}"
        if integer:
            raise ConfigError(f"{section} needs an integer {key} {bound}")
        raise ConfigError(f"{section} {key} must be a {'' if infinite else 'finite '}number {bound}")
    return value


def check_bool(section: str, key: str, value) -> bool:
    """The bool rule: ``value`` is true or false, never a string, number or null."""
    if not isinstance(value, bool):
        raise ConfigError(f"{section} {key} must be true or false, got {value!r:.200}")
    return value


def check_list(section: str, value, item=None) -> tuple:
    """A JSON list, or a tuple, whose items are each an ``item`` if given, as a tuple."""
    if not isinstance(value, (list, tuple)) or item and not all(isinstance(v, item) for v in value):
        what = "a list of strings" if item is str else "a list"
        raise ConfigError(f"{section} must be {what}, got {value!r:.200}")
    return tuple(value)


def check_choice(section: str, key: str, value, choices):
    """The choice rule: ``value`` is one of ``choices``, a collection of strings
    or a string enum. Returns ``value``, or for an enum the member it names."""
    try:
        if isinstance(choices, type):
            return choices(value)
        if isinstance(value, str) and value in choices:
            return value
    except ValueError:  # not a value of the enum
        pass
    names = [getattr(choice, "value", choice) for choice in choices]
    raise ConfigError(f"{section} {key} must be one of {names}, got {value!r:.200}")
