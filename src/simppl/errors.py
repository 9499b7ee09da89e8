"""Exception taxonomy.

ConfigError subclasses mark user/configuration mistakes (the CLI maps them to
exit code 2); every other SimpplError is a runtime failure (exit code 1).
"""


class SimpplError(Exception):
    """Base class for all package errors."""


class ConfigError(SimpplError):
    """Invalid user input: unknown names, malformed files, bad parameters."""


class UnsupportedModel(ConfigError):
    """Requested model name is not registered."""


class ConfigInvalid(ConfigError):
    """Model configuration violates its constraints."""


class ParameterError(SimpplError, ValueError):
    """Distribution constructed with invalid parameters."""


class DimensionMismatch(SimpplError, ValueError):
    """Parameter vector length does not match the expected head dimension."""


class AddressFamilyMismatch(SimpplError):
    """A structural slot was revisited with a different distribution family."""


class MalformedTrace(SimpplError):
    """Trace file line failed to parse.

    line_no is 1-based.
    """

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ScopeError(SimpplError):
    """Rejection-scope misuse."""


class ScopeUnderflow(ScopeError):
    """scope_retry or scope_end without a matching scope_begin."""


class NestedScopeReuse(ScopeError):
    """scope_begin with a scope_id that is already active."""


class DuplicatePredictName(SimpplError):
    """predict called twice with the same name in one execution."""


class ModelExecutionError(SimpplError):
    """Model body raised; carries the address of the last successful statement."""

    def __init__(self, address, cause):
        where = address.rendered if address is not None else "<before first statement>"
        super().__init__(f"model failed after {where}: {cause!r}")
        self.address = address


def _term_at(address, term):
    return f"{term} at {address.rendered}" if address is not None else "term at <unknown>"


class AllWeightsZero(SimpplError):
    """Every particle weight underflowed to zero; names the first -inf term."""

    def __init__(self, first_zero_address, term):
        where = _term_at(first_zero_address, term)
        super().__init__(f"all particle weights are zero; first -inf {where}")
        self.first_zero_address = first_zero_address


class NonFiniteWeight(SimpplError):
    """A particle's log-weight is +inf or NaN, so weights cannot be normalized."""

    def __init__(self, particle, address, term):
        where = _term_at(address, term)
        super().__init__(f"particle {particle} has a non-finite log-weight; first non-finite {where}")
        self.particle = particle
        self.address = address


class MissingPredict(SimpplError):
    """A trace lacks the requested predict name."""


class UnknownHead(SimpplError):
    """Network queried for an address it has no output head for."""


class NonFiniteLoss(SimpplError):
    """Training loss or parameters became NaN/Inf."""

    def __init__(self, step, message="loss is not finite"):
        super().__init__(f"step {step}: {message}")
        self.step = step


class VersionMismatch(SimpplError):
    """Serialized network has an unsupported format version."""


class MalformedFile(SimpplError):
    """Serialized network file failed to parse or has missing fields."""
