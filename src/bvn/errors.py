"""Exception hierarchy shared by all modules."""


class BvnError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(BvnError):
    """Operands live on spaces of different dimension."""


class InvalidStateError(BvnError):
    """A matrix presented as a (partial) density operator fails validation."""


class InvalidChannelError(BvnError):
    """Kraus operators violate the trace-nonincreasing / unitarity contract."""


class InterpretationError(BvnError):
    """A declaration set cannot be assembled into a valid interpretation."""


class WellFormednessError(BvnError):
    """A term, formula or program violates its formation rules."""


class ConfigurationError(BvnError):
    """The interpretation lacks data needed by an operation (e.g. no
    generator set declared for a quantified signature), or a tolerance or
    run limit is out of range."""


class FixpointError(BvnError):
    """A lattice fixpoint did not stabilize; ``ranks`` is its rank trace."""

    def __init__(self, what: str, ranks):
        self.ranks = list(ranks)
        super().__init__(f"{what} fixpoint did not stabilize in dim+1 steps; ranks {self.ranks}")


class RuleError(BvnError):
    """A proof-rule application has the wrong shape or a failed side
    condition."""


class ParseError(BvnError):
    """Surface-syntax error with position information."""

    def __init__(self, message: str, line: int, col: int, token: str = ""):
        self.line = line
        self.col = col
        self.token = token
        at = repr(token) if len(token) <= 40 else f"{token[:32]!r}… of {len(token)} characters"
        super().__init__(f"{line}:{col}: {message}" + (f" (at {at})" if token else ""))
