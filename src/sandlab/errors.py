"""Exception hierarchy shared across the package."""


class SandlabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SandlabError):
    """An operation was invoked outside its stated domain."""


class RuleError(SandlabError):
    """A rule table failed validation (arity, delta range, bad atom).

    `part` names what is at fault when known: "radius", "default", or the
    0-based index of the offending rule.
    """

    def __init__(self, message, part=None):
        super().__init__(message)
        self.part = part


class ParseError(SandlabError):
    """A text format could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CoreBoundExceeded(SandlabError):
    """Iteration grew a configuration core past the configured cap."""


class InternalConsistencyError(SandlabError):
    """A guaranteed search exhausted its bound; indicates a bug or a
    violated precondition that slipped past validation."""
