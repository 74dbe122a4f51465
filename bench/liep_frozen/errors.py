"""Shared exception types."""


class ContractError(ValueError):
    """Raised when input data violates a documented mathematical precondition.

    Distinct from a plain ``ValueError`` (malformed or out-of-domain
    arguments) so callers can tell "you asked a nonsensical question"
    apart from "this object fails the advertised hypothesis".
    """
