"""Exception hierarchy shared across the package."""

from __future__ import annotations


class PlifError(Exception):
    """Base class for every error this package raises on purpose."""


class NetworkFormatError(PlifError):
    """The network document is syntactically malformed."""


class InvalidNetworkError(PlifError):
    """The network parsed but violates a structural invariant.

    ``violations`` holds the full validation report.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(f"{v.rule}: {v.message}" for v in self.violations)
        super().__init__(f"invalid network: {detail}")


class UnknownNodeError(PlifError):
    """A referenced node name does not exist (or cannot be resolved)."""


class UnknownStateError(PlifError):
    """A state label is not in the named node's state list."""


class QueryError(PlifError):
    """A query, assignment, or argument set is malformed (usage error)."""


class ThresholdError(PlifError):
    """The requested threshold sits above the critical potential level."""

    def __init__(self, v: float, pl_star: float, o_star: str):
        self.v = v
        self.pl_star = pl_star
        self.o_star = o_star
        super().__init__(
            f"threshold {v:g} is above the critical potential level "
            f"{pl_star:g} (objective node {o_star!r}); pick a threshold <= {pl_star:g}"
        )


class NoStartNodesError(PlifError):
    """Every query and evidence node lies below the threshold."""


class ZeroEvidenceError(PlifError):
    """The conditioning event has probability zero (or every frontier
    clamp has a zero normalizer)."""


class FrontierTooWideError(PlifError):
    """The joint state space of the unobserved frontier exceeds the clamp cap."""

    def __init__(self, width: int, cap: int):
        self.width = width
        self.cap = cap
        super().__init__(f"frontier too wide: {width} clamp assignments exceed the cap of {cap}")


class FactorTooLargeError(PlifError):
    """An intermediate factor of a contraction would exceed the cell cap."""

    def __init__(self, cells: int, cap: int):
        self.cells = cells
        self.cap = cap
        super().__init__(f"intermediate factor too large: {cells} cells exceed the cap of {cap}")


class ExpansionCapError(PlifError):
    """Lazy expansion visited more nodes than the configured cap."""


class OpenPastError(PlifError):
    """The operation needs priors for the full past, but the network is a
    truncation (open past) or the retrieval touched a truncation stub."""
