"""Exception hierarchy shared across the package.

Each class carries the ``plif`` exit code of its failure as
``exit_code``: 1 parse failure or unknown name, 2 validation report or
usage error, 3 threshold above the critical level, 4 zero-probability
evidence, 5 any other inference error.
"""

from __future__ import annotations


class PlifError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = 5


class NetworkFormatError(PlifError):
    """The network document is syntactically malformed."""

    exit_code = 1


class InvalidNetworkError(PlifError):
    """The network parsed but violates a structural invariant.

    ``violations`` holds the full validation report.
    """

    exit_code = 2

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(f"{v.rule}: {v.message}" for v in self.violations)
        super().__init__(f"invalid network: {detail}")


class UnknownNodeError(PlifError):
    """A referenced node name does not exist (or cannot be resolved)."""

    exit_code = 1


class UnknownStateError(PlifError):
    """A state label is not in the named node's state list."""

    exit_code = 1


class QueryError(PlifError):
    """A query, assignment, or argument set is malformed (usage error)."""

    exit_code = 2


class ThresholdError(PlifError):
    """The requested threshold sits above the critical potential level."""

    exit_code = 3

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

    exit_code = 4


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
    """A retrieval walk, on a finite or a lazy network, resolved more
    nodes than ``retrieval.MAX_NODES``."""


class OpenPastError(PlifError):
    """The operation needs a prior the network does not have: the
    full-past threshold on a truncation (open past), or an objective
    node that is a truncation stub."""
