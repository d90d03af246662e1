"""Exception types shared across the package."""


class FreevolError(Exception):
    """Base class for all package-specific errors."""


class EmptyWord(FreevolError):
    """An operation requiring a nonempty word received the identity."""


class NotAnAutomorphism(FreevolError):
    """A tuple of words does not form a basis of the ambient free group."""


class BasisMismatch(FreevolError):
    """Two objects defined over different ambient bases were combined."""


class InvalidSplitting(FreevolError):
    """A cyclic splitting violates its normal-form invariants."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class TrivialSubgroup(FreevolError):
    """A subgroup operation received generators of the trivial subgroup."""


class NotFillingEvidence(FreevolError):
    """A threshold computation needs positive translation lengths."""


class HypothesisViolated(FreevolError):
    """A sampled input fails the hypotheses of the bound being checked."""


class BudgetExceeded(FreevolError):
    """A computation would exceed a documented budget: letters, word powers or samples."""


class UsageError(FreevolError):
    """Bad command-line usage."""
