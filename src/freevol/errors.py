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


class NotProperSubgroup(FreevolError):
    """A classification input is not a proper free factor or cyclic subgroup."""


class NotFillingEvidence(FreevolError):
    """A threshold computation needs positive translation lengths."""


class HypothesisViolated(FreevolError):
    """A sampled input fails the hypotheses of the bound being checked."""


class TieDetected(FreevolError):
    """An exact volume ratio tie was detected during classification."""


class BudgetExceeded(FreevolError):
    """A computation would build more letters than its documented budget."""


class UsageError(FreevolError):
    """Bad command-line usage."""
