"""Exception types and sentinels shared across the package."""

from __future__ import annotations


class DesignError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(DesignError, ValueError):
    """Structurally invalid argument: bad sizes, indices out of range, ..."""


class NonUniformIntersectionError(DesignError):
    """A grouping does not split every block into equal-size parts."""


class IngredientNotBalancedError(DesignError):
    """An ingredient block design is not a pair-balanced design."""


class ClassCountMismatchError(DesignError):
    """Class counts of the inputs to a matched construction disagree."""


class ClassNotUniformError(DesignError):
    """A block class does not replicate every point equally."""


class NotHadamardError(DesignError):
    """Matrix is not a usable Hadamard matrix (entries, shape or order)."""


class NotNormalizableError(DesignError):
    """The requested splitting row of a Hadamard matrix is unusable."""


class NotSymmetricDesignError(DesignError):
    """Block design is not symmetric (b = v with constant block meets)."""


class LambdaTooSmallError(DesignError):
    """Pairwise balance of the ingredient is too small for the split."""


class SizeMismatchError(DesignError):
    """Factor sizes do not satisfy the construction's arithmetic relation."""


class FactorNotPreservedError(DesignError):
    """A generator permutation moves points between factor classes."""


class NoBlocksSelectedError(DesignError):
    """A filtering construction selected no usable blocks."""


class SymbolCountMismatchError(DesignError):
    """Orthogonal-array column alphabet does not match the class sizes."""


class ComplementTooSmallError(DesignError):
    """Complementing a part would leave fewer than two levels."""


class NotInCatalogError(DesignError, KeyError):
    """Requested parameters are admissible but not in the built-in catalog."""


class NotConstructibleError(DesignError):
    """No built-in construction covers the requested object."""


class BudgetExceededError(DesignError):
    """A search exhausted its node budget before reaching a decision."""


class ParseError(DesignError):
    """Malformed design text; carries 1-based ``line`` and ``col``."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


class DuplicateLevelInPartError(ParseError):
    """A block part names the same level twice."""


class UnknownFactorError(ParseError):
    """A block line refers to a factor not declared in the header."""


class DualRequiresTwoFactorsError(DesignError):
    """The dual (grid) rendering only exists for two-factor designs."""


class _UnknownType:
    """Sentinel for searches that ran out of budget before deciding."""

    def __reduce__(self) -> str:
        # Copies and unpickled values are the module's one UNKNOWN.
        return "UNKNOWN"

    def __repr__(self) -> str:
        return "UNKNOWN"

    def __bool__(self) -> bool:
        raise TypeError("UNKNOWN has no truth value; compare with `is UNKNOWN`")


UNKNOWN = _UnknownType()

# The node budget of every search whose caller sets none.
DEFAULT_BUDGET = 10_000_000
