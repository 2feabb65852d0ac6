"""The exceptions that `cli.main` maps to exit codes.

They live here, apart from the arithmetic, so the command line can name
them without importing the modules that raise them.  Each raising module
re-exports its own: `verlinde.StructureViolation is
errors.StructureViolation`.
"""


class FaulhaberInconsistency(ArithmeticError):
    """The two closed forms of the power-sum polynomial disagree.

    Both are built from the same Bernoulli table, so a mismatch signals a
    bug in that table rather than bad user input.
    """


class VanishingDenominator(ZeroDivisionError):
    """A curve-evaluation summand has a vanishing quantum denominator;
    the color is too large for the level p."""


class StructureViolation(ValueError):
    """The p-power decomposition does not have the required support or
    exact degrees; points at a residue-formula bug."""


class IntegralityError(ArithmeticError):
    """A dimension evaluated to a non-integer or negative value; this is
    an internal-bug signal, not a user error."""
