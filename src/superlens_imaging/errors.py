"""Typed error hierarchy.

Every error carries the process exit code the CLI maps it to:
1 = usage error, 2 = invariant violation in the inputs, 3 = numerical failure.
"""


class SuperlensError(Exception):
    exit_code = 2


class UsageError(SuperlensError):
    """Malformed config / unknown key / bad command line."""
    exit_code = 1


class GridTooLarge(UsageError):
    """The discretization's arrays do not fit in the memory there is."""
    exit_code = 1


# --- invariant violations (detectable from the inputs) ------------------

class ResonantMode(SuperlensError):
    """gamma_n or eta_n vanishes: the layered system is resonant and the
    closed forms are invalid for this mode."""
    exit_code = 2


class ProfileTooTall(SuperlensError):
    """epsilon * sup|g| >= a; the flattening coordinate map degenerates."""
    exit_code = 2


class NyquistViolation(SuperlensError):
    exit_code = 2


class CutoffOutOfRange(SuperlensError):
    exit_code = 2


class EmptyImage(SuperlensError):
    exit_code = 2


class BadThreshold(SuperlensError):
    exit_code = 2


class ZeroNoise(SuperlensError):
    exit_code = 2


# --- numerical failures --------------------------------------------------

class NearSingularSystem(SuperlensError):
    """The layer determinant nearly cancels; coefficients are untrustworthy."""
    exit_code = 3


class DegenerateSlab(SuperlensError):
    """Slab elimination denominator vanishes."""
    exit_code = 3


class NoConvergence(SuperlensError):
    exit_code = 3
