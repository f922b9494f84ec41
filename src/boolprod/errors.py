"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: ValueError (and argparse failures) are
usage errors, CapacityError is a deliberate size-limit rejection, and
ConsistencyError signals an internal cross-check that failed and should never
be swallowed.
"""


class CapacityError(Exception):
    """Raised when an instance exceeds a documented computation ceiling."""


class ConsistencyError(Exception):
    """Raised when an internal cross-check fails (e.g. holdout prime mismatch)."""


class AsymmetryError(ConsistencyError):
    """A polynomial expected to be symmetric is not; carries a witness pair:
    two exponent vectors, or with forms=True two linear forms of an alphabet
    whose product should be symmetric."""

    def __init__(self, exp_a, exp_b, block: str | None = None, forms: bool = False):
        self.witness = (exp_a, exp_b)
        self.block = block
        where = f" in the {block} block" if block else ""
        if forms:
            detail = (
                f"alphabet is not symmetric{where}: form {exp_a} and its image "
                f"{exp_b} occur a different number of times"
            )
        else:
            detail = (
                f"polynomial is not symmetric{where}: coefficient of x^{exp_a} "
                f"differs from coefficient of x^{exp_b}"
            )
        super().__init__(detail)
