"""The one error every :mod:`repro.binfmt` codec raises."""


class BinFormatError(Exception):
    """Raised on any malformed or truncated input, or an undeclared type."""
