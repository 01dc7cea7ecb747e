"""``repro.binfmt`` — the zero-pickle self-describing binary codec.

One codec for every persisted or shipped object graph: session cache
blobs, ``compile_many`` fan-out payloads, and linker summaries.  See
:mod:`repro.binfmt.core` for the format and :mod:`repro.binfmt.types`
for the registry that defines it.

Importing this package registers all types; ``fingerprint()`` then
identifies the exact registry shape so callers can key storage on it.
"""

from .core import BinFormatError, decode, encode, fingerprint
from .types import register_all as _register_all

_register_all()

__all__ = ["BinFormatError", "decode", "encode", "fingerprint"]
