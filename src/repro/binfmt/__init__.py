"""``repro.binfmt`` — the self-describing binary codec for persisted blobs.

One codec for every persisted object graph: session cache blobs and
linker summaries (pool-worker results are pickled, never persisted).  See
:mod:`repro.binfmt.core` for the format and :mod:`repro.binfmt.types`
for the registry that defines it.

Importing this package registers all types; ``fingerprint()`` then
identifies the exact registry shape so callers can key storage on it.
"""

from .core import BinFormatError, decode, encode, fingerprint
from .types import register_all as _register_all

_register_all()

__all__ = ["BinFormatError", "decode", "encode", "fingerprint"]
