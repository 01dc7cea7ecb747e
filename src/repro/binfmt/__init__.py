"""``repro.binfmt`` — the self-describing binary codec for cache blobs.

It encodes the records declared in :mod:`repro.binfmt.types` plus
``None``, ``int``, ``float``, ``str``, ``tuple``, ``list`` and ``dict``,
and nothing else; see :mod:`repro.binfmt.core` for the format.
``fingerprint()`` identifies the declared schema, so callers can key
storage on it.
"""

from .core import BinFormatError, decode, encode, fingerprint

__all__ = ["BinFormatError", "decode", "encode", "fingerprint"]
