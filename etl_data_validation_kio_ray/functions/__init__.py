from .hashing import (
    hash_string_array,
    minhash_signatures,
    polynomial_fingerprint,
    simhash64,
    stable_hash64,
)
from .text import text_features, lang_id_batch, FINGERPRINT_SQL

__all__ = [
    "stable_hash64",
    "polynomial_fingerprint",
    "minhash_signatures",
    "simhash64",
    "text_features",
    "lang_id_batch",
    "FINGERPRINT_SQL",
]
