from .synth import generate_token_table
from .tokenize import tokenize_documents, TOKENIZE_SQL, VOCAB_SIZE

__all__ = [
    "generate_token_table",
    "tokenize_documents",
    "TOKENIZE_SQL",
    "VOCAB_SIZE",
]
