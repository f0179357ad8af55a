"""Postings and the distributed ``Term`` relation (Section 2 of the paper)."""

from repro.postings.posting import Posting, StructuralId
from repro.postings.plist import PostingList
from repro.postings.encoder import decode_postings, encode_postings, encoded_size
from repro.postings.term_relation import label_key, word_key

__all__ = [
    "Posting",
    "StructuralId",
    "PostingList",
    "encode_postings",
    "decode_postings",
    "encoded_size",
    "label_key",
    "word_key",
]
