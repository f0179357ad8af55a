"""The key scheme of the ``Term`` relation.

``Term(p, d, sid, t)`` says term ``t`` (an element label or a word) occurs
at element ``(p, d, sid)``.  The relation is split horizontally across the
DHT with the term as key; KadoP distinguishes labels from words, which we
realize with distinct key prefixes so ``author`` the tag and ``author`` the
word never collide.
"""

LABEL_PREFIX = "elem:"
WORD_PREFIX = "word:"


def label_key(label):
    """DHT key for element label ``label``."""
    return LABEL_PREFIX + label


def word_key(word):
    """DHT key for text word ``word`` (case-folded)."""
    return WORD_PREFIX + word.lower()
