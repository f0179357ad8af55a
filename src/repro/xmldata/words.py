"""Word extraction and stop words.

Words are indexed in the ``Term`` relation under their directly containing
element (``Term(p, d, sid, w)``: "w is a word under element (p, d, sid)").
Tokenization is deliberately simple — ASCII alphanumeric runs, case-folded —
and a small stop-word list keeps pathological posting lists (``the``,
``of`` ...) out of the index, as any real deployment would.  The matcher
and the document streams keep stop words: they are a matter of the index.
"""

import re

_WORD_RE = re.compile(r"[A-Za-z0-9]+")

STOP_WORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on or that the
    to was were will with this which""".split()
)


def tokenize(text):
    """All alphanumeric word tokens of ``text``, case-folded, in order.

    Tokens are found in ``text`` as written and lowercased one by one: a
    letter outside ASCII never joins a token, even one whose lowercase form
    is ASCII (the Kelvin sign, or the ``i`` of ``İ``)."""
    return list(map(str.lower, _WORD_RE.findall(text)))


def is_stop_word(word):
    return word.lower() in STOP_WORDS
