"""Tree-pattern queries and their evaluation (Section 2 of the paper).

* :mod:`repro.query.pattern` — the tree-pattern model (nodes labeled with a
  tag, ``*`` or a text word; ``/`` ``//`` and descendant-or-self edges);
* :mod:`repro.query.xpath` — parser for the XPath subset the paper uses;
* :mod:`repro.query.matcher` — direct recursive evaluation over a parsed
  document (the test oracle);
* :mod:`repro.query.twigjoin` — the holistic twig join over sorted posting
  streams (the document phase over one document's element streams; after
  [Bruno et al. 2002]), and the structural semi-join that finds the index
  query's candidate documents without enumerating matches;
* :mod:`repro.query.index_plan` — turning a user pattern into the index
  query: dropping wildcards/stop words and tracking completeness/precision.
"""

from repro.query.pattern import Axis, PatternNode, TreePattern
from repro.query.xpath import parse_query
from repro.query.matcher import match_document
from repro.query.twigjoin import twig_join
from repro.query.index_plan import IndexPlan, build_index_plan

__all__ = [
    "Axis",
    "PatternNode",
    "TreePattern",
    "parse_query",
    "match_document",
    "twig_join",
    "IndexPlan",
    "build_index_plan",
]
