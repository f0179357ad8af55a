"""Materialized tree-pattern views: a distributed query-result cache.

KadoP re-runs the full distributed twig join for every query, even when the
same popular pattern is asked thousands of times.  Following ViP2P (XML
views in P2P, by the same INRIA group) and LiquidXML's popularity-driven
placement, this package caches the *index phase* of hot queries in the DHT:

* :mod:`repro.views.definition` — tree-pattern view definitions with a
  canonical form and stable DHT ids;
* :mod:`repro.views.rewrite` — the pattern-embedding (containment) test
  that decides when a view can answer a query, plus the cost-based
  view-vs-base choice;
* :mod:`repro.views.store` — the materialized answer postings, kept as
  clustered DHT blocks (posting codec + DPP-style block layout);
* :mod:`repro.views.manager` — the serving-stack facade: view catalog in
  the DHT, query-time rewriting, popularity-driven auto-materialization,
  and incremental maintenance on publish/unpublish.

A view caches candidate documents, not final answers: the document phase
still evaluates the query exactly on each candidate, so view-served answers
are always element-for-element identical to base-index evaluation (the
document phase doubles as the compensation filter when the view is strictly
more general than the query).
"""

from repro.views.definition import ViewBlock, ViewDefinition, canonical_pattern
from repro.views.manager import ViewManager, ViewOutcome, is_view_key
from repro.views.rewrite import subsumes

__all__ = [
    "ViewBlock",
    "ViewDefinition",
    "ViewManager",
    "ViewOutcome",
    "canonical_pattern",
    "is_view_key",
    "subsumes",
]
