"""Recall/precision verification against a centralized oracle.

The paper's guarantees — index queries are *complete* (never miss an
answer) and, without wildcards/stop words, *precise* — are the invariants
every optimization must preserve.  This module checks them for a live
network: it evaluates a query centrally over every (alive) document and
compares with the distributed answer, reporting missing and spurious
tuples.  Useful as a deployment diagnostic and used by the test suite.

The central evaluation is the recursive tree matcher
(:mod:`repro.query.matcher`); the distributed one runs the holistic twig
join in both of its phases.  The two share no code, which is what makes
the comparison a check.
"""

from dataclasses import dataclass, field

from repro.query.matcher import match_document, match_to_postings


@dataclass
class VerificationReport:
    """Outcome of one verification run."""

    query: str
    distributed: int = 0
    expected: int = 0
    missing: list = field(default_factory=list)
    spurious: list = field(default_factory=list)
    candidate_docs: int = 0
    true_docs: int = 0

    @property
    def recall_ok(self):
        return not self.missing

    @property
    def exact(self):
        return not self.missing and not self.spurious

    @property
    def index_precision(self):
        """Fraction of contacted candidate documents that held answers."""
        if not self.candidate_docs:
            return 1.0
        return self.true_docs / self.candidate_docs

    def __repr__(self):
        status = "exact" if self.exact else (
            "complete-imprecise" if self.recall_ok else "INCOMPLETE"
        )
        return "VerificationReport(%r: %s, %d answers)" % (
            self.query,
            status,
            self.distributed,
        )


def oracle_answers(system, pattern):
    """Centralized ground truth over every alive peer's documents."""
    expected = set()
    for peer in system.peers:
        if not peer.node.alive:
            continue
        for doc_index, document in peer.documents.items():
            if doc_index in peer.functional_docs:
                continue
            for match in match_document(pattern, document):
                expected.add(
                    tuple(
                        sorted(
                            match_to_postings(match, peer.index, doc_index).items()
                        )
                    )
                )
    return expected


def verify_query(system, query_text, keyword_steps=(), strategy=None, peer=None):
    """Run ``query_text`` distributed and centrally; compare.

    Returns a :class:`VerificationReport`; ``report.recall_ok`` is the
    paper's completeness guarantee, ``report.exact`` adds answer-level
    precision."""
    pattern = system.parse(query_text, keyword_steps=keyword_steps)
    answers, exec_report = system.executor.run(
        pattern, peer or system.peers[0], strategy=strategy
    )
    got = {a.bindings for a in answers}
    expected = oracle_answers(system, pattern)
    report = VerificationReport(
        query=query_text,
        distributed=len(got),
        expected=len(expected),
        missing=sorted(expected - got),
        spurious=sorted(got - expected),
        candidate_docs=exec_report.candidate_docs,
        true_docs=len({(b[0][1].peer, b[0][1].doc) for b in expected})
        if expected
        else 0,
    )
    return report


def verify_workload(system, workload, strategy=None):
    """Verify a list of ``(query, keyword_steps)``; returns all reports."""
    return [
        verify_query(system, query, keyword_steps=keywords, strategy=strategy)
        for query, keywords in workload
    ]
