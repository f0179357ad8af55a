"""Section 4.3: posting-list skew in DBLP-like data.

"Even for a 200 MB fragment of DBLP data, there are posting lists larger
than 200K entries for inproceedings, 1M entries for author, and 500K for
title."  The experiment measures the posting counts of the heavy terms per
MB of indexed data and checks they extrapolate to the paper's counts.
"""

from repro.index.publisher import extract_postings
from repro.postings.term_relation import label_key
from repro.workloads.dblp import DblpGenerator
from repro.xmldata.parser import parse_document

DESCRIPTION = "Section 4.3: posting-list skew"

#: per-200MB posting counts the paper reports as lower bounds
PAPER_COUNTS_PER_200MB = {
    "author": 1_000_000,
    "title": 500_000,
    "inproceedings": 200_000,
}


def run(sample_bytes=400_000, doc_bytes=20_000, seed=0):
    """Measure heavy-term posting counts on a corpus sample.

    Returns ``{term: (sample_count, extrapolated_200mb_count)}``.
    """
    gen = DblpGenerator(seed=seed, target_doc_bytes=doc_bytes)
    counts = {term: 0 for term in PAPER_COUNTS_PER_200MB}
    sampled = 0
    for doc_index, text in enumerate(gen.documents_for_bytes(sample_bytes)):
        document = parse_document(text, uri="d:%d" % doc_index)
        extracted = extract_postings(document, 0, doc_index)
        for term in counts:
            counts[term] += len(extracted.get(label_key(term), ()))
        sampled += len(text)
    factor = 200_000_000 / sampled
    return {
        term: (count, int(count * factor)) for term, count in counts.items()
    }


def format_rows(results):
    lines = [
        "%-16s %14s %22s %18s"
        % ("term", "sample", "extrapolated/200MB", "paper (at least)")
    ]
    for term, (count, extrapolated) in sorted(results.items()):
        lines.append(
            "%-16s %14d %22d %18d"
            % (term, count, extrapolated, PAPER_COUNTS_PER_200MB[term])
        )
    return "\n".join(lines)


def check_shape(results):
    """The skew ordering and magnitudes of Section 4.3."""
    author = results["author"][1]
    title = results["title"][1]
    inproceedings = results["inproceedings"][1]
    assert author > title > inproceedings
    # magnitudes within 2x of the paper's lower bounds
    for term, paper in PAPER_COUNTS_PER_200MB.items():
        assert results[term][1] > paper / 2, term
