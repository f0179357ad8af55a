"""Section 5.4, filter sensitivity analysis.

The paper probes the scenario ``a//b`` two ways — filtering ``b`` with
``ABF(a)`` and filtering ``a`` with ``DBF(b)`` — and measures the
*empirical false positive rate* as the basic Bloom rate ``fp[ψ]`` varies.
Findings reproduced here:

* the AB filter stays below ~10% error even at ``fp[ψ] = 20%``;
* the DB filter needs ``fp[ψ] < 5%`` to stay below 10%, degrading badly as
  ``fp[ψ]`` grows (its probe is a disjunction, the AB probe a conjunction);
* the ψ trace function beats a single trace per level (at equal filter
  size: :mod:`repro.experiments.filter_same_size`).
"""

from repro.bloom.analysis import empirical_fp_rate
from repro.bloom.structural import AncestorBloomFilter, DescendantBloomFilter
from repro.index.publisher import extract_postings
from repro.postings.plist import PostingList
from repro.postings.term_relation import label_key
from repro.workloads.dblp import DblpGenerator
from repro.xmldata.parser import parse_document

DESCRIPTION = "Section 5.4: filter sensitivity analysis"

FP_RATES = (0.01, 0.05, 0.10, 0.20, 0.30)


def corpus_lists(docs=20, doc_bytes=8_000, seed=0):
    """Posting lists over a DBLP-like sample for the two probe scenarios.

    AB scenario ``article//author``: authors under the other record kinds
    are the negatives (~70% of authors).  DB scenario ``article[//'data']``:
    articles without the (fairly common) title word are the negatives —
    both sides need a sizable negative population for the empirical rate to
    mean anything, and the DB side needs *wide* probed elements for the
    paper's disjunction effect to show.
    """
    from repro.postings.term_relation import word_key

    gen = DblpGenerator(seed=seed, target_doc_bytes=doc_bytes)
    l_article, l_author, l_title, l_word = [], [], [], []
    for i in range(docs):
        document = parse_document(gen.document(i))
        extracted = extract_postings(document, 0, i)
        l_article.extend(extracted.get(label_key("article"), ()))
        l_author.extend(extracted.get(label_key("author"), ()))
        l_title.extend(extracted.get(label_key("title"), ()))
        l_word.extend(extracted.get(word_key("data"), ()))
    return (
        PostingList(l_article),
        PostingList(l_author),
        PostingList(l_title),
        PostingList(l_word),
    )


def true_descendants(la, lb):
    return {b for b in lb if any(a.is_ancestor_of(b) for a in la)}


def _true_ancestors_or_self(la, lb):
    return {
        a
        for a in la
        if any(
            a.peer == b.peer
            and a.doc == b.doc
            and a.start <= b.start
            and b.end <= a.end
            for b in lb
        )
    }


def run(fp_rates=FP_RATES, docs=20, seed=0, psi_c=4):
    """Empirical FP rate per basic rate, for AB, AB(single-trace), DB.

    Returns ``[{fp, ab, ab_single_trace, db}]``.
    """
    l_article, l_author, l_title, l_word = corpus_lists(docs=docs, seed=seed)
    true_desc = true_descendants(l_article, l_author)
    true_anc = _true_ancestors_or_self(l_article, l_word)
    rows = []
    for fp in fp_rates:
        abf = AncestorBloomFilter(l_article, fp_rate=fp, psi_c=psi_c, seed=1)
        kept_b = abf.filter_postings(l_author)
        ab_rate = empirical_fp_rate(len(kept_b), len(true_desc), len(l_author))

        # ψ ablation: a single trace per level (the paper's baseline)
        single = AncestorBloomFilter(l_article, fp_rate=fp, psi_c=None, seed=2)
        kept_single = single.filter_postings(l_author)
        ab_single = empirical_fp_rate(
            len(kept_single), len(true_desc), len(l_author)
        )

        dbf = DescendantBloomFilter(l_word, fp_rate=fp, seed=3)
        kept_a = dbf.filter_postings(l_article, or_self=True)
        db_rate = empirical_fp_rate(len(kept_a), len(true_anc), len(l_article))

        rows.append(
            {
                "fp": fp,
                "ab": ab_rate,
                "ab_single_trace": ab_single,
                "db": db_rate,
            }
        )
    return rows


def format_rows(rows):
    lines = [
        "%8s %10s %18s %10s" % ("fp[psi]", "AB", "AB single-trace", "DB")
    ]
    for row in rows:
        lines.append(
            "%8.2f %10.4f %18.4f %10.4f"
            % (row["fp"], row["ab"], row["ab_single_trace"], row["db"])
        )
    return "\n".join(lines)


def check_shape(rows):
    """The paper's qualitative findings (thresholds adapted to the
    synthetic corpus — see EXPERIMENTS.md for paper-vs-measured)."""
    by_fp = {row["fp"]: row for row in rows}
    # AB resilient even at a 20% basic rate
    assert by_fp[0.20]["ab"] < 0.20
    # DB fine at small rates, collapsing at large ones
    assert by_fp[0.01]["db"] < 0.10
    assert by_fp[0.20]["db"] > 2 * by_fp[0.20]["ab"]
    assert by_fp[0.30]["db"] > 0.3
    # psi beats the single-trace baseline at every rate
    for row in rows:
        assert row["ab"] <= row["ab_single_trace"] + 0.01
