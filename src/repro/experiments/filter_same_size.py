"""Section 5.1 / 5.4: the ψ trace function against a single trace per
level, at equal filter size.

"For a filter of the same size, the proposed function achieved a lower
error rate compared to the default function that uses a single trace
per level."  Both AB variants get the same bit budget; ψ spends it on
replicated traces of wide intervals, the baseline on one trace per
level.  The corpus and the ``article//author`` probe are those of
:mod:`repro.experiments.filter_sensitivity`.
"""

from repro.bloom.analysis import empirical_fp_rate
from repro.bloom.structural import AncestorBloomFilter
from repro.experiments.filter_sensitivity import corpus_lists, true_descendants

DESCRIPTION = "Section 5.4: psi vs. single trace at equal filter size"


def run(budget_bits_per_posting=(4, 8, 16, 32), docs=20, seed=0, psi_c=4):
    """``[{bits_per_posting, filter_bytes, psi, single}]``."""
    l_article, l_author, _, _ = corpus_lists(docs=docs, seed=seed)
    true_desc = true_descendants(l_article, l_author)
    rows = []
    for budget in budget_bits_per_posting:
        bits = max(64, budget * len(l_article))
        with_psi = AncestorBloomFilter(
            l_article, fp_rate=0.2, psi_c=psi_c, seed=1, bits=bits
        )
        kept = with_psi.filter_postings(l_author)
        psi_rate = empirical_fp_rate(len(kept), len(true_desc), len(l_author))

        single = AncestorBloomFilter(
            l_article, fp_rate=0.2, psi_c=None, seed=2, bits=bits
        )
        kept_single = single.filter_postings(l_author)
        single_rate = empirical_fp_rate(
            len(kept_single), len(true_desc), len(l_author)
        )
        rows.append(
            {
                "bits_per_posting": budget,
                "filter_bytes": with_psi.size_bytes,
                "psi": psi_rate,
                "single": single_rate,
            }
        )
    return rows


def format_rows(rows):
    lines = ["%16s %14s %10s %14s" % ("bits/posting", "filter bytes", "psi", "single-trace")]
    for row in rows:
        lines.append(
            "%16d %14d %10.4f %14.4f"
            % (row["bits_per_posting"], row["filter_bytes"], row["psi"], row["single"])
        )
    return "\n".join(lines)


def check_shape(rows):
    """ψ never loses at equal size, and wins where the budget is tight."""
    for row in rows:
        assert row["psi"] <= row["single"] + 0.02, row
    assert any(row["psi"] < row["single"] - 0.02 for row in rows)
