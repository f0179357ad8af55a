"""Structure profiles for the Table 1 data sets.

Table 1 reports, for IMDB / XMark / SwissProt / NASA / DBLP, the average
size of an element's dyadic cover ``|D(e)|`` and the ``2l`` bound.  Only
the distribution of element interval widths matters for those numbers, so
each data set is modelled by a tree-shape profile (depth, fan-out, leaf
ratio) matched to the published characteristics of the original corpus.
The profiles reproduce the paper's observation: XML elements are small and
bushy, so covers average ≈1.2–1.6 intervals.
"""

import random
from dataclasses import dataclass

from repro.kadop.serving import QueryArrival
from repro.xmldata.tree import Document, Element, Text, assign_sids


@dataclass(frozen=True)
class DatasetProfile:
    """Shape parameters of one data set.

    ``element_count``  the element count Table 1 reports;
    ``depth``          typical tree depth;
    ``fanout``         mean children per inner node;
    ``leaf_ratio``     fraction of nodes that are leaves;
    ``labels``         label pool (recycled through the tree).
    """

    name: str
    element_count: int
    depth: int
    fanout: int
    leaf_ratio: float
    labels: tuple


DATASET_PROFILES = {
    "IMDB": DatasetProfile(
        "IMDB", 100_000, 4, 8, 0.80,
        ("movie", "actor", "title", "year", "genre", "role", "director"),
    ),
    "XMark": DatasetProfile(
        "XMark", 200_000, 6, 5, 0.72,
        ("site", "item", "person", "category", "name", "description",
         "text", "listitem", "keyword", "bold"),
    ),
    "SwissProt": DatasetProfile(
        "SwissProt", 3_200_000, 4, 10, 0.85,
        ("Entry", "Ref", "Author", "Cite", "Features", "DOMAIN", "Descr"),
    ),
    "NASA": DatasetProfile(
        "NASA", 500_000, 7, 4, 0.70,
        ("dataset", "reference", "source", "history", "author", "title",
         "altname", "ingest", "tableHead", "field"),
    ),
    "DBLP": DatasetProfile(
        "DBLP", 1_500_000, 3, 7, 0.88,
        ("dblp", "article", "inproceedings", "author", "title", "year",
         "pages", "booktitle", "journal"),
    ),
}


def generate_profile_document(profile, element_count=None, seed=0):
    """Generate one document matching ``profile`` with ``element_count``
    elements (defaults to the profile's full Table 1 count).

    The tree is built breadth-first: inner nodes receive ``fanout``±
    children, a ``leaf_ratio`` fraction of which are leaves (with a short
    text), until the element budget is spent.  Structural ids are assigned
    exactly as for parsed documents.
    """
    count = element_count or profile.element_count
    rng = random.Random("%s:%s" % (profile.name, seed))
    labels = profile.labels
    root = Element(labels[0])
    budget = [count - 1]

    def grow(parent, level):
        """One record subtree, respecting depth/fanout/leaf_ratio."""
        if budget[0] <= 0:
            return
        budget[0] -= 1
        child = Element(labels[(count - budget[0]) % len(labels)])
        parent.add_child(child)
        is_leaf = level + 1 >= profile.depth or rng.random() < profile.leaf_ratio
        if is_leaf:
            child.add_child(Text("w%d" % rng.randint(0, 9999)))
            return
        fanout = max(1, int(rng.gauss(profile.fanout, profile.fanout / 3)))
        for _ in range(fanout):
            grow(child, level + 1)

    # the document is a flat collection of record subtrees, which is how
    # all five corpora are shaped (movies, items, entries, datasets, pubs)
    while budget[0] > 0:
        grow(root, 0)
    assign_sids(root)
    return Document(root, uri="profile:%s" % profile.name)


# -- repeated-query traffic profiles ------------------------------------------
#
# Real query logs are heavily skewed: a few patterns account for most of the
# traffic.  These profiles model that with a Zipfian draw over a fixed pool
# of distinct patterns — the workload shape that makes result caching
# (:mod:`repro.views`) pay off, and the one ``experiments.view_warmup``
# measures the cold/warm crossover on.


@dataclass(frozen=True)
class QueryTrafficProfile:
    """Shape of a repeated-query stream.

    ``num_queries``        length of the stream;
    ``distinct_patterns``  size of the pattern pool drawn from;
    ``zipf_skew``          popularity skew of the draw (0 = uniform; larger
                           concentrates traffic on the head patterns);
    ``keyword_fraction``   fraction of pool patterns carrying a selective
                           author-name keyword tail;
    ``warmup_fraction``    fraction of the stream considered the cold phase
                           (caches fill) when an experiment splits it.
    """

    name: str
    num_queries: int
    distinct_patterns: int
    zipf_skew: float
    keyword_fraction: float = 1.0
    warmup_fraction: float = 0.3

    @property
    def warmup_queries(self):
        """Stream index where the warm phase begins."""
        return int(self.num_queries * self.warmup_fraction)


REPEATED_QUERY_PROFILES = {
    # the canonical skewed log: most traffic hits a handful of patterns
    "zipf-hot": QueryTrafficProfile(
        "zipf-hot",
        num_queries=80,
        distinct_patterns=10,
        zipf_skew=1.2,
        warmup_fraction=0.35,
    ),
    # flat popularity: the adversarial case for caching
    "uniform": QueryTrafficProfile(
        "uniform", num_queries=80, distinct_patterns=10, zipf_skew=0.0
    ),
}

def skewed_profile(skew, num_queries=48, distinct_patterns=8):
    """An ad-hoc traffic profile at Zipf exponent ``skew``.

    The sweep axis of ``experiments.skew_balance``: the same pool and
    stream length at every point, only the popularity skew varies (0 =
    uniform draw, >= 1.0 concentrates most traffic on the head pattern —
    and therefore on the peers owning its terms)."""
    return QueryTrafficProfile(
        name="skew-%g" % skew,
        num_queries=num_queries,
        distinct_patterns=distinct_patterns,
        zipf_skew=skew,
        warmup_fraction=0.0,
    )


#: structural templates over the DBLP-like corpus (heavy posting lists)
_QUERY_TEMPLATES = (
    "//article//author",
    "//inproceedings//author",
    "//article//title",
    "//inproceedings//title",
    "//dblp//article//author",
    "//article[//year]//author",
)


def zipfian_query_workload(profile, seed=0):
    """A repeated-query stream following ``profile``.

    Returns ``[(query_text, keyword_steps)]`` of length
    ``profile.num_queries``.  The pool holds ``distinct_patterns`` distinct
    queries — structural templates with (mostly) selective author-name
    keyword tails, so the index phase dominates each query's cost — and the
    stream draws from the pool Zipf-style: pool position is popularity
    rank.  Deterministic for a given ``(profile, seed)``."""
    from repro.workloads import vocab

    rng = random.Random("%s:%s:repeat" % (profile.name, seed))
    pool = []
    for i in range(profile.distinct_patterns):
        template = _QUERY_TEMPLATES[i % len(_QUERY_TEMPLATES)]
        if (i + 1) / profile.distinct_patterns <= profile.keyword_fraction:
            name = vocab.LAST_NAMES[(i * 7) % len(vocab.LAST_NAMES)]
            pool.append((template + "//" + name, (name,)))
        else:
            pool.append((template, ()))
    stream = []
    for _ in range(profile.num_queries):
        if profile.zipf_skew <= 0:
            stream.append(pool[rng.randrange(len(pool))])
        else:
            stream.append(vocab.zipf_choice(rng, pool, skew=profile.zipf_skew))
    return stream


def open_loop_workload(profile, rate_qps, seed=0, num_sources=4):
    """An open-loop arrival trace over ``profile``'s query pool.

    Queries are drawn exactly like :func:`zipfian_query_workload`; each is
    stamped with a Poisson arrival instant (exponential inter-arrival
    gaps at ``rate_qps`` queries/second of *simulated* time, independent
    of service times — the open-loop property that makes saturation
    visible) and a uniformly drawn source peer in ``[0, num_sources)``.
    Returns ``[QueryArrival]``, deterministic for a given
    ``(profile, rate_qps, seed, num_sources)``.
    """
    if rate_qps <= 0:
        raise ValueError("rate_qps must be > 0")
    if num_sources < 1:
        raise ValueError("num_sources must be >= 1")
    stream = zipfian_query_workload(profile, seed=seed)
    rng = random.Random(
        "%s:%s:%g:arrivals" % (profile.name, seed, rate_qps)
    )
    arrivals = []
    clock = 0.0
    for query_text, keyword_steps in stream:
        clock += rng.expovariate(rate_qps)
        arrivals.append(
            QueryArrival(
                arrival_s=clock,
                query_text=query_text,
                keyword_steps=keyword_steps,
                src=rng.randrange(num_sources),
            )
        )
    return arrivals
