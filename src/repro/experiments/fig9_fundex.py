"""Figure 9: Fundex query processing times on an INEX-like collection.

The paper indexes the INEX HCO collection (28 000 publication records, each
referencing a ~1 KB abstract file; 56 000 documents in total) and runs

    //article[contains(.//title,'system') and contains(.//abstract,'interface')]

which touches ≥28 000-entry posting lists but has ~10 real matches.  Query
time is measured on growing prefixes of the collection (5K–25K documents)
for three techniques:

* **Fundex-simple** — potential answers completed through the Rev
  relation, evaluating missing sub-patterns on all functional documents;
* **Fundex-representative** — same, with skeleton pruning;
* **In-lining** — includes expanded at publish time, plain evaluation.

Expected ordering (Figure 9): In-lining < Fundex-representative <
Fundex-simple, all growing with collection size.
"""

from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.workloads.inex import InexGenerator

DESCRIPTION = "Figure 9: Fundex query times"

PAPER_SIZES = (5_000, 10_000, 15_000, 20_000, 25_000)


def _build(sizes, inline, num_peers, seed, matches):
    """Incrementally grow a network; yield it at each checkpoint."""
    config = KadopConfig(replication=1)
    net = KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)
    gen = InexGenerator(
        seed=seed, match_count=matches, collection_size=max(sizes)
    )
    gen.register_abstracts(net, max(sizes))
    published = 0
    for target in sorted(sizes):
        while published < target:
            net.peers[published % num_peers].publish(
                gen.document(published),
                uri="inex:%d" % published,
                inline=inline,
            )
            published += 1
        yield target, net, gen


def run(sizes=None, scale=0.005, num_peers=8, seed=0, matches=4):
    """``{technique: [(docs, seconds)]}`` for the three Figure 9 curves."""
    if sizes is None:
        sizes = [max(10, int(s * scale)) for s in PAPER_SIZES]
    results = {"Fundex-simple": [], "Fundex-representative": [], "Inlining": []}
    answer_counts = {"fundex": [], "representative": [], "inline": []}

    for target, net, gen in _build(sizes, False, num_peers, seed, matches):
        pattern = net.parse(gen.query())
        answers, report = net.fundex.query(pattern, net.peers[0], mode="fundex")
        results["Fundex-simple"].append((target, report.response_time_s))
        answer_counts["fundex"].append({a.doc_id for a in answers})
        answers, report = net.fundex.query(
            pattern, net.peers[0], mode="representative"
        )
        results["Fundex-representative"].append((target, report.response_time_s))
        answer_counts["representative"].append({a.doc_id for a in answers})

    for target, net, gen in _build(sizes, True, num_peers, seed, matches):
        answers, report = net.query_with_report(gen.query())
        results["Inlining"].append((target, report.response_time_s))
        answer_counts["inline"].append({a.doc_id for a in answers})

    # recall parity at every checkpoint (documented guarantee)
    for f, r, i in zip(
        answer_counts["fundex"],
        answer_counts["representative"],
        answer_counts["inline"],
    ):
        assert f == r == i, "Fundex modes must agree with inlining"
    return results


def format_rows(results):
    lines = ["%-24s %10s %14s" % ("Technique", "docs", "seconds")]
    for label, points in results.items():
        for docs, seconds in points:
            lines.append("%-24s %10d %14.4f" % (label, docs, seconds))
    return "\n".join(lines)


def check_shape(results):
    """Figure 9's ordering and growth."""
    simple = results["Fundex-simple"]
    rep = results["Fundex-representative"]
    inline = results["Inlining"]

    # ordering at the largest collection
    assert inline[-1][1] < rep[-1][1] <= simple[-1][1]

    # the Fundex curves grow with the collection; inlining stays cheap
    assert simple[-1][1] > simple[0][1]
    assert inline[-1][1] < simple[-1][1] / 2
