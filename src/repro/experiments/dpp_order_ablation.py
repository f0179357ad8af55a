"""Section 4.1 ablation: range-ordered DPP splits vs. random scattering.

"Alternatively, one could distribute a block's data randomly between
sub-contracting peers.  This still allows for parallel transfers, but
block conditions no longer guide the search ...  When tested, this
approach brought performance improvements a few times smaller than the
order-based DPP."

The ablation runs a selective query (one term confined to a narrow
document range) under both split policies: ordered splits let the
``[min, max]`` filter skip most blocks of the long list; random scattering
leaves every block overlapping the range, so everything is fetched.
"""

from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.sim.cost import CostParams

DESCRIPTION = "Section 4.1 ablation: ordered vs. random splits"


def _network(ordered, num_peers, docs, seed):
    config = KadopConfig(
        use_dpp=True,
        dpp_ordered_splits=ordered,
        dpp_block_entries=60,
        replication=1,
        cost=CostParams(egress_bw=100_000.0, ingress_bw=600_000.0),
    )
    net = KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)
    for d in range(docs):
        body = "".join("<entry>v%d</entry>" % i for i in range(40))
        if d == docs - 1:
            body += "<rare>hit</rare>"
        net.peers[d % 4].publish("<log>%s</log>" % body, uri="u:%d" % d)
    return net

QUERY = "//log[//rare]//entry"


def run(num_peers=12, docs=16, seed=0):
    """``{policy: {time, postings_fetched, blocks_fetched, blocks_skipped}}``."""
    results = {}
    for label, ordered in (("ordered", True), ("random", False)):
        net = _network(ordered, num_peers, docs, seed)
        answers, report = net.query_with_report(QUERY)
        results[label] = {
            "time": report.index_time_s,
            "postings_fetched": report.postings_fetched,
            "blocks_fetched": report.blocks_fetched,
            "blocks_skipped": report.blocks_skipped,
            "answers": len(answers),
        }
    return results


def format_rows(results):
    lines = [
        "%-10s %12s %12s %10s %10s %8s"
        % ("policy", "time (s)", "postings", "fetched", "skipped", "answers")
    ]
    for label, row in results.items():
        lines.append(
            "%-10s %12.4f %12d %10d %10d %8d"
            % (
                label,
                row["time"],
                row["postings_fetched"],
                row["blocks_fetched"],
                row["blocks_skipped"],
                row["answers"],
            )
        )
    return "\n".join(lines)


def check_shape(results):
    ordered = results["ordered"]
    random_ = results["random"]
    assert ordered["answers"] == random_["answers"]
    # ordered splits prune blocks; random scattering cannot
    assert ordered["blocks_skipped"] > 0
    assert random_["blocks_skipped"] == 0
    assert ordered["blocks_fetched"] < random_["blocks_fetched"]
    assert ordered["time"] < random_["time"]
