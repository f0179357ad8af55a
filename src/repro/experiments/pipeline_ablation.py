"""Section 3 ablation: blocking ``get`` vs. pipelined ``get``.

With the standard blocking ``get`` the holistic twig join cannot start
until whole posting lists have arrived; the paper's pipelined ``get``
streams lists so the join overlaps the transfers.  The ablation measures
both the time to the first answer and the total response time for the same
query on identical networks.
"""

from repro.experiments.harness import dblp_network
from repro.kadop.config import KadopConfig
from repro.sim.cost import CostParams

DESCRIPTION = "Section 3 ablation: blocking vs. pipelined get"

QUERY = "//article//author"


def run(docs=30, num_peers=12, seed=0, egress_bw=100_000.0):
    """``{variant: {time_to_first, response_time, answers}}``.

    ``egress_bw`` is scaled down so transfers dominate latency, the regime
    the technique targets (see Figure 3's calibration note).
    """
    cost = CostParams(egress_bw=egress_bw, ingress_bw=egress_bw * 6)
    results = {}
    for label, pipelined in (("blocking", False), ("pipelined", True)):
        config = KadopConfig(
            pipelined_get=pipelined, replication=1, cost=cost, chunk_postings=128
        )
        net = dblp_network(config, num_peers, docs, 10_000, seed=seed)
        answers, report = net.query_with_report(QUERY)
        results[label] = {
            "time_to_first": report.time_to_first_s,
            "response_time": report.response_time_s,
            "answers": len(answers),
        }
    return results


def format_rows(results):
    lines = [
        "%-12s %18s %18s %10s"
        % ("variant", "first answer (s)", "response (s)", "answers")
    ]
    for label, row in results.items():
        lines.append(
            "%-12s %18.4f %18.4f %10d"
            % (label, row["time_to_first"], row["response_time"], row["answers"])
        )
    return "\n".join(lines)


def check_shape(results):
    blocking = results["blocking"]
    pipelined = results["pipelined"]
    assert blocking["answers"] == pipelined["answers"]
    # the headline gain: the first answer arrives much earlier
    assert blocking["time_to_first"] > 2.0 * pipelined["time_to_first"]
    # total response never gets worse with pipelining
    assert pipelined["response_time"] <= blocking["response_time"] * 1.05
