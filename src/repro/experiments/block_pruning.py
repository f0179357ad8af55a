"""Block-fetch ablation: eager vs window vs zone-map-lazy DPP retrieval.

The paper's Section 4.2 filters DPP blocks against the single global
``[min, max]`` document window of the query's terms.  The lazy mode goes
further: per-block zone maps (document range, start positions, tree
levels) prune blocks that cannot satisfy a structural axis, and the
remaining blocks are fetched *on demand* — only when a meaningful block
vector of the join actually reaches their document range.

The workload makes the three modes separate cleanly:

* docs outside the rare term's span are pruned by the window
  (``window`` beats ``eager``);
* half the corpus nests its ``<entry>`` elements one level deeper, so a
  child-axis step over them can never match — their blocks survive the
  window but fall to the zone-map level filter, and blocks the join never
  demands are not transferred (``lazy`` beats ``window``).

All three modes must return identical answers; ``blocks_fetched +
blocks_skipped`` is the same total everywhere.  ``repro run blocks
--check`` compares every number with the committed ``BENCH_blocks.json``.
"""

from repro.experiments.harness import answer_sigs
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.sim.cost import CostParams

DESCRIPTION = "Section 4.2 ablation: eager vs window vs zone-map-lazy fetches"
BASELINE = "BENCH_blocks.json"

MODES = ("eager", "window", "lazy")

QUERY = "//log[//rare]/entry"


def _network(mode, num_peers, docs, seed):
    config = KadopConfig(
        use_dpp=True,
        dpp_fetch_mode=mode,
        dpp_block_entries=60,
        replication=1,
        cost=CostParams(egress_bw=100_000.0, ingress_bw=600_000.0),
    )
    net = KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)
    for d in range(docs):
        entries = "".join("<entry>v%d</entry>" % i for i in range(40))
        # second half of the corpus: entries nested one level deeper, so
        # the child step //log/entry cannot match them
        body = entries if d < docs // 2 else "<wrap>%s</wrap>" % entries
        if d in (2, docs - 3):
            body += "<rare>hit</rare>"
        # one peer publishes everything: document ids stay contiguous in
        # the (peer, doc) posting order, keeping block ranges doc-clustered
        net.peers[0].publish("<log>%s</log>" % body, uri="u:%d" % d)
    return net


def run(num_peers=12, docs=20, seed=0):
    """``{mode: {blocks, bytes, times, answers}}`` for the three modes."""
    results = {}
    for mode in MODES:
        net = _network(mode, num_peers, docs, seed)
        answers, report = net.query_with_report(QUERY)
        results[mode] = {
            "blocks_fetched": report.blocks_fetched,
            "blocks_skipped": report.blocks_skipped,
            "postings_fetched": report.postings_fetched,
            "fetch_bytes": report.traffic.get("postings", 0),
            "index_time_s": report.index_time_s,
            "answers": len(answers),
            "answers_sig": answer_sigs(answers),
        }
    return results


def format_rows(results):
    lines = [
        "%-8s %8s %8s %10s %12s %12s %8s"
        % (
            "mode", "fetched", "skipped", "postings",
            "sim bytes", "sim time (s)", "answers",
        )
    ]
    for mode in MODES:
        row = results[mode]
        lines.append(
            "%-8s %8d %8d %10d %12d %12.4f %8d"
            % (
                mode,
                row["blocks_fetched"],
                row["blocks_skipped"],
                row["postings_fetched"],
                row["fetch_bytes"],
                row["index_time_s"],
                row["answers"],
            )
        )
    return "\n".join(lines)


def check_shape(results):
    eager = results["eager"]
    window = results["window"]
    lazy = results["lazy"]
    # identical answers: the fetch mode is purely a performance knob
    assert eager["answers_sig"] == window["answers_sig"] == lazy["answers_sig"]
    # eager filters nothing; accounting covers the same block total in
    # every mode (fetched + skipped is conserved)
    assert eager["blocks_skipped"] == 0
    total = eager["blocks_fetched"] + eager["blocks_skipped"]
    for row in (window, lazy):
        assert row["blocks_fetched"] + row["blocks_skipped"] == total
    # each refinement strictly prunes more
    assert window["blocks_fetched"] < eager["blocks_fetched"]
    assert lazy["blocks_fetched"] < window["blocks_fetched"]
    # fewer blocks means fewer simulated bytes and less simulated time
    assert lazy["fetch_bytes"] < window["fetch_bytes"] < eager["fetch_bytes"]
    assert lazy["index_time_s"] < eager["index_time_s"]


def baseline_rows(results):
    """What ``BENCH_blocks.json`` holds: the rows without their (bulky,
    order-sensitive) answer signatures."""
    return {
        mode: {k: v for k, v in row.items() if k != "answers_sig"}
        for mode, row in results.items()
    }
