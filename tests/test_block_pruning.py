"""Differential tests for zone-map-lazy DPP block fetching (Section 4.2).

The lazy fetch mode is a pure performance knob: answers must be identical
to eager fetching on both overlays, block accounting must stay conserved
(``blocks_fetched + blocks_skipped`` equals the eager block total), and on
the selective ablation workload the lazy mode must fetch strictly fewer
blocks.  The ablation experiment's shape check is exercised here too so a
regression fails tier-1, not just the CI smoke step.
"""

import pytest

from repro.experiments import block_pruning
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork

QUERIES = ("//log[//rare]/entry", "//log//entry", "//log/entry")

SELECTIVE = "//log[//rare]/entry"


def _network(mode, overlay):
    config = KadopConfig(
        use_dpp=True,
        dpp_fetch_mode=mode,
        dpp_block_entries=40,
        replication=1,
        overlay=overlay,
    )
    net = KadopNetwork.create(num_peers=10, config=config, seed=4)
    docs = 12
    for d in range(docs):
        entries = "".join("<entry>v%d</entry>" % i for i in range(20))
        # second half nests entries one level deeper: the child step of
        # the selective query can never match them (zone-map territory)
        body = entries if d < docs // 2 else "<wrap>%s</wrap>" % entries
        if d in (2, docs - 3):
            body += "<rare>hit</rare>"
        net.peers[0].publish("<log>%s</log>" % body, uri="u:%d" % d)
    return net


def _sig(answers):
    return [(a.peer, a.doc, a.bindings) for a in answers]


class TestLazyEagerDifferential:
    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    @pytest.mark.parametrize("query", QUERIES)
    def test_identical_answers_and_conserved_accounting(self, overlay, query):
        eager_net = _network("eager", overlay)
        lazy_net = _network("lazy", overlay)
        eager_answers, eager_report = eager_net.query_with_report(query)
        lazy_answers, lazy_report = lazy_net.query_with_report(query)
        assert _sig(lazy_answers) == _sig(eager_answers)
        assert len(lazy_answers) > 0
        # eager filters nothing; lazy accounts for the same block total,
        # every block either fetched or counted as skipped
        assert eager_report.blocks_skipped == 0
        total = eager_report.blocks_fetched
        assert lazy_report.blocks_fetched + lazy_report.blocks_skipped == total
        assert lazy_report.blocks_fetched <= total

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_selective_query_strictly_prunes(self, overlay):
        _, eager_report = _network("eager", overlay).query_with_report(
            SELECTIVE
        )
        _, lazy_report = _network("lazy", overlay).query_with_report(
            SELECTIVE
        )
        assert lazy_report.blocks_fetched < eager_report.blocks_fetched
        assert lazy_report.blocks_skipped > 0
        # fewer blocks must mean fewer simulated bytes on the wire
        assert (
            lazy_report.traffic["postings"] < eager_report.traffic["postings"]
        )


class TestLazyObservability:
    def test_lazy_span_label_and_pruning_counters(self):
        net = _network("lazy", "pastry")
        net.enable_tracing()
        _, report = net.query_with_report(SELECTIVE)
        names = {span.name for span in net.tracer.spans}
        assert "fetch[lazy]" in names
        assert report.blocks_skipped > 0


class TestAblationShape:
    def test_experiment_shape_holds(self):
        results = block_pruning.run()
        block_pruning.check_shape(results)
