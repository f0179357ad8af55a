"""Tests for the Section 4.2 join pushdown: "some structural joins could
be pushed to the peer holding the longest posting list involved in the
query".
"""

import pytest

from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.workloads.dblp import DblpGenerator


def _corpus(net, docs=8):
    gen = DblpGenerator(seed=21, target_doc_bytes=4000)
    for i, doc in enumerate(gen.documents(docs)):
        net.peers[i % 4].publish(doc, uri="d:%d" % i)


class TestPushdown:
    @pytest.fixture(scope="class")
    def net(self):
        net = KadopNetwork.create(
            num_peers=10, config=KadopConfig(replication=1), seed=13
        )
        _corpus(net)
        return net

    @pytest.mark.parametrize(
        "query,keywords",
        [
            ("//article//author//Ullman", ("Ullman",)),
            ("//article//author", ()),
            ("//article[//title]//author", ()),
            ('//inproceedings[. contains "Smith"]', ()),
        ],
    )
    def test_same_answers(self, net, query, keywords):
        base = net.query(query, keyword_steps=keywords)
        pushed = net.query(query, keyword_steps=keywords, strategy="pushdown")
        assert [a.bindings for a in pushed] == [a.bindings for a in base]

    def test_saves_traffic_when_one_list_dominates(self, net):
        """The dominant author list never crosses the network."""
        query, kw = "//article//author//Ullman", ("Ullman",)
        _, base = net.query_with_report(query, keyword_steps=kw)
        _, push = net.query_with_report(query, keyword_steps=kw, strategy="pushdown")
        assert push.traffic["postings"] < base.traffic["postings"] / 2

    def test_single_term_query_degrades_gracefully(self, net):
        answers = net.query("//author", strategy="pushdown")
        assert answers == net.query("//author")

    def test_config_accepts_pushdown(self):
        config = KadopConfig(filter_strategy="pushdown", replication=1)
        net = KadopNetwork.create(num_peers=4, config=config, seed=1)
        net.peers[0].publish("<a><b>x</b></a>", uri="u")
        assert len(net.query("//a//b")) == 1

