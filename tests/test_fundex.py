"""Tests for the Fundex (Section 6): intensional data handling."""

import pytest

from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.workloads.inex import InexGenerator


def build_net(inline=False, seed=2, collection=24, matches=3):
    net = KadopNetwork.create(
        num_peers=8, config=KadopConfig(replication=1), seed=seed
    )
    gen = InexGenerator(seed=5, match_count=matches, collection_size=collection)
    gen.register_abstracts(net, collection)
    for i in range(collection):
        net.peers[i % 4].publish(gen.document(i), uri="inex:%d" % i, inline=inline)
    return net, gen


@pytest.fixture(scope="module")
def fundex_net():
    return build_net(inline=False)


@pytest.fixture(scope="module")
def inline_net():
    return build_net(inline=True)


class TestRegistration:
    def test_functional_docs_materialized_once(self, fundex_net):
        net, gen = fundex_net
        assert net.fundex.functional_count == 24

    def test_intensional_docs_tracked(self, fundex_net):
        net, _ = fundex_net
        assert len(net.fundex.intensional_docs()) == 24

    def test_rev_relation_populated(self, fundex_net):
        net, _ = fundex_net
        from repro.fundex.index import rev_key

        fdoc = next(iter(net.fundex._functional.values()))
        plist, _ = net.net.get(net.peers[0].node, rev_key(*fdoc.fid))
        assert len(plist) == 1  # each abstract referenced by one article

    def test_functional_docs_indexed_in_term_relation(self, fundex_net):
        net, _ = fundex_net
        from repro.fundex.index import FUNCTIONAL_DOC_BASE
        from repro.postings.term_relation import label_key

        plist, _ = net.net.get(net.peers[0].node, label_key("abstract"))
        assert any(p.doc >= FUNCTIONAL_DOC_BASE for p in plist)

    def test_unresolvable_include_raises(self):
        from repro.errors import EntityResolutionError

        net = KadopNetwork.create(
            num_peers=4, config=KadopConfig(replication=1), seed=9
        )
        doc = (
            '<!DOCTYPE a [ <!ENTITY x SYSTEM "u:none"> ]><a>&x;</a>'
        )
        with pytest.raises(EntityResolutionError):
            net.peers[0].publish(doc, uri="u:a")


class TestQueryModes:
    def test_fundex_matches_inlining(self, fundex_net, inline_net):
        """The paper's recall guarantee: Fundex answers = inlined answers
        at the document level."""
        net, gen = fundex_net
        inet, _ = inline_net
        pattern = net.parse(gen.query())
        fundex_answers, _ = net.fundex.query(pattern, net.peers[0], mode="fundex")
        inline_answers = inet.query(gen.query())
        assert {a.doc_id for a in fundex_answers} == {
            a.doc_id for a in inline_answers
        }

    def test_representative_same_answers_fewer_evaluations(self, fundex_net):
        net, gen = fundex_net
        pattern = net.parse(gen.query())
        full, rep_full = net.fundex.query(pattern, net.peers[0], mode="fundex")
        pruned, rep_pruned = net.fundex.query(
            pattern, net.peers[0], mode="representative"
        )
        assert {a.doc_id for a in full} == {a.doc_id for a in pruned}
        assert rep_pruned.functional_docs_pruned > 0
        assert (
            rep_pruned.functional_docs_evaluated
            < rep_full.functional_docs_evaluated
        )

    def test_naive_is_incomplete(self, fundex_net):
        net, gen = fundex_net
        pattern = net.parse(gen.query())
        naive, report = net.fundex.query(pattern, net.peers[0], mode="naive")
        fundex, _ = net.fundex.query(pattern, net.peers[0], mode="fundex")
        assert len(naive) < len(fundex)
        assert report.mode == "naive"

    def test_brutal_is_imprecise(self, fundex_net):
        net, gen = fundex_net
        pattern = net.parse(gen.query())
        _, brutal = net.fundex.query(pattern, net.peers[0], mode="brutal")
        _, fundex = net.fundex.query(pattern, net.peers[0], mode="fundex")
        # brutal contacts every intensional document
        assert brutal.candidate_docs >= 24

    def test_every_mode_answers_after_an_unpublish(self):
        """An intensional answer document withdrawn with ``unpublish``
        leaves every mode answering: brutal ships the documents their peers
        still hold and counts only those, where it raised ``KeyError``."""
        net, gen = build_net()
        pattern = net.parse(gen.query())
        fundex, _ = net.fundex.query(pattern, net.peers[0], mode="fundex")
        assert (0, 3) in {a.doc_id for a in fundex}
        net.peers[0].unpublish(3)
        results = {
            mode: net.fundex.query(pattern, net.peers[0], mode=mode)
            for mode in ("naive", "brutal", "fundex", "representative")
        }
        docs = {mode: {a.doc_id for a in answers} for mode, (answers, _) in results.items()}
        assert docs["fundex"] == docs["representative"] == {a.doc_id for a in fundex} - {(0, 3)}
        assert docs["brutal"] == docs["naive"]
        held = sum(
            doc in net.peers[peer].documents for peer, doc in net.fundex.intensional_docs()
        )
        assert held == 23
        assert results["brutal"][1].candidate_docs == held + results["naive"][1].candidate_docs

    def test_unknown_mode_rejected(self, fundex_net):
        net, gen = fundex_net
        with pytest.raises(ValueError):
            net.fundex.query(net.parse(gen.query()), net.peers[0], mode="x")

    def test_fundex_response_slower_than_inline(self, fundex_net, inline_net):
        """Figure 9 ordering: inlining beats fundex at query time."""
        net, gen = fundex_net
        inet, _ = inline_net
        pattern = net.parse(gen.query())
        _, freport = net.fundex.query(pattern, net.peers[0], mode="fundex")
        _, ireport = inet.query_with_report(gen.query())
        assert freport.response_time_s > ireport.response_time_s

    def test_representative_faster_than_fundex(self, fundex_net):
        net, gen = fundex_net
        pattern = net.parse(gen.query())
        _, simple = net.fundex.query(pattern, net.peers[0], mode="fundex")
        _, rep = net.fundex.query(pattern, net.peers[0], mode="representative")
        assert rep.response_time_s <= simple.response_time_s

    def test_functional_docs_not_regular_answers(self, fundex_net):
        net, _ = fundex_net
        from repro.fundex.index import FUNCTIONAL_DOC_BASE

        answers = net.query("//abstract")
        assert all(a.doc < FUNCTIONAL_DOC_BASE for a in answers)

    def test_potential_answers_counted(self, fundex_net):
        net, gen = fundex_net
        pattern = net.parse(gen.query())
        _, report = net.fundex.query(pattern, net.peers[0], mode="fundex")
        assert report.potential_answers >= report.completed_answers - 0


class TestRepresentativeSkeleton:
    def test_skeleton_labels(self):
        from repro.fundex.representative import skeleton_labels
        from repro.xmldata.parser import parse_document

        doc = parse_document("<a><b><c/></b><b/></a>")
        assert skeleton_labels(doc) == {("a",), ("a", "b"), ("a", "b", "c")}

    def test_skeleton_matches_label_paths(self):
        from repro.fundex.representative import skeleton_labels, skeleton_matches
        from repro.query.xpath import parse_query
        from repro.xmldata.parser import parse_document

        doc = parse_document("<abstract><p>text</p></abstract>")
        skel = skeleton_labels(doc)
        ok = parse_query("//abstract")
        assert skeleton_matches(ok.root, skel)
        nope = parse_query("//title")
        assert not skeleton_matches(nope.root, skel)

    def test_skeleton_ignores_words(self):
        from repro.fundex.representative import skeleton_labels, skeleton_matches
        from repro.query.xpath import parse_query
        from repro.xmldata.parser import parse_document

        doc = parse_document("<abstract>anything</abstract>")
        skel = skeleton_labels(doc)
        q = parse_query('//abstract[. contains "missingword"]')
        # value conditions are ignored: representative indexing is complete
        assert skeleton_matches(q.root, skel)

    def test_skeleton_child_axis(self):
        from repro.fundex.representative import skeleton_labels, skeleton_matches
        from repro.query.xpath import parse_query
        from repro.xmldata.parser import parse_document

        doc = parse_document("<a><b><c/></b></a>")
        skel = skeleton_labels(doc)
        assert skeleton_matches(parse_query("//a/b/c").root, skel)
        assert not skeleton_matches(parse_query("//a/c").root, skel)
        assert skeleton_matches(parse_query("//a//c").root, skel)


class TestFundexDepth:
    """Edge cases: shared includes, multiple includes, nested includes."""

    def test_shared_include_materialized_once(self):
        net = KadopNetwork.create(num_peers=6, config=KadopConfig(replication=1))
        net.register_resource("u:shared", "<abstract>common words</abstract>")
        doc = (
            '<!DOCTYPE article [ <!ENTITY a SYSTEM "u:shared"> ]>'
            "<article><title>t%d</title>&a;</article>"
        )
        for i in range(4):
            net.peers[i % 2].publish(doc % i, uri="u:%d" % i)
        assert net.fundex.functional_count == 1  # one function call, one fid

    def test_shared_include_rev_has_all_occurrences(self):
        net = KadopNetwork.create(num_peers=6, config=KadopConfig(replication=1))
        net.register_resource("u:shared", "<abstract>magic token</abstract>")
        doc = (
            '<!DOCTYPE article [ <!ENTITY a SYSTEM "u:shared"> ]>'
            "<article><title>t%d</title>&a;</article>"
        )
        for i in range(3):
            net.peers[0].publish(doc % i, uri="u:%d" % i)
        from repro.fundex.index import rev_key

        fdoc = next(iter(net.fundex._functional.values()))
        plist, _ = net.net.get(net.peers[0].node, rev_key(*fdoc.fid))
        assert len(plist) == 3  # one occurrence per publishing document
        pattern = net.parse('//article[contains(.//abstract, "magic")]')
        answers, _ = net.fundex.query(pattern, net.peers[0], mode="fundex")
        assert {a.doc_id for a in answers} == {(0, 0), (0, 1), (0, 2)}

    def test_multiple_includes_per_document(self):
        net = KadopNetwork.create(num_peers=6, config=KadopConfig(replication=1))
        net.register_resource("u:abs", "<abstract>alpha</abstract>")
        net.register_resource("u:body", "<body>beta</body>")
        net.peers[0].publish(
            '<!DOCTYPE article [ <!ENTITY a SYSTEM "u:abs">'
            ' <!ENTITY b SYSTEM "u:body"> ]>'
            "<article><title>t</title>&a;&b;</article>",
            uri="u:doc",
        )
        assert net.fundex.functional_count == 2
        pattern = net.parse(
            '//article[contains(.//abstract,"alpha")]'
            '[contains(.//body,"beta")]'
        )
        answers, report = net.fundex.query(pattern, net.peers[0], mode="fundex")
        assert len(answers) == 1
        # both sub-patterns had to be completed intensionally
        assert report.potential_answers == 1

    @pytest.mark.parametrize("use_dpp", [False, True])
    @pytest.mark.parametrize("granularity", ["element", "document"])
    def test_mixed_extensional_and_intensional_matches(self, granularity, use_dpp):
        """Fundex joins what it fetched through the executor's own
        dispatch, so a coarse index keeps the extensional match too."""
        net = KadopNetwork.create(
            num_peers=6,
            config=KadopConfig(
                replication=1, index_granularity=granularity, use_dpp=use_dpp
            ),
        )
        net.register_resource("u:abs", "<abstract>hidden gem</abstract>")
        net.peers[0].publish(
            "<article><title>x</title><abstract>hidden gem</abstract></article>",
            uri="u:ext",
        )
        net.peers[0].publish(
            '<!DOCTYPE article [ <!ENTITY a SYSTEM "u:abs"> ]>'
            "<article><title>y</title>&a;</article>",
            uri="u:int",
        )
        pattern = net.parse('//article[contains(.//abstract, "gem")]')
        answers, _ = net.fundex.query(pattern, net.peers[0], mode="fundex")
        assert {a.doc_id for a in answers} == {(0, 0), (0, 1)}
        # naive only finds the extensional one
        naive, _ = net.fundex.query(pattern, net.peers[0], mode="naive")
        assert {a.doc_id for a in naive} == {(0, 0)}
        assert set(naive) <= set(answers)


class TestUnderFaults:
    """A Fundex answer degraded by a FaultPlan is flagged, not silently
    empty, and the lost keys travel with the run that lost them."""

    QUERY = '//article[contains(.//abstract, "gem")]'

    @staticmethod
    def _blackout():
        from repro.faults import FaultPlan

        net = KadopNetwork.create(
            num_peers=6, config=KadopConfig(replication=1, op_max_retries=0)
        )
        net.register_resource("u:abs", "<abstract>hidden gem</abstract>")
        net.peers[0].publish(
            '<!DOCTYPE article [ <!ENTITY a SYSTEM "u:abs"> ]>'
            "<article><title>y</title>&a;</article>",
            uri="u:int",
        )
        net.install_faults(FaultPlan(seed=1, drop_rate=1.0))
        return net

    @pytest.mark.parametrize("mode", ["fundex", "representative", "naive", "brutal"])
    def test_fresh_executor_flags_degraded_answer(self, mode):
        net = self._blackout()
        answers, report = net.fundex.query(
            net.parse(self.QUERY), net.peers[0], mode=mode
        )
        assert answers == []
        assert not report.complete
        assert set(report.unreachable_keys) == {
            "elem:article", "elem:abstract", "word:gem"
        }

    def test_lost_answers_and_rev_replies_are_flagged(self, monkeypatch):
        """The index look-ups get through but every message shipped above
        the DHT is lost: the potential answers leave the report incomplete,
        and a Rev reply names its key."""
        from repro import faults
        from repro.fundex.index import rev_key
        from repro.kadop.execution import QueryRun

        net = self._blackout()
        net.clear_faults()
        plan = net.install_faults(faults.FaultPlan(seed=1, drop_rate=0.5))
        monkeypatch.setattr(  # a message index is a tuple, an op's an int
            faults, "_unit",
            lambda seed, *parts: 0.0 if parts and isinstance(parts[0], tuple) else 0.99,
        )
        answers, report = net.fundex.query(
            net.parse(self.QUERY), net.peers[0], mode="fundex"
        )
        assert answers == [] and not report.complete
        assert report.unreachable_keys == ()  # the Term look-ups all arrived
        fdoc = next(iter(net.fundex._functional.values()))
        run = QueryRun()
        ra, rev_time = net.fundex._rev_occurrences({0: {fdoc.fid}}, run)
        assert not len(ra[0]) and run.unreachable == {rev_key(*fdoc.fid)}
        # the lost reply still costs its owner every retry it waited out
        dht = net.net
        waits = sum(dht._retry_wait(a) for a in range(dht.retry.max_retries + 1))
        assert rev_time > waits
        assert plan.stats.timeouts >= 2

    def test_lost_keys_do_not_leak_into_the_next_run(self):
        net = self._blackout()
        _, plain = net.query_with_report("//article//title")
        assert set(plain.unreachable_keys) == {"elem:article", "elem:title"}
        _, report = net.fundex.query(
            net.parse(self.QUERY), net.peers[0], mode="fundex"
        )
        assert set(report.unreachable_keys) == {
            "elem:article", "elem:abstract", "word:gem"
        }
        net.clear_faults()
        answers, healthy = net.fundex.query(
            net.parse(self.QUERY), net.peers[0], mode="fundex"
        )
        assert {a.doc_id for a in answers} == {(0, 0)}
        assert healthy.complete and healthy.unreachable_keys == ()
        _, plain = net.query_with_report("//article//title")
        assert plain.complete and plain.unreachable_keys == ()


class TestDppRouting:
    """Pinning tests: Fundex index lookups ride the DPP fetch machinery.

    With ``use_dpp`` on, the Term relation lives in DPP blocks — a raw
    ``net.get`` on a term key returns the empty plain key.  Fundex's
    candidate-document phase (components *and* the root-term lookup for
    intensional candidates) must therefore route through the executor's
    ``dpp_fetch_mode`` machinery, or every Fundex answer silently vanishes
    under DPP.  Pinned against the no-DPP reference, which TestQueryModes
    proves equal to inlining.
    """

    @staticmethod
    def _build(**overrides):
        net = KadopNetwork.create(
            num_peers=8,
            config=KadopConfig(replication=1, **overrides),
            seed=2,
        )
        gen = InexGenerator(seed=5, match_count=3, collection_size=24)
        gen.register_abstracts(net, 24)
        for i in range(24):
            net.peers[i % 4].publish(gen.document(i), uri="inex:%d" % i)
        return net, gen

    @pytest.mark.parametrize("fetch_mode", ["eager", "window", "lazy"])
    def test_dpp_answers_match_plain(self, fetch_mode):
        ref_net, gen = self._build(use_dpp=False)
        query = gen.query()
        reference = {
            a.doc_id
            for a in ref_net.fundex.query(
                ref_net.parse(query), ref_net.peers[0], mode="fundex"
            )[0]
        }
        assert reference  # the pin is meaningless on an empty answer set
        net, _ = self._build(use_dpp=True, dpp_fetch_mode=fetch_mode)
        for mode in ("fundex", "representative"):
            answers, report = net.fundex.query(
                net.parse(query), net.peers[0], mode=mode
            )
            assert {a.doc_id for a in answers} == reference, (fetch_mode, mode)
            assert report.candidate_docs > 0

    def test_no_stale_dpp_state_leaks_to_next_query(self):
        net, gen = self._build(use_dpp=True, dpp_fetch_mode="lazy")
        query = gen.query()
        net.fundex.query(net.parse(query), net.peers[0], mode="fundex")
        # a plain executor query right after is unperturbed
        alone = KadopNetwork.create(
            num_peers=8,
            config=KadopConfig(replication=1, use_dpp=True, dpp_fetch_mode="lazy"),
            seed=2,
        )
        gen2 = InexGenerator(seed=5, match_count=3, collection_size=24)
        gen2.register_abstracts(alone, 24)
        for i in range(24):
            alone.peers[i % 4].publish(gen2.document(i), uri="inex:%d" % i)
        expected = [a.doc_id for a in alone.query(query)]
        assert [a.doc_id for a in net.query(query)] == expected
