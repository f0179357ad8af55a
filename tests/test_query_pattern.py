"""Tests for the tree-pattern model and the XPath-subset parser."""

import pytest

from repro.errors import QueryParseError, UnindexableQueryError
from repro.query.index_plan import build_index_plan
from repro.query.pattern import Axis, PatternNode, TreePattern
from repro.query.xpath import parse_query


class TestPatternModel:
    def test_node_kind_exclusive(self):
        with pytest.raises(ValueError):
            PatternNode(label="a", word="b")
        with pytest.raises(ValueError):
            PatternNode()

    def test_axis_admits_child(self):
        from repro.postings.posting import Posting

        parent = Posting(0, 0, 1, 10, 0)
        child = Posting(0, 0, 2, 3, 1)
        grandchild = Posting(0, 0, 4, 5, 2)
        assert Axis.CHILD.admits(parent, child)
        assert not Axis.CHILD.admits(parent, grandchild)
        assert Axis.DESCENDANT.admits(parent, grandchild)
        assert Axis.DESCENDANT_OR_SELF.admits(parent, parent)
        assert not Axis.DESCENDANT.admits(parent, parent)

    def test_node_ids_preorder(self):
        pattern = parse_query("//a[//b]//c")
        labels = {n.node_id: (n.label or n.word) for n in pattern.nodes()}
        assert labels[0] == "a"
        assert set(labels.values()) == {"a", "b", "c"}
        assert sorted(labels) == [0, 1, 2]

    def test_terms_deduplicated(self):
        pattern = parse_query("//a//a//b")
        assert pattern.terms() == [("label", "a"), ("label", "b")]

    def test_word_nodes_listed(self):
        pattern = parse_query('//a[. contains "xml"]')
        assert [n.word for n in pattern.word_nodes()] == ["xml"]

    def test_len(self):
        assert len(parse_query("//a//b//c")) == 3


class TestXPathParser:
    def test_descendant_chain(self):
        p = parse_query("//article//author")
        assert p.root.label == "article"
        (child,) = p.root.children
        assert child.label == "author" and child.axis is Axis.DESCENDANT

    def test_child_axis(self):
        p = parse_query("/a/b")
        assert p.root.axis is Axis.CHILD
        assert p.root.children[0].axis is Axis.CHILD

    def test_wildcard(self):
        p = parse_query("//*//title")
        assert p.root.is_wildcard

    def test_contains_dot_form(self):
        p = parse_query('//article[. contains "Ullman"]')
        (word,) = p.root.children
        assert word.word == "ullman"
        assert word.axis is Axis.DESCENDANT_OR_SELF

    def test_contains_function_on_self(self):
        p = parse_query("//article[contains(., 'xml')]")
        assert p.root.children[0].word == "xml"

    def test_contains_function_on_path(self):
        p = parse_query("//article[contains(.//title,'system')]")
        (title,) = p.root.children
        assert title.label == "title"
        assert title.children[0].word == "system"

    def test_and_predicates(self):
        p = parse_query(
            "//article[contains(.//title,'system') and contains(.//abstract,'interface')]"
        )
        labels = [c.label for c in p.root.children]
        assert labels == ["title", "abstract"]

    def test_branch_predicate(self):
        p = parse_query("//article[//title]//author")
        labels = [(c.label, c.axis) for c in p.root.children]
        assert ("title", Axis.DESCENDANT) in labels
        assert ("author", Axis.DESCENDANT) in labels

    def test_relative_branch_is_child_axis(self):
        p = parse_query("//a[b]")
        assert p.root.children[0].axis is Axis.CHILD

    def test_multiple_predicates(self):
        p = parse_query("//a[//b][//c]//d")
        assert sorted(c.label for c in p.root.children) == ["b", "c", "d"]

    def test_keyword_steps(self):
        p = parse_query("//article//author//Ullman", keyword_steps={"Ullman"})
        author = p.root.children[0]
        word = author.children[0]
        assert word.word == "ullman"
        assert word.axis is Axis.DESCENDANT_OR_SELF

    def test_multi_word_contains(self):
        p = parse_query('//a[. contains "two words"]')
        assert sorted(w.word for w in p.root.children) == ["two", "words"]

    def test_paper_figure3_query(self):
        p = parse_query("//article//author//Ullman", keyword_steps={"Ullman"})
        assert len(p) == 3

    def test_single_quotes(self):
        p = parse_query("//a[. contains 'x']")
        assert p.root.children[0].word == "x"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "a//b",  # must start with axis
            "//a[",
            "//a[]",
            "//",
            "//a//",
            "//a[contains(title,'x')]",  # contains arg must start with .
            "//a[. contains ]",
            '//a[. contains ""]',
            "//a]",
            "//a[//b",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(QueryParseError):
            parse_query(bad)

    def test_to_string_reparses(self):
        for q in (
            "//article//author",
            '//article[. contains "ullman"]',
            "//a[//b][//c]//d",
        ):
            pattern = parse_query(q)
            again = parse_query(pattern.to_string())
            assert len(again) == len(pattern)


class TestIndexPlan:
    def test_plain_pattern_precise(self):
        plan = build_index_plan(parse_query("//a//b"))
        assert plan.precise and not plan.is_forest
        assert len(plan.components) == 1
        assert plan.node_maps[0] == {0: 0, 1: 1}

    def test_wildcard_inner_collapses_to_descendant(self):
        plan = build_index_plan(parse_query("//a/*/b"))
        assert not plan.precise
        (component,) = plan.components
        assert component.root.label == "a"
        (b,) = component.root.children
        assert b.label == "b"
        assert b.axis is Axis.DESCENDANT

    def test_wildcard_root_makes_forest(self):
        plan = build_index_plan(parse_query("//*[//b]//c"))
        assert plan.is_forest
        assert sorted(c.root.label for c in plan.components) == ["b", "c"]

    def test_stop_word_dropped(self):
        plan = build_index_plan(parse_query('//a[. contains "the"]'))
        assert not plan.precise
        assert len(plan.components[0]) == 1

    def test_all_dropped_rejected(self):
        with pytest.raises(UnindexableQueryError):
            build_index_plan(parse_query('//*[. contains "the"]'))

    def test_node_map_translates_back(self):
        pattern = parse_query("//a/*/b//c")
        plan = build_index_plan(pattern)
        component = plan.components[0]
        mapping = plan.node_maps[0]
        by_orig = {n.node_id: n for n in pattern.nodes()}
        for node in component.nodes():
            orig = by_orig[mapping[node.node_id]]
            assert (node.label, node.word) == (orig.label, orig.word)

    def test_terms_union(self):
        plan = build_index_plan(parse_query("//a[//b]//a"))
        assert plan.terms() == [("label", "a"), ("label", "b")]


class TestAttributeSyntax:
    """Attributes are child elements (Section 2), so @name is child-axis."""

    def test_attribute_predicate_equality(self):
        p = parse_query('//pkg[@name="zlib"]')
        (attr,) = [c for c in p.root.children if not c.is_word]
        assert attr.label == "name"
        assert attr.axis is Axis.CHILD
        assert attr.value_equals == "zlib"
        # the index term for completeness
        assert [w.word for w in p.word_nodes()] == ["zlib"]

    def test_attribute_existence(self):
        p = parse_query("//pkg[@arch]")
        (attr,) = p.root.children
        assert attr.label == "arch" and attr.value_equals is None

    def test_attribute_step(self):
        p = parse_query("//pkg/@name")
        (attr,) = p.root.children
        assert attr.label == "name" and attr.axis is Axis.CHILD

    def test_attribute_needs_name(self):
        with pytest.raises(QueryParseError):
            parse_query("//pkg[@]")

    def test_end_to_end(self):
        from repro.kadop.config import KadopConfig
        from repro.kadop.system import KadopNetwork

        net = KadopNetwork.create(num_peers=4, config=KadopConfig(replication=1))
        net.peers[0].publish(
            '<r><x k="a"/><x k="b"/><x/></r>', uri="u"
        )
        assert len(net.query('//x[@k="a"]')) == 1
        assert len(net.query("//x[@k]")) == 2
        assert len(net.query("//x/@k")) == 2
