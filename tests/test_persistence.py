"""Tests for replay-based checkpoint/restore of a network."""

import json

import pytest

from repro.errors import ConfigError
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.workloads.inex import InexGenerator


def write_checkpoint(tmp_path, config):
    """A hand-written format-1 checkpoint of one two-peer network holding
    ``<a><b>x</b></a>``, whose config is ``config`` over ``replication=1``
    and default costs; returns its path."""
    state = {
        "format": 1,
        "num_peers": 2,
        "peer_uris": ["kadop://s0/p0", "kadop://s0/p1"],
        "config": dict({"replication": 1, "cost": {}}, **config),
        "resources": {},
        "documents": [
            {"peer": 0, "uri": "u:0", "doc_type": None, "xml": "<a><b>x</b></a>"}
        ],
    }
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(state))
    return path


class TestSaveLoad:
    def _network(self):
        config = KadopConfig(replication=2, use_dpp=True, dpp_block_entries=30)
        net = KadopNetwork.create(num_peers=6, config=config, seed=4)
        net.peers[0].publish(
            "<lib><book><title>xml data</title><author>jones</author></book></lib>",
            uri="u:0",
        )
        net.peers[1].publish(
            '<pkgs><pkg name="zlib"><v>1</v></pkg></pkgs>',
            uri="u:1",
            doc_type="catalog",
        )
        return net

    def test_roundtrip_answers(self, tmp_path):
        net = self._network()
        path = tmp_path / "checkpoint.json"
        net.save(path)
        restored = KadopNetwork.load(path)
        for query, kw in (
            ("//book//title", ()),
            ('//pkg[@name="zlib"]', ()),
            ("//lib//author//jones", ("jones",)),
        ):
            a1 = net.query(query, keyword_steps=kw)
            a2 = restored.query(query, keyword_steps=kw)
            assert [a.bindings for a in a1] == [a.bindings for a in a2], query

    def test_config_preserved(self, tmp_path):
        net = self._network()
        path = tmp_path / "c.json"
        net.save(path)
        restored = KadopNetwork.load(path)
        assert restored.config.use_dpp
        assert restored.config.dpp_block_entries == 30
        assert restored.config.replication == 2
        assert len(restored.peers) == 6
        assert [p.uri for p in restored.peers] == [p.uri for p in net.peers]

    def test_doc_types_preserved(self, tmp_path):
        net = self._network()
        path = tmp_path / "c.json"
        net.save(path)
        restored = KadopNetwork.load(path)
        assert restored.peers[1].documents[0].doc_type == "catalog"

    def test_intensional_resources_replayed(self, tmp_path):
        config = KadopConfig(replication=1)
        net = KadopNetwork.create(num_peers=4, config=config, seed=2)
        gen = InexGenerator(seed=5, match_count=2, collection_size=6)
        gen.register_abstracts(net, 6)
        for i in range(6):
            net.peers[i % 2].publish(gen.document(i), uri="inex:%d" % i)
        path = tmp_path / "c.json"
        net.save(path)
        restored = KadopNetwork.load(path)
        assert restored.fundex.functional_count == 6
        pattern = restored.parse(gen.query())
        a1, _ = net.fundex.query(pattern, net.peers[0], mode="fundex")
        pattern2 = restored.parse(gen.query())
        a2, _ = restored.fundex.query(pattern2, restored.peers[0], mode="fundex")
        assert {a.doc_id for a in a1} == {a.doc_id for a in a2}

    @pytest.mark.parametrize(
        "legacy, expected",
        [
            ({"store": "naive"}, "naive"),  # before store_backend existed
            ({"store": "btree", "store_backend": "lsm"}, "lsm"),  # beside it
            ({}, "btree"),
            (  # the seven fields that became constants
                dict(
                    op_timeout_s=0.25, retry_backoff_s=0.05,
                    retry_backoff_cap_s=1.0, hot_key_decay=0.5,
                    rebalance_max_keys=2, leaf_size=8, psi_c=4,
                ),
                "btree",
            ),
            (  # the three fields of deleted mechanisms
                dict(
                    use_dpp=True, dpp_replicate_after=3, dpp_replica_copies=2,
                    striped_replica_fetch=True,
                ),
                "btree",
            ),
            # the publish path's put/append choice, beside the store it ran on
            ({"use_append": True}, "btree"),
            ({"use_append": False, "store_backend": "naive"}, "naive"),
        ],
    )
    def test_legacy_store_key_maps_onto_store_backend(
        self, tmp_path, legacy, expected
    ):
        """A hand-written format-1 checkpoint from before ``store_backend``
        was the only store selector, or with config fields since retired,
        still loads."""
        from repro.storage.naive_store import NaiveGzipStore

        restored = KadopNetwork.load(write_checkpoint(tmp_path, legacy))
        assert restored.config.store_backend == expected
        assert not hasattr(restored.config, "store")
        is_naive = isinstance(restored.net.nodes[0].store, NaiveGzipStore)
        assert is_naive == (expected == "naive")
        assert [a.doc_id for a in restored.query("//a//b")] == [(0, 0)]

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99}))
        with pytest.raises(ConfigError, match="format 99"):
            KadopNetwork.load(path)

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"no_such_knob": 1}, "no_such_knob"),
            ({"cost": {"no_such_cost": 1.0}}, "no_such_cost"),
        ],
    )
    def test_unknown_config_key_rejected(self, tmp_path, config, key):
        with pytest.raises(ConfigError, match=key):
            KadopNetwork.load(write_checkpoint(tmp_path, config))

    @pytest.mark.parametrize(
        "config",
        [
            {"index_granularity": "element"},
            {"word_index_labels": None},
            {"admission_policy": "fifo"},
            {"read_policy": "owner"},
        ],
    )
    def test_removed_mode_at_its_default_loads(self, tmp_path, config):
        restored = KadopNetwork.load(write_checkpoint(tmp_path, config))
        assert [a.doc_id for a in restored.query("//a//b")] == [(0, 0)]

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"index_granularity": "document"}, "index_granularity"),
            ({"word_index_labels": ["abstract"]}, "word_index_labels"),
            ({"word_index_labels": []}, "word_index_labels"),
            ({"admission_policy": "fair"}, "admission_policy"),
            ({"read_policy": "round_robin"}, "read_policy"),
        ],
    )
    def test_removed_mode_rejected(self, tmp_path, config, key):
        """A network saved under a mode this code no longer has must not
        reload silently as a different index or policy."""
        with pytest.raises(ConfigError, match=key):
            KadopNetwork.load(write_checkpoint(tmp_path, config))

    def test_checkpoint_is_plain_json(self, tmp_path):
        net = self._network()
        path = tmp_path / "c.json"
        net.save(path)
        state = json.loads(path.read_text())
        assert state["format"] == 1
        assert len(state["documents"]) == 2
