"""The four seeded workloads.

Every workload builds a 16-peer Pastry network with ``replication=2`` over
``DblpGenerator(seed + 1)`` documents through the public ``KadopNetwork`` /
``KadopPeer`` API.  ``setup`` is everything before the timed window (corpus
generation, network build, preload, stream generation); ``run`` is the
timed window, expressed as calls on a *driver* (``bench.child``) that owns
all measuring.  An *op* is one document published, one document withdrawn,
or one query answered.

Sizes.  ISSUE 11 sized these for 10-17 s plain runs; the benchmark
contract leaves about 37 s for one whole invocation (set-up several times,
a plain run, and a step-counted run that is 3-7x slower), so documents are
4 KB throughout and corpora are smaller.  No workload drops below 100 ops.
"""

import random

from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.workloads import vocab
from repro.workloads.dblp import DblpGenerator
from repro.workloads.profiles import QueryTrafficProfile, open_loop_workload
from repro.workloads.queries import traffic_workload

NUM_PEERS = 16
DOC_BYTES = 4_000
BATCH = 8

#: last names the Zipf draw of ``DblpGenerator`` rarely picks
TAIL_NAMES = tuple(vocab.LAST_NAMES[20:])

#: linear on purpose: with a rare keyword, the cost of a *branching* twig
#: join swings +-15 % with where the keyword's last posting happens to sit,
#: which would drown the benchmark in seed noise; branching joins are
#: measured by the structural queries of ``query_docphase`` instead
KEYWORD_TEMPLATES = (
    "//article//author//%s",
    "//inproceedings//author//%s",
    "//dblp//article//author//%s",
    "//dblp//inproceedings//author//%s",
    "//dblp//author//%s",
)

#: probe queries that check the index around ingest's unpublish phase
INGEST_PROBES = (
    ("//article//author", ()),
    ("//inproceedings[//year]//title", ()),
    ("//dblp//article//journal", ()),
    ("//article//author//Smith", ("Smith",)),
    ("//inproceedings//author//Chen", ("Chen",)),
    ("//article//title//data", ("data",)),
)


class Workload:
    """Base: seeded inputs, a network, and an op stream."""

    name = None
    why = None
    config = {}
    #: per scale: workload-specific sizes
    sizes = {}

    def __init__(self, seed, scale="full"):
        self.seed = seed
        self.size = self.sizes[scale]
        self.rng = random.Random("%s:%s" % (self.name, seed))
        self.generator = DblpGenerator(seed=seed + 1, target_doc_bytes=DOC_BYTES)
        self.net = None
        self._next_uri = 0

    def make_network(self):
        config = KadopConfig(replication=2, overlay="pastry", **self.config)
        # the deployment is fixed (same peer URIs, so the same node ids,
        # under every seed); the seed decides the data and the streams
        return KadopNetwork.create(NUM_PEERS, config=config, seed=0)

    def documents(self, count):
        return [self.generator.document() for _ in range(count)]

    def uris(self, count):
        start = self._next_uri
        self._next_uri += count
        return ["dblp:%d" % i for i in range(start, start + count)]

    def preload(self, count):
        """Bulk-publish ``count`` documents round-robin, outside the window."""
        docs = self.documents(count)
        for b, start in enumerate(range(0, count, BATCH)):
            chunk = docs[start : start + BATCH]
            self.net.peers[b % NUM_PEERS].publish_batch(
                chunk, uris=self.uris(len(chunk))
            )

    def live_documents(self):
        return [
            (peer.index, doc_index)
            for peer in self.net.peers
            for doc_index in sorted(peer.documents)
        ]

    def setup(self):
        raise NotImplementedError

    def run(self, driver):
        raise NotImplementedError


class Ingest(Workload):
    name = "ingest"
    why = (
        "write-only: serial publish, bulk publish, then unpublish; parse, "
        "routing and store costs show here and the query layers stay at zero"
    )
    sizes = {
        "full": {"preload": 16, "serial": 40, "bulk": 48, "unpublish": 12},
        "tiny": {"preload": 8, "serial": 8, "bulk": 8, "unpublish": 4},
    }

    def setup(self):
        self.net = self.make_network()
        self.preload(self.size["preload"])
        self.serial_docs = self.documents(self.size["serial"])
        self.bulk_docs = self.documents(self.size["bulk"])

    def run(self, driver):
        peers = self.net.peers
        for i, xml in enumerate(self.serial_docs):
            driver.publish(peers[i % NUM_PEERS], xml, self.uris(1)[0], phase="serial")
        for b, start in enumerate(range(0, len(self.bulk_docs), BATCH)):
            chunk = self.bulk_docs[start : start + BATCH]
            driver.publish_batch(peers[b % NUM_PEERS], chunk, self.uris(len(chunk)))
        driver.probe(INGEST_PROBES)
        victims = self.rng.sample(self.live_documents(), self.size["unpublish"])
        for peer_index, doc_index in victims:
            driver.unpublish(peers[peer_index], doc_index)
        driver.probe(INGEST_PROBES)


class QueryIndex(Workload):
    name = "query_index"
    why = (
        "rare-keyword queries over a DPP index: lazy block fetch, block join "
        "and range reads, which no other workload runs, beside codec and twig "
        "join; few candidate documents per query"
    )
    config = {"use_dpp": True, "dpp_block_entries": 128}
    sizes = {
        "full": {"preload": 40, "queries": 100},
        "tiny": {"preload": 16, "queries": 10},
    }

    def setup(self):
        self.net = self.make_network()
        self.preload(self.size["preload"])
        # every name is used about equally often under any seed; the seed
        # decides the order and, through the corpus, how rare each is.  The
        # rare author is in few documents, so lazy fetch can skip blocks
        names = list(TAIL_NAMES) + [vocab.RARE_AUTHOR]
        self.rng.shuffle(names)
        self.queries = []
        for i in range(self.size["queries"]):
            name = names[i % len(names)]
            template = KEYWORD_TEMPLATES[i % len(KEYWORD_TEMPLATES)]
            self.queries.append((template % name, (name,)))

    def run(self, driver):
        peers = self.net.peers
        for i, (text, keywords) in enumerate(self.queries):
            driver.query(peers[i % NUM_PEERS], text, keywords)


class QueryDocphase(Workload):
    name = "query_docphase"
    why = (
        "structural queries for which every document is a candidate: the "
        "per-document matcher and tree walks do most of the work"
    )
    sizes = {
        "full": {"preload": 16, "queries": 100},
        "tiny": {"preload": 8, "queries": 10},
    }

    def setup(self):
        self.net = self.make_network()
        self.preload(self.size["preload"])
        self.queries = traffic_workload(
            self.size["queries"], seed=self.seed, with_keywords=False
        )

    def run(self, driver):
        peers = self.net.peers
        for i, (text, keywords) in enumerate(self.queries):
            driver.query(peers[i % NUM_PEERS], text, keywords)


class ServeChurn(Workload):
    name = "serve_churn"
    why = (
        "open-loop serving beside publishes and unpublishes, with views, LSM "
        "stores, Bloom reducers, least-loaded reads, admission and coalescing: "
        "a read-side gain paid for at write time shows as a loss"
    )
    config = {
        "use_views": True,
        "view_auto_materialize_after": 4,
        "store_backend": "lsm",
        "filter_strategy": "auto",
        "read_policy": "least_loaded",
        "rebalance_interval_s": 0.5,
        "max_inflight": 4,
        "coalesce_fetches": True,
    }
    RATE_QPS = 16.0
    SOURCES = 3
    POOL = 24
    sizes = {
        "full": {"preload": 32, "rounds": 4, "publish": 8, "unpublish": 4, "arrivals": 20},
        "tiny": {"preload": 16, "rounds": 2, "publish": 8, "unpublish": 2, "arrivals": 8},
    }

    def setup(self):
        self.net = self.make_network()
        size = self.size
        self.preload(size["preload"])
        self.round_docs = [self.documents(size["publish"]) for _ in range(size["rounds"])]
        profile = QueryTrafficProfile(
            "bench-serve",
            num_queries=size["arrivals"],
            distinct_patterns=self.POOL,
            zipf_skew=1.0,
            warmup_fraction=0.0,
        )
        self.round_arrivals = [
            open_loop_workload(
                profile,
                self.RATE_QPS,
                seed="%s:%d" % (self.seed, r),
                num_sources=self.SOURCES,
            )
            for r in range(size["rounds"])
        ]

    def run(self, driver):
        peers = self.net.peers
        for r, docs in enumerate(self.round_docs):
            driver.publish_batch(peers[r % NUM_PEERS], docs, self.uris(len(docs)))
            victims = self.rng.sample(self.live_documents(), self.size["unpublish"])
            for peer_index, doc_index in victims:
                driver.unpublish(peers[peer_index], doc_index)
            driver.serve(self.round_arrivals[r])


WORKLOADS = {w.name: w for w in (Ingest, QueryIndex, QueryDocphase, ServeChurn)}
