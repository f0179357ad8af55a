"""Figure 2: indexing time vs. total published data.

Paper series (x = total MB published, y = total publishing minutes):

* 1 publisher, 200 peers
* 1 publisher, 500 peers            (≈ same: locate() costs are small)
* 1 publisher, 500 peers, with DPP  (≈ same: splits have moderate cost)
* 25 publishers, 500 peers          (divides time ~25x)
* 50 publishers, 500 peers          (divides time ~50x)

All series are linear in the published volume (the B+-tree store makes
publication linear).  We run the same protocol on the scaled-down corpus
(the ``scale`` parameter controls the fraction of the paper's 250–1000 MB
x-axis actually published; simulated minutes are reported for the volume
actually indexed).
"""

from dataclasses import dataclass

from repro.experiments.harness import DblpCorpus
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork

DESCRIPTION = "Figure 2: indexing time vs. published volume"

#: the paper's x-axis, in MB
PAPER_SIZES_MB = (250, 500, 750, 1000)


@dataclass(frozen=True)
class Series:
    label: str
    peers: int
    publishers: int
    use_dpp: bool


SERIES = (
    Series("1 publisher, 200 peers", 200, 1, False),
    Series("1 publisher, 500 peers", 500, 1, False),
    Series("1 publisher, 500 peers (with DPP)", 500, 1, True),
    Series("25 publishers, 500 peers", 500, 25, False),
    Series("50 publishers, 500 peers", 500, 50, False),
)


def run_series(series, sizes_bytes, doc_bytes=20_000, seed=0, peer_scale=1.0):
    """Publish incrementally, checkpointing cumulative simulated time.

    Returns ``[(published_bytes, minutes)]`` for each requested size.
    Publishers work in parallel: total time is the busiest publisher's
    cumulative pipeline time (documents are split evenly, as in the paper).
    """
    peers = max(series.publishers, int(series.peers * peer_scale))
    config = KadopConfig(
        use_dpp=series.use_dpp,
        replication=1,
        dpp_block_entries=2000,
    )
    net = KadopNetwork.create(num_peers=peers, config=config, seed=seed)
    corpus = DblpCorpus(net, series.publishers, doc_bytes, seed)
    per_publisher = [0.0] * series.publishers
    checkpoints = []
    for target in sorted(sizes_bytes):
        first = corpus.docs
        for doc, receipt in enumerate(corpus.grow_to(target), first):
            per_publisher[doc % series.publishers] += receipt.duration_s
        checkpoints.append((corpus.bytes, max(per_publisher) / 60.0))
    return checkpoints


def run(sizes_bytes=None, scale=0.0005, seed=0, peer_scale=0.1, series=SERIES):
    """The full Figure 2: ``{label: [(bytes, minutes)]}``.

    ``scale`` shrinks the paper's 250–1000 MB x-axis; ``peer_scale``
    shrinks the network (200/500 peers) proportionally.
    """
    if sizes_bytes is None:
        sizes_bytes = [int(mb * 1_000_000 * scale) for mb in PAPER_SIZES_MB]
    return {
        s.label: run_series(s, sizes_bytes, seed=seed, peer_scale=peer_scale)
        for s in series
    }


def format_rows(results):
    lines = ["%-40s %14s %16s" % ("Series", "published (MB)", "sim. minutes")]
    for label, points in results.items():
        for nbytes, minutes in points:
            lines.append(
                "%-40s %14.2f %16.2f" % (label, nbytes / 1e6, minutes)
            )
    return "\n".join(lines)


def check_shape(results):
    """The qualitative claims of Figure 2; raises AssertionError if broken."""
    one_200 = dict(results["1 publisher, 200 peers"])
    one_500 = dict(results["1 publisher, 500 peers"])
    dpp = results["1 publisher, 500 peers (with DPP)"]
    p25 = results["25 publishers, 500 peers"]
    p50 = results["50 publishers, 500 peers"]

    # linear scaling: time per byte roughly constant across checkpoints
    # (checked on single-publisher series; multi-publisher runs at reduced
    # scale may leave publishers with single documents between checkpoints)
    for label, points in results.items():
        if not label.startswith("1 publisher"):
            continue
        rates = [minutes / nbytes for nbytes, minutes in points]
        assert max(rates) < 1.6 * min(rates), "publishing is not linear"

    # network size: 200 vs 500 peers within a small factor
    for (b2, m2), (b5, m5) in zip(
        sorted(one_200.items()), sorted(one_500.items())
    ):
        assert m5 < 1.7 * m2, "locate() overhead should be small"

    # DPP overhead negligible
    for (b, m_dpp), (b5, m5) in zip(dpp, sorted(one_500.items())):
        assert m_dpp < 1.5 * m5, "DPP split overhead should be moderate"

    # many publishers drastically cut indexing time
    last_one = sorted(one_500.items())[-1][1]
    assert p25[-1][1] < last_one / 6
    assert p50[-1][1] < last_one / 10
    assert p50[-1][1] <= p25[-1][1] * 1.05
