"""Section 4.3, traffic consumption.

The paper runs 50 data-intensive queries (each involving at least one long
posting list) from 50 distinct nodes within 5 minutes, over 200/400/600/
800 MB of indexed DBLP data, and reports total traffic of 32/66/95/127 MB —
linear in the indexed volume, which is the observation motivating the
Bloom filter work of Section 5.
"""

from repro.experiments.harness import DblpCorpus
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.workloads.queries import traffic_workload

DESCRIPTION = "Section 4.3: traffic of the 50-query workload"

PAPER_SIZES_MB = (200, 400, 600, 800)
PAPER_TRAFFIC_MB = (32, 66, 95, 127)


def run(
    sizes_bytes=None,
    scale=0.0003,
    num_peers=20,
    num_queries=50,
    publishers=10,
    doc_bytes=20_000,
    seed=0,
    tracer=None,
):
    """Returns ``[(indexed_bytes, traffic_bytes)]``.

    The same network grows between checkpoints; at each checkpoint the 50-
    query workload is submitted from 50 distinct nodes and the index-query
    traffic (postings + control) is measured.

    Pass a :class:`repro.obs.Tracer` to record every workload query as
    simulated-time spans — ``repro trace traffic`` uses this to break the
    reported traffic totals down by phase.  Tracing is observational only;
    the measured points are identical either way.
    """
    if sizes_bytes is None:
        sizes_bytes = [int(mb * 1_000_000 * scale) for mb in PAPER_SIZES_MB]
    config = KadopConfig(replication=1)
    net = KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)
    if tracer is not None:
        net.enable_tracing(tracer)
    corpus = DblpCorpus(net, publishers, doc_bytes, seed)
    workload = traffic_workload(num_queries, seed=seed)
    points = []
    for target in sorted(sizes_bytes):
        corpus.grow_to(target)
        snapshot = net.meter.snapshot()
        for i, (query, keywords) in enumerate(workload):
            src = net.peers[i % len(net.peers)]
            net.query(query, keyword_steps=keywords, peer=src)
        delta = net.meter.delta_since(snapshot)
        traffic = sum(delta.values())
        points.append((corpus.bytes, traffic))
    return points


def format_rows(points):
    lines = ["%16s %18s" % ("indexed (MB)", "traffic (MB)")]
    for nbytes, traffic in points:
        lines.append("%16.2f %18.3f" % (nbytes / 1e6, traffic / 1e6))
    return "\n".join(lines)


def check_shape(points):
    """Traffic grows roughly linearly with the indexed volume."""
    assert all(t > 0 for _, t in points)
    ratios = [t / b for b, t in points]
    assert max(ratios) < 2.0 * min(ratios), "traffic is not roughly linear"
    # strictly increasing
    volumes = [t for _, t in points]
    assert volumes == sorted(volumes)
