"""Figure 3: index-query response time vs. indexed volume, with/without DPP.

The paper evaluates ``//article//author//Ullman`` — chosen because
``author`` is the longest posting list in DBLP — on growing volumes of
indexed data.  Without the DPP the whole ``author`` list streams from a
single producer, so response time grows linearly with data size; with the
DPP the list is spread over peers and fetched with degree-K parallelism,
cutting response time by a factor of ~3 and flattening its growth.
"""

from repro.experiments.harness import DblpCorpus
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.sim.cost import CostParams

DESCRIPTION = "Figure 3: query response time with/without DPP"

PAPER_QUERY = "//article//author//Ullman"
PAPER_KEYWORDS = ("Ullman",)
#: the paper's x-axis, MB indexed
PAPER_SIZES_MB = (200, 400, 600, 800, 1000)


def scaled_cost(scale):
    """Cost parameters for a corpus scaled by ``scale``.

    The experiment's regime is bandwidth-dominated: the paper's ``author``
    list is megabytes, so its transfer time dwarfs hop latency.  When the
    corpus is scaled down, link bandwidth must scale with it to preserve
    the list-size/bandwidth ratio (otherwise latency dominates and every
    curve flattens into the noise).  The paper-size run (scale = 1) uses
    the default calibrated parameters.
    """
    base = CostParams()
    factor = min(1.0, max(scale, 1e-6))
    return CostParams(
        egress_bw=base.egress_bw * factor * 5,
        ingress_bw=base.ingress_bw * factor * 5,
        hop_latency_s=base.hop_latency_s,
    )


def run_variant(
    use_dpp,
    sizes_bytes,
    num_peers=50,
    publishers=10,
    doc_bytes=20_000,
    seed=0,
    dpp_block_entries=500,
    parallelism=8,
    cost=None,
):
    """Publish incrementally; at each checkpoint run the Figure 3 query.

    Returns ``[(indexed_bytes, index_time_s, answers)]``.
    """
    config = KadopConfig(
        use_dpp=use_dpp,
        dpp_block_entries=dpp_block_entries,
        parallelism=parallelism,
        replication=1,
        cost=cost or CostParams(),
    )
    net = KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)
    corpus = DblpCorpus(net, publishers, doc_bytes, seed)
    points = []
    for target in sorted(sizes_bytes):
        corpus.grow_to(target)
        answers, report = net.query_with_report(
            PAPER_QUERY, keyword_steps=PAPER_KEYWORDS
        )
        points.append((corpus.bytes, report.index_time_s, len(answers)))
    return points


def run(sizes_bytes=None, scale=0.001, num_peers=30, seed=0, **kwargs):
    """Both series: ``{"with DPP": [...], "without DPP": [...]}``."""
    if sizes_bytes is None:
        sizes_bytes = [int(mb * 1_000_000 * scale) for mb in PAPER_SIZES_MB]
    kwargs.setdefault("cost", scaled_cost(scale))
    return {
        "without DPP": run_variant(
            False, sizes_bytes, num_peers=num_peers, seed=seed, **kwargs
        ),
        "with DPP": run_variant(
            True, sizes_bytes, num_peers=num_peers, seed=seed, **kwargs
        ),
    }


def format_rows(results):
    lines = ["%-14s %16s %22s %8s" % ("Series", "indexed (MB)", "index query (s)", "answers")]
    for label, points in results.items():
        for nbytes, seconds, answers in points:
            lines.append(
                "%-14s %16.2f %22.4f %8d" % (label, nbytes / 1e6, seconds, answers)
            )
    return "\n".join(lines)


def check_shape(results, min_speedup=2.0):
    """Figure 3's qualitative claims."""
    without = results["without DPP"]
    with_dpp = results["with DPP"]

    # identical answers (the DPP is purely a performance structure)
    assert [p[2] for p in without] == [p[2] for p in with_dpp]

    # DPP cuts the largest-volume query time by the paper's factor (~3)
    assert without[-1][1] > min_speedup * with_dpp[-1][1], (
        "DPP speedup %.2f below %.1f"
        % (without[-1][1] / max(with_dpp[-1][1], 1e-9), min_speedup)
    )

    # growth: without DPP grows steeply with volume; with DPP much slower
    growth_without = without[-1][1] - without[0][1]
    growth_with = with_dpp[-1][1] - with_dpp[0][1]
    assert growth_with < growth_without / (min_speedup * 0.8)
