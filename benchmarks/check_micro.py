"""Regression gate over BENCH_micro.json: vectorized kernels must win.

``make bench-micro`` writes BENCH_micro.json; this script then asserts
that the numpy kernel backend beats the pure backend by at least the
ratio ``GATED`` names for each gated kernel bench (codec decode, the
two-list union, sorted concatenation, the Bloom filter batch, the
Descendant-filter build and probe, and one document peer's 70 answers
sized in one call).  Run it with
``make check-micro`` or ``python benchmarks/check_micro.py [path]``.

When the JSON carries no ``[numpy]`` rows (a pure-only environment) the
gate is skipped with exit code 0 — the equivalence tests still run; only
the speedup claim needs numpy.
"""

import json
import sys

#: gated bench -> the smallest pure/numpy mean ratio it may show.  The twig
#: join's kernels are not gated: at query_docphase's sizes numpy wins by
#: about 1.9x (test_kernel_expand_below) and 1.5x (test_kernel_semijoin_below),
#: and calls below the backend's cut-over run the pure loop on both sides
GATED = {
    "test_kernel_codec_decode": 2.0,
    "test_kernel_merge": 2.0,
    "test_kernel_concat_sorted": 2.0,
    "test_kernel_bloom_batch": 2.0,
    "test_kernel_dbf_probe": 1.5,
    "test_kernel_dbf_build": 2.0,
    "test_kernel_encoded_sizes_70x210": 2.0,
}


def main(path="BENCH_micro.json"):
    with open(path) as handle:
        report = json.load(handle)
    means = {b["name"]: b["stats"]["mean"] for b in report["benchmarks"]}
    if not any(name.endswith("[numpy]") for name in means):
        print("check_micro: no [numpy] benches in %s; gate skipped" % path)
        return 0
    failures = []
    for base, min_speedup in GATED.items():
        pure = means.get("%s[pure]" % base)
        fast = means.get("%s[numpy]" % base)
        if pure is None or fast is None:
            failures.append("%s: missing [pure]/[numpy] rows" % base)
            continue
        speedup = pure / fast
        status = "ok" if speedup >= min_speedup else "FAIL"
        print(
            "check_micro: %-28s pure %8.4fms  numpy %8.4fms  %5.1fx  %s"
            % (base, pure * 1e3, fast * 1e3, speedup, status)
        )
        if speedup < min_speedup:
            failures.append(
                "%s: %.2fx < %.1fx required" % (base, speedup, min_speedup)
            )
    if failures:
        print("check_micro: FAILED")
        for line in failures:
            print("  " + line)
        return 1
    print("check_micro: every gated kernel at or above its minimum speed-up")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
