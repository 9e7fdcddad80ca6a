"""Run one workload once in a fresh process and report its peak memory.

Usage: python3 perfbench/rss_child.py <workload> <seed>

Prints one JSON line with the serialized report, its sha256 and the peak
resident set size of this process in KiB (`ru_maxrss` on Linux).
"""
import json
import resource
import sys

import harness


def main(argv):
    name, seed = argv[1], int(argv[2])
    result = harness.run_once(harness.WORKLOADS[name].scenario_text(seed))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"text": result.text, "digest": result.digest,
                      "peak_rss_kib": peak_kib}))


if __name__ == "__main__":
    main(sys.argv)
