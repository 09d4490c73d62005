"""One benchmark experiment: a fresh process that runs ``dcl.cli.main(argv)``.

Usage: ``python3 perfbench/worker.py RESULT_JSON TRACE(0|1) -- DCL_ARGV...``

Set-up is the time from just after this script's own standard-library
imports to the return of ``dcl.cli.parse_invocation``, which covers importing
``dcl`` and parsing the invocation. Run time is from that return until
``main`` has written the report. Peak RSS is read next, and then the speed
probe runs, so the probe's own memory and time stay out of both.
"""

import json
import resource
import sys
import time

_T0 = time.perf_counter()


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter-bound and small-numpy work.

    It resembles the package's hot paths: a union-find loop over Python
    lists, SHA-256 stream keys and tiny numpy calls. Timed in the same
    process right after the experiment, it shows how fast the machine ran
    at that moment.
    """
    import hashlib
    import random

    import numpy as np

    draw = random.Random(20010327)
    sites = 20000
    edges = [(draw.randrange(sites), draw.randrange(sites)) for _ in range(30000)]
    start = time.perf_counter()
    for _ in range(2):
        parent = list(range(sites))
        for a, b in edges:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[b] = a
        for i in range(1500):
            key = hashlib.sha256(i.to_bytes(8, "little")).digest()
            rng = np.random.Generator(np.random.PCG64(int.from_bytes(key[:16], "little")))
            np.unique(rng.random(9) < 0.3, return_index=True)
    return time.perf_counter() - start


def main() -> int:
    result_path, trace_flag, sep, *argv = sys.argv[1:]
    if sep != "--" or trace_flag not in ("0", "1"):
        print("usage: worker.py RESULT_JSON TRACE(0|1) -- DCL_ARGV...", file=sys.stderr)
        return 2

    import dcl.cli

    tracer = None
    if trace_flag == "1":
        from spans import Tracer, layer_totals

        tracer = Tracer()
        tracer.install()

    marks: dict[str, float] = {}
    parse = dcl.cli.parse_invocation

    def timed_parse(args):
        invocation = parse(args)
        marks["parsed"] = time.perf_counter()
        return invocation

    dcl.cli.parse_invocation = timed_parse
    status = dcl.cli.main(argv)
    end = time.perf_counter()

    result = {
        "status": status,
        "setup_s": marks["parsed"] - _T0 if "parsed" in marks else None,
        "run_s": end - marks["parsed"] if "parsed" in marks else None,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_totals(tracer.spans)
    result["probe_s"] = speed_probe()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
