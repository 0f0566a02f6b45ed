"""Bootstrap for traced cli-mix children.

    python3 perfbench/cli_boot.py TRACE_OUT <gsp4hodge arguments...>

Imports ``gsp4hodge.cli``, installs the benchmark's wrappers in every
module namespace, runs ``gsp4hodge.cli.main`` on the remaining arguments
and writes the aggregated spans to TRACE_OUT, also when main raises.
"""

import json
import sys
import time

import tracer  # perfbench/ is sys.path[0] when run as a script


def boot():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import gsp4hodge.cli

    import_s = time.perf_counter() - t0
    tr = tracer.Tracer()
    tr.install()
    t1 = time.perf_counter()
    try:
        code = gsp4hodge.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        sys.stdout.flush()
        tr.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "main_s": main_s, "trace": tr.snapshot()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(boot())
