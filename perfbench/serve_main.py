"""Start `gfs serve` through gfstore.cli.main, optionally traced.

    python3 perfbench/serve_main.py STORE SOCKET [--trace-out PATH]

Traced and untraced servers start through this same entry point, so the
process topology is identical.  With --trace-out, the span wrappers are
installed before the server starts, and after SIGINT stops it the per-layer
metrics and the duration of every handled request are written to PATH.
"""

import argparse
import json
import signal
import sys

from gfstore import cli


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("store")
    p.add_argument("socket")
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)
    # SIGINT stops the server.  A process started in the background by a
    # shell inherits SIGINT ignored, and Python then leaves it ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.trace_out is None:
        return cli.main(["serve", args.store, "--socket", args.socket])

    import tracing

    serve = cli.main  # the entry point itself is not traced: its self time is idle waiting
    with tracing.Tracer() as tr:
        tracing.install(tr)
        rc = serve(["serve", args.store, "--socket", args.socket])
    dump = {
        "layers": tracing.layer_metrics(tr),
        "handle_line": tr.durations("service.handle_line."),
    }
    with open(args.trace_out, "w") as fh:
        json.dump(dump, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
