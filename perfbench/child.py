"""Run the ``repro`` CLI with layer spans recorded.

    python perfbench/child.py SPANS_JSON OP -- <repro CLI arguments>

The traced twin of ``python -m repro <arguments>``: the same CLI entry
point, with the layer entry points wrapped (see :mod:`tracing`).  When
the CLI returns — for ``serve``, after its SIGTERM drain — the spans,
the batching counters and the plan-cache counters go to ``SPANS_JSON``.
"""

from __future__ import annotations

import sys
import time

START = time.perf_counter()

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    spans_path, op, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.set_op(int(op))

    def load():
        import repro.cli

        return repro.cli

    cli = tracer.span("cli.import", load)
    install(tracer, ("core", "serve") if argv[0] == "serve" else ("core",))
    rc = tracer.span("cli.main", cli.main, argv)
    end = time.perf_counter()

    from repro import profiling
    from repro.analysis import plan_cache

    stats = profiling.batching_stats()
    cache = plan_cache()
    tracer.dump(spans_path, {
        "start": START,
        "end": end,
        "batching": {k: v for k, v in vars(stats).items()
                     if isinstance(v, (int, float))},
        "plan_cache": {"hits": cache.hits, "misses": cache.misses},
    })
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
