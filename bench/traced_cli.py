"""Run the g2tori command line under the span recorder.

Used by the traced run of the ``cli`` workload in place of
``python -m g2tori.cli``: the arguments and exit code are the CLI's, and
the span totals and the time spent in ``cli.main`` go to standard error
as one ``BENCH-SPANS {json}`` line.
"""

import json
import sys
import time

from tracer import Recorder, cache_counters, install


def main() -> int:
    recorder = Recorder()
    install(recorder)
    from g2tori import cli

    start = time.perf_counter()
    code = cli.main(sys.argv[1:])
    command_s = time.perf_counter() - start
    data = {**recorder.export(), "caches": cache_counters(), "command_s": command_s}
    print("BENCH-SPANS " + json.dumps(data), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
