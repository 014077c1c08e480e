"""``python -m catslab.cli`` with spans: the traced CLI child of ``cli_mix``.

Installs the tracer, runs ``catslab.cli.main`` on the given arguments and
appends one ``PERFBENCH_TRACE {json}`` line to stderr with the spans, their
aggregate and the wall-clock time at which ``main`` was entered; stdout is
left exactly as the CLI wrote it.
"""

import json
import sys
import time

from tracer import Tracer

TRACE_MARK = "PERFBENCH_TRACE "

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    from catslab import cli

    main_entry = time.time()
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    record = {
        "main_entry_epoch": main_entry,
        "aggregate": tracer.aggregate(),
        "counters": dict(tracer.counters),
        "spans": [list(span) for span in tracer.spans],
    }
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(record) + "\n")
    sys.exit(code)
