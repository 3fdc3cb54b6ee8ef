"""One cold `twistlab <verb> '<json>'` invocation, for the cli-cold workload.

    PYTHONPATH=src python3 perfbench/child.py <verb> '<json>'

Runs twistlab.cli.main as the console script does and writes, as the last
line of stderr, MARKER and a JSON object with the import time, the peak
RSS and, when PERFBENCH_TRACE is set, the trace of the call (the tracer is
installed after `import twistlab.cli`).  SIGTERM (the parent's timeout)
unwinds the open spans before that line is written.
"""

import json
import os
import resource
import signal
import sys
import time

MARKER = "perfbench-child "


class Terminated(BaseException):
    pass


def _terminate(signum, frame):
    raise Terminated()


def main() -> int:
    t0 = time.perf_counter()
    import twistlab.cli

    import_s = time.perf_counter() - t0
    tr = None
    if os.environ.get("PERFBENCH_TRACE"):
        from tracer import Tracer

        tr = Tracer()
        tr.install()
        tr.begin_entry(int(os.environ["PERFBENCH_ENTRY"]), os.environ["PERFBENCH_BAND"] or None)
    signal.signal(signal.SIGTERM, _terminate)
    code = 143
    try:
        code = twistlab.cli.main(sys.argv[1:])
    except Terminated:
        pass
    finally:
        sys.stdout.flush()
        payload = {"import_s": import_s,
                   "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   "trace": tr.export() if tr else None}
        sys.stderr.write("\n" + MARKER + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
