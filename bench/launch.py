"""Traced `wstate` command for the cli workload's traced run.

Usage: python launch.py STATS_JSON <wstate arguments...>

Times the import of wstate.cli, installs the span recorder, runs the command
as `wstate` would, and writes the import time, the command time and the
per-layer totals to STATS_JSON. The exit code is the command's.
"""

import json
import os
import sys
import time


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import wstate.cli

    t1 = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import Recorder

    rec = Recorder()
    rec.install()
    code = 1
    t2 = time.perf_counter()
    try:
        wstate.cli.main.main(args=argv, prog_name="wstate")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        t3 = time.perf_counter()
        with open(stats_path, "w") as fh:
            json.dump({"import_s": t1 - t0, "command_s": t3 - t2, "layers": rec.stats}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
