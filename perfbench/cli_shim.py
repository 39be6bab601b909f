"""Runs one fatrec command under the benchmark's tracer (traced run only).

    python3 perfbench/cli_shim.py RECORD_PATH -- FATREC_ARGS...

stdout and the exit code are those of ``fatrec FATREC_ARGS``; the tracer's
counts, self times and spans, plus the import time of ``fatrec.cli``, are
written as JSON to RECORD_PATH.
"""

import json
import sys
import time


def main() -> int:
    record_path, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_shim.py RECORD_PATH -- FATREC_ARGS...")
    t0 = time.perf_counter()
    import fatrec.cli
    import_s = time.perf_counter() - t0

    import tracer
    tr = tracer.Tracer()
    tracer.install(tr)
    tr.times["cli.import_s"] = import_s
    try:
        code = tr.job(0, "cli.main", lambda: fatrec.cli.main(args), layer="cli")
    finally:
        sys.stdout.flush()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(tr.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
