"""Run depgap CLI commands in one fresh interpreter, as a shell user would.

Usage: python bench/launch.py JOBS.json RESULTS.json

JOBS.json holds a list of argv lists. Each one goes through
depgap.cli.main, exactly like the `depgap` console script. RESULTS.json
receives the time `import depgap.cli` took and, for every command, its exit
code and standard output. The package is imported from the PYTHONPATH the
caller sets, so the checkout's own src/ is measured.
"""

import contextlib
import io
import json
import sys
import time


def main(jobs_path, results_path):
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    t0 = time.perf_counter()
    import depgap.cli

    import_s = time.perf_counter() - t0
    calls = []
    for argv in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = depgap.cli.main(argv)
        calls.append({"rc": rc, "stdout": out.getvalue()})
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "calls": calls}, fh)
    return 0 if all(c["rc"] == 0 for c in calls) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
