"""One benchmark pass in a fresh interpreter.

Usage: ``python3 child.py <src-dir>`` with a JSON job on stdin::

    {"commands": [[argv...], ...], "trace": false, "pass_id": 0, "spans": null}

The process imports ``runvec.cli`` from ``<src-dir>`` first and notes
the monotonic clock right after, so the parent can time set-up from its
own spawn.  Each command then runs in-process through
``runvec.cli.main(argv)`` with stdout and stderr captured.  With
``trace`` set, spans are recorded around the layer functions and
written to the ``spans`` path when the pass ends.  The result is one
JSON object on stdout.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import runvec.cli  # noqa: E402

IMPORTED = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import runvec.lemmalab  # noqa: E402  (runvec.cli has loaded these three)
import runvec.search  # noqa: E402
import runvec.seqcore  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402


def run_command(argv):
    """Exit code, stdout, stderr and seconds of one ``cli.main`` call,
    with the exit code and traceback the console script would give."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = runvec.cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return [code, out.getvalue(), err.getvalue(), time.perf_counter() - t0]


def main():
    job = json.load(sys.stdin)
    recorder = None
    if job["trace"]:
        import spans

        recorder = spans.Recorder(job["pass_id"])
        spans.install(
            recorder,
            {
                "seqcore": runvec.seqcore,
                "lemmalab": runvec.lemmalab,
                "search": runvec.search,
                "cli": runvec.cli,
            },
        )
    results = [run_command(argv) for argv in job["commands"]]
    finished = time.monotonic()
    cache = runvec.lemmalab.balanced_run_tuples.cache_info()
    if recorder is not None:
        recorder.dump(job["spans"])
    json.dump(
        {
            "imported": IMPORTED,
            "finished": finished,
            "results": results,
            "cache": {"hits": cache.hits, "misses": cache.misses},
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
