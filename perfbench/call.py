"""One repetition of a workload: a fresh interpreter that imports the CLI once
and runs each CLI call in a forked child.

    python3 perfbench/call.py PLAN_JSON TRACE RUN_ID

The interpreter is started by ``run.py`` with ``src/`` on PYTHONPATH.
It times ``import exitcert.cli`` (the set-up every CLI call pays), then,
for each call of PLAN_JSON in turn, forks a child that starts from that
freshly imported state, runs ``exitcert.cli.main(argv)`` and writes one
JSON object to the call's result file: the CLI exit code, the stage time
and the child's peak RSS.  The parent waits for each child before the
next, so the calls run one at a time, in order.  With TRACE set to 1 the
child first installs the layer wrappers of ``tracing.py`` and adds their
spans and counters to its result.

PLAN_JSON is ``{"setup_result": path, "fork": true, "calls": [{"argv":
[...], "result": path}, ...]}``; the import time goes to ``setup_result``.
With ``"fork": false`` the plan holds one call, which runs in the
interpreter itself, as ``exitcert`` runs it for a user: ``run.py`` takes
peak memory from such calls, because a forked child's RSS leaves out the
shared pages it never touches.
A line ``SETUP_DONE`` on standard error separates the import (and its
``-X importtime`` lines) from the calls.
"""

# only what the timed import needs: anything imported here would be
# loaded before t0 and leave its cost out of setup_s
import sys
import time

SETUP_DONE = "SETUP_DONE"


def run_one(cli, argv: list, result_path: str, trace: str, run_id: str) -> None:
    """One CLI call, in the forked child."""
    import json
    import resource
    import traceback

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer(run_id)
        tracer.install()

    root = tracer.begin("cli." + argv[0]) if tracer is not None else None
    error = None
    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # recorded as a failed call, never hidden
        code = None
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.end(root)

    result = {
        "exit_code": code,
        "error": error,
        "stage_s": t2 - t1,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def main() -> None:
    plan_path, trace, run_id = sys.argv[1:]

    t0 = time.perf_counter()
    import exitcert.cli as cli

    setup_s = time.perf_counter() - t0

    import json
    import os
    import traceback

    print(SETUP_DONE, file=sys.stderr, flush=True)
    with open(plan_path) as fh:
        plan = json.load(fh)
    with open(plan["setup_result"], "w") as fh:
        json.dump({"setup_s": setup_s}, fh)

    for call in plan["calls"]:
        if not plan["fork"]:
            run_one(cli, call["argv"], call["result"], trace, run_id)
            continue
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                run_one(cli, call["argv"], call["result"], trace, run_id)
                status = 0
            except BaseException:  # no result file: run.py counts the call as failed
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        os.waitpid(pid, 0)


if __name__ == "__main__":
    main()
