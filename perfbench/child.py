"""One benchmark operation in its own process.

    python3 child.py MODE SRC_DIR [CLI ARGS...]

MODE is `import` (set-up only), `run` (call `hardysim.cli.main`) or `trace`
(the same call with layer spans).  The moment `hardysim.cli` has been
imported is taken first, so the parent can time set-up from spawn to import.
Prints one JSON object on stdout.
"""

import time

import hardysim.cli as cli

T_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import io  # noqa: E402  (imports after the set-up timestamp)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def cpu_seconds() -> float:
    """User plus system CPU time of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    mode, src_dir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    expected = os.path.join(os.path.realpath(src_dir), "hardysim", "")
    if not os.path.realpath(cli.__file__).startswith(expected):
        print(f"hardysim imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 2
    result = {"t_ready": T_READY}
    if mode in ("run", "trace"):
        entry, tracer = cli.main, None
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install()
            entry = tracer.wrap(cli.main, "cli.main", "cli")
        out = io.StringIO()
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            rc = entry(argv, out=out)
        except Exception:  # reported to the parent as a failed operation
            rc = None
            traceback.print_exc()
        result["run_s"] = time.perf_counter() - start
        result["cpu_s"] = cpu_seconds() - cpu_start
        result["rc"] = rc
        result["output"] = out.getvalue()
        if tracer is not None:
            result["trace"] = tracer.summary()
    elif mode != "import":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
