"""Entry point for a traced or memory-measured `rqclattice.cli` process.

    python3 bench/cli_entry.py --out FILE [--memory] -- <rqclattice.cli arguments>

Installs the span wrappers (or starts tracemalloc with `--memory`), runs
`rqclattice.cli.main` on the given arguments, restores the originals and
writes its readout as JSON to FILE.  Times are `time.perf_counter()` values,
which on Linux share the monotonic clock with the parent process.
"""

import json
import sys
import time
import tracemalloc


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    out_path = opts[opts.index("--out") + 1]
    memory = "--memory" in opts

    import rqclattice
    import rqclattice.cli

    t_imported = time.perf_counter()
    record = {"t_imported": t_imported}
    if memory:
        tracemalloc.start()
        t0 = time.perf_counter()
        code = rqclattice.cli.main(cli_args)
        t1 = time.perf_counter()
        record["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    else:
        from layers import TraceRecorder

        recorder = TraceRecorder(rqclattice)
        with recorder:
            t0 = time.perf_counter()
            code = rqclattice.cli.main(cli_args)
            t1 = time.perf_counter()
        record["readout"] = recorder.readout()
    record.update({"t_main_start": t0, "t_main_end": t1})
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    record_written = time.perf_counter()
    with open(out_path + ".done", "w") as fh:
        json.dump({"t_written": record_written}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
