"""Run one CLI invocation in a fresh interpreter and record its timings.

    python3 perfbench/child.py RECORD TRACE VERB [ARGS...]

The CLI writes to this process's stdout as it would when run as
``python3 -m mvlab.cli``. RECORD receives one JSON object: the monotonic
clock once mvlab is imported (the parent compares it with the time it
spawned this process) and at entry to and exit from ``mvlab.cli.main``,
the host speed samples taken around and during the call and what those
taken during it cost (speed.py), the exit code,
the peak RSS (VmHWM: ru_maxrss would include the parent's RSS at
fork), where ``mvlab`` was imported from, and with TRACE=1 the
per-layer report of tracer.Tracer.
"""

import sys
import time

t_import = time.perf_counter()
import mvlab.cli  # noqa: E402

import_s = time.perf_counter() - t_import


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    ready = time.perf_counter()
    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import speed

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # a traced case is sampled only at its edges, to keep samples out of spans
    with speed.Sampler(during=not traced) as sampler:
        enter = time.perf_counter()
        code = mvlab.cli.main(argv)
        sys.stdout.flush()
        leave = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()

    import json

    record = {
        "ready": ready,
        "enter": enter,
        "exit": leave,
        "import_s": import_s,
        "probe_s": sampler.mean_s(),
        "probe_before_s": sampler.before_s(),
        "probes": len(sampler.samples),
        "sampled_s": sampler.inside_s,
        "code": code,
        "rss_kb": peak_rss_kb(),
        "mvlab_file": mvlab.__file__,
        "kernel": mvlab.ACTIVE_KERNEL,
    }
    if tracer is not None:
        record["trace"] = tracer.report()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


main()
