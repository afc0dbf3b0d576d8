"""Run one icp-lab command in this interpreter, optionally timed or traced.

    python3 perfbench/cli_driver.py [--time-out FILE] [--trace-out FILE] <icp-lab arguments>

Without options this is the ``icp-lab`` console script run from the
checkout's sources. With --time-out, the command's wall time from the start
of this script (imports included) and the mean reference-loop time sampled
by a speed meter in this process while it ran are written to FILE as JSON.
The meter runs here, not in the parent, because a loop timed in the parent
beside a running child measures the two processes' contention, not the
machine's speed. With --trace-out, the tracer's wrappers are installed
before the command runs and its spans are written to FILE when it ends.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    options = {}
    while argv[:1] in (["--time-out"], ["--trace-out"]):
        options[argv[0]], argv = argv[1], argv[2:]
    time_out = options.get("--time-out")
    trace_out = options.get("--trace-out")
    meter = tracer = None
    if time_out is not None:
        import speed

        meter = speed.SpeedMeter().__enter__()
    try:
        import icp_lab.cli

        if trace_out is not None:
            import tracing

            tracer = tracing.Tracer(Path(trace_out).stem)
            tracer.install()
        return icp_lab.cli.main(argv)
    finally:
        seconds = time.perf_counter() - T0
        if meter is not None:
            meter.__exit__(None, None, None)
            timing = {"seconds": seconds, "loop_s": meter.loop_s(0, meter.count())}
            Path(time_out).write_text(json.dumps(timing), encoding="utf-8")
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
