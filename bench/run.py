"""pellrat benchmark: timed passes of fixed `pellrat` commands, checked output.

    python3 bench/run.py --workload m1_classno --seed 1 --seconds 30 --trace 0

One process runs the workload's commands through `pellrat.cli.entrypoint`
as a closed loop: one caller, `--jobs 1`, whole passes back to back for
at most ``--seconds`` (at least one pass).  The seed only shuffles the order of the
commands in each pass.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics:

- setup_s: median wall time of fresh interpreters that import pellrat.cli
  and build its parser, launched between passes across the run;
- pass_s: median wall time of one pass over the workload's commands;
- peak_rss_mb: peak resident memory of this process, read after the passes
  and before the check code (and sympy) is loaded.

With ``--trace 1`` the passes run with spans around each layer's public
functions and the JSON carries the per-layer metrics (medians over passes).
Every pass's output is checked after the timed passes; a row or `gseq` call
that fails a check is a failed operation.  Details of the run go to
bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_LAUNCHES = 15
SETUP_CODE = "from pellrat import cli; cli.build_parser()"
LAUNCH_TIMEOUT_S = 60

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


def launch(cmd: list[str], env: dict[str, str]) -> float:
    """Wall time of one child process; a child still running after
    LAUNCH_TIMEOUT_S is killed.

    The wait blocks until the child exits.  `subprocess.run(timeout=...)`
    polls instead, with sleeps of up to 50 ms, which rounds every time up
    to its next poll.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{cmd} exited with {code}")
    return elapsed


class SetupProbe:
    """Fresh interpreters that import pellrat.cli, timed between passes.

    The first launch writes bytecode and is not kept.  `catch_up(share)`
    launches until `share` of SETUP_LAUNCHES have run, so the launches
    spread over the run instead of sampling only its first seconds.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        self.times: list[float] = []
        launch(self.cmd, self.env)

    def catch_up(self, share: float):
        while len(self.times) < SETUP_LAUNCHES * min(share, 1.0):
            self.times.append(launch(self.cmd, self.env))


def run_command(cli, argv) -> tuple[object, str]:
    """(exit code, stdout) of one in-process `pellrat` call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.entrypoint(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_passes(cli, commands, seed: int, seconds: float, tracer=None,
               probe: SetupProbe | None = None) -> list[dict]:
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while True:
        order = list(range(len(commands)))
        rng.shuffle(order)
        results = [None] * len(commands)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        for i in order:
            results[i] = run_command(cli, commands[i].argv)
        elapsed = time.perf_counter() - t0
        if passes and results == passes[0]["results"]:
            results = passes[0]["results"]  # hold one copy, whatever the pass count
        passes.append({"s": elapsed, "results": results,
                       "layers": tracer.metrics() if tracer is not None else None})
        if probe is not None:
            probe.catch_up((time.perf_counter() - start) / seconds if seconds else 1.0)
        # start no pass that the passes so far say would end past the deadline
        typical = statistics.median(p["s"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pellrat" / "cli.py").is_file():
        print(f"error: no pellrat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload]

    from pellrat import cli
    if Path(cli.__file__).resolve().parent != SRC / "pellrat":
        print(f"error: pellrat imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    metrics: dict[str, float] = {}
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        import spans
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            passes = run_passes(cli, commands, args.seed, args.seconds, tracer)
        finally:
            uninstall()
        for name, unit, _ in spans.PER_LAYER:
            per_pass = [p["layers"][name] for p in passes]
            # counts repeat exactly from pass to pass; keep them whole numbers
            median = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = median(per_pass)
        details["layers_per_pass"] = [p["layers"] for p in passes]
    else:
        probe = SetupProbe()
        passes = run_passes(cli, commands, args.seed, args.seconds, probe=probe)
        probe.catch_up(1.0)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"setup_s": statistics.median(probe.times),
                   "pass_s": statistics.median(p["s"] for p in passes),
                   "peak_rss_mb": peak_kb / 1024}
        details["setup_s_each"] = probe.times
    pass_times = [p["s"] for p in passes]

    import checks
    checker = checks.Checker()
    failed = 0
    problems: list[str] = []
    for p in passes:
        n_failed, probs = checker.check_pass(commands, p["results"])
        failed += n_failed
        problems += probs
    # the program is deterministic: every pass must print what the first printed
    correct = all(p["results"] == passes[0]["results"] for p in passes)
    attempted = len(passes) * sum(cmd.operations for cmd in commands)

    details.update(pass_s_each=pass_times, attempted=attempted, failed=failed,
                   correct=correct, problems=problems[:50], metrics=metrics)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out_file.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, pass_s median "
          f"{statistics.median(pass_times):.4f} (min {min(pass_times):.4f}, "
          f"max {max(pass_times):.4f}), trace={args.trace}", file=sys.stderr)

    units = dict(END_TO_END) if not args.trace else {
        name: unit for name, unit, _ in spans.PER_LAYER}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
