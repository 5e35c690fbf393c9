"""The opdk benchmark: run one workload, check every answer, print metrics.

    python3 benchmarks/run.py --workload integer_operads --seed 1 \
        --seconds 30 --trace 0

Set-up (import of ``opdk`` from ``src/`` plus building the workload's
inputs) is repeated SETUPS times and its median reported as ``setup_s``.
Then whole passes over the workload's cases run until the next one would
end past ``--seconds`` (at least one pass); ``wall_s`` is the median pass
time.  Both are seconds at the machine's reference speed (``speed.py``);
the raw wall times go to the run's record beside them.  With ``--trace 1``
one untraced pass is followed by traced passes, and the per-layer metrics
(medians over the traced passes) are reported together with the traced
and untraced pass times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(run environment, per-case outcomes, raw and scaled times and, when
tracing, the spans of the first traced pass) goes to
``benchmarks/results/BENCH_<workload>[.trace].json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUPS = 5

sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (the benchmark's own modules)
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_WALL = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
              "trace.overhead": "ratio"}


def _purge_opdk():
    for name in [n for n in sys.modules if n == "opdk" or n.startswith("opdk.")]:
        del sys.modules[name]


def setup(workload: str):
    """Import opdk afresh and build the inputs SETUPS times; the last build
    is the one the passes use.  Returns (raw, scaled) seconds per set-up."""
    times = []
    for _ in range(SETUPS):
        _purge_opdk()
        gc.collect()
        with speed.Sampler() as sampler:
            o, cases = workloads.build(workload)
        times.append(sampler.times())
    return o, cases, times


def run_pass(cases, log):
    """Run every case once; (sampler, failed, wrong).  Case times in the
    log exclude the speed slices taken during the case."""
    failed = wrong = 0
    gc.collect()
    with speed.Sampler() as sampler:
        for case in cases:
            n = len(sampler.slices)
            c0 = time.perf_counter()
            try:
                problems = case.check(case.run())
                error = None
            except Exception:  # a case that raises is counted, the run goes on
                problems, error = [], traceback.format_exc(limit=3)
            dt = time.perf_counter() - c0 - sampler.slice_time(n)
            if error or problems:
                failed += 1
                wrong += bool(problems)
            log.append({"case": case.name, "s": dt, "problems": problems,
                        "error": error})
    return sampler, failed, wrong


def environment(o):
    return {"backend": o.kernel.BACKEND, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def _median(times, k):
    return statistics.median(t[k] for t in times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    # recorded only: every workload's inputs are fixed (see workloads.py)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "opdk" / "__init__.py").is_file():
        print(f"no opdk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    o, cases, setups = setup(args.workload)
    if Path(o.exactlin.__file__).resolve().parent != SRC / "opdk":
        print(f"opdk imported from {o.exactlin.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    attempted = failed = wrong = 0
    log, untraced, traced, layer_runs = [], [], [], []
    tracer = tracing.Tracer() if args.trace else None
    spans = None
    start = time.perf_counter()
    while True:
        on = tracer is not None and bool(untraced)
        if on:
            tracer.reset()
            tracer.install()
        try:
            sampler, f, w = run_pass(cases, log)
        finally:
            if on:
                tracer.restore()
        times = sampler.times()
        (traced if on else untraced).append(times)
        attempted += len(cases)
        failed += f
        wrong += w
        if on:
            layer_runs.append(tracer.metrics(pauses=sampler.slices[1:-1]))
            if spans is None:
                spans = tracer.spans
        elapsed = time.perf_counter() - start
        if (tracer is None or traced) and elapsed + times[0] > args.seconds:
            break

    raw = {"wall_s": _median(untraced, 0), "setup_s": _median(setups, 0)}
    if tracer is None:
        values = {"wall_s": _median(untraced, 1),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "setup_s": _median(setups, 1)}
        units = END_TO_END
    else:
        units = dict(tracing.metric_names())
        values = {k: statistics.median(run[k] for run in layer_runs)
                  for k in units}
        wall, base = _median(traced, 1), _median(untraced, 1)
        values.update({"trace.wall_s": wall, "trace.untraced_wall_s": base,
                       "trace.overhead": wall / base - 1})
        units = {**units, **TRACE_WALL}
        raw["trace.wall_s"] = _median(traced, 0)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    env = environment(o)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "raw": raw,
              "time_fields": ["raw s", "s at reference speed"],
              "setup": setups, "untraced_passes": untraced,
              "traced_passes": traced, "cases": log, **result}
    if spans is not None:
        record["span_fields"] = ["name", "start", "end", "parent"]
        record["spans"] = spans
    RESULTS.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    (RESULTS / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(record, default=str))
    print(json.dumps({"environment": env, "raw": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
