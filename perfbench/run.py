"""carp's benchmark: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload photo-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; carp is imported from its ``src/``.  The
run generates its inputs from ``--seed``, writes them as files and reads
them back through ``carp.load``.  All work happens in this process on one
thread (BLAS thread pools are pinned to one thread), except set-up and
the memory probe, which run in fresh child interpreters so that their
numbers include nothing this process did.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: median over fresh interpreters of ``import carp`` plus
  ``carp.load`` and ``carp.pad`` of the workload's inputs;
* ``encode_mpix_s`` / ``decode_mpix_s``: input samples (pixels x channels)
  per second of encode wall time (``compress``, or ``target_ratio_search``
  on ratio-search) and of ``from_bytes`` + ``decompress`` wall time, over
  one cycle of operations, each timed at its median over the cycles of the
  run; a decode shorter than 0.25 s is repeated within its operation and
  counted once, at its mean;
* ``op_s``: wall time of one operation (encode, serialize, parse,
  decode), as the mean over the cycle's operations of each one's median
  over cycles; on ratio-search it is the search latency;
* ``bpp`` / ``psnr_db``: stream bits per input sample and mean PSNR over
  the first cycle, which are fixed by the seed;
* ``peak_mem_mib``: peak-RSS growth over one untimed operation, probed in
  a child process;
* ``success_rate``: operations that passed every output check / attempted.

``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics of BENCHMARK.json from the traced ones (median over
cycles), the tracing overhead, and writes every span to
``.perfbench/spans-<workload>-seed<seed>.json``.

The process exits with 0 after printing the result, with 1 when no
operation succeeded or a probe failed, and with 2 on bad arguments or a
checkout without ``src/carp``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end_to_end, per_layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _print_table(workload: str, metrics: dict[str, float], units: dict[str, str],
                 tally) -> None:
    for name, value in metrics.items():
        print(f"{workload:<15} {name:<28} {value:>14.6g} {units[name]}")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{workload:<15} {'error_rate':<28} {rate:>14.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "carp", "__init__.py")):
        print(f"no carp sources under {SRC_DIR}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    # One thread, here and in the child interpreters: an idle BLAS thread
    # pool only adds start-up time that depends on what else the host runs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import harness
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    units = per_layer if args.trace else end_to_end

    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(OUT_DIR, f"inputs-{tag}-{os.getpid()}")
    tally = harness.Tally()
    try:
        paths = wl.write_inputs(workload, args.seed, workdir)
        if args.trace:
            metrics = harness.traced_run(workload, paths, args.seconds, tally,
                                         os.path.join(OUT_DIR, f"spans-{tag}.json"))
        else:
            metrics = harness.measured_run(workload, paths, args.seconds, tally)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None)
        print(f"benchmark failed: {exc}\n{stderr or ''}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    _print_table(args.workload, metrics, units, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
