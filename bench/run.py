"""Run one benchmark workload against homcommon and print one JSON result line.

    python3 bench/run.py --workload {falsify,certify,evidence} --seed N \
                         --seconds S --trace {0,1}

Run from the repository root; the package is imported from `src/` of the
same tree, never from an installed copy.  The run makes whole rounds for
about S seconds.  Each round imports homcommon afresh (so its
caches start cold, as in a new CLI process), builds the round's inputs
from (workload, seed, round), makes the calls in one timed phase and then
checks every output.  With --trace 0 the last line reports the end-to-end
metrics; with --trace 1 each round runs once untraced and once traced on
the same inputs, the last line reports the per-layer metrics, and the
spans go to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import os

# one thread: numpy's BLAS must not add threads the timings do not show
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
import types
import zlib
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
MODULES = ("graphs", "graphons", "gluing", "cone", "commonness", "identities", "data")
# set-ups made before the first round, so that setup_s is a median of many
EXTRA_SETUPS = 8


def fresh_import() -> types.SimpleNamespace:
    """Import homcommon from SRC with new module objects (and empty caches)."""
    for name in [n for n in sys.modules if n == "homcommon" or n.startswith("homcommon.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("homcommon")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"homcommon imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"homcommon.{m}")
                                    for m in MODULES})


def set_up(workload: str, seed: int, round_index: int, tracer=None):
    """Import homcommon afresh and build one round's operations; returns
    the operations and the seconds taken."""
    gc.collect()
    t0 = time.perf_counter()
    hc = fresh_import()
    if tracer is not None:  # before the inputs, which hold the functions to call
        tracer.instrument(vars(hc))
    rng = np.random.default_rng([zlib.crc32(workload.encode()), seed, round_index])
    ops = WORKLOADS[workload](hc, rng)
    return ops, time.perf_counter() - t0


def run_pass(workload: str, seed: int, round_index: int, tracer=None) -> dict:
    """One set-up plus one timed phase plus the checks, for one round."""
    ops, setup = set_up(workload, seed, round_index, tracer)
    if tracer is not None:
        mark = tracer.mark()
    outcomes, op_s = [], []
    w0, c0 = time.perf_counter(), time.process_time()
    for op in ops:
        t = time.perf_counter()
        try:
            outcomes.append((True, op.call()))
        except Exception:  # an operation that fails is counted, the run goes on
            outcomes.append((False, traceback.format_exc()))
        op_s.append(time.perf_counter() - t)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    summary = tracer.summarise(mark) if tracer is not None else None
    failed = wrong = 0
    for op, (ok, value) in zip(ops, outcomes):
        if not ok:
            failed += 1
            print(f"FAILED {op.name}\n{value}", file=sys.stderr)
            continue
        try:
            problems = op.check(value)
        except Exception:  # an output the check cannot read is a wrong output
            problems = [traceback.format_exc()]
        if problems:
            wrong += 1
            print(f"WRONG {op.name}: {'; '.join(problems)}", file=sys.stderr)
    return {"setup_s": setup, "wall_s": wall, "cpu_s": cpu, "op_s": op_s,
            "attempted": len(ops), "failed": failed, "wrong": wrong, "trace": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    setups = [set_up(args.workload, args.seed, 0)[1] for _ in range(EXTRA_SETUPS)]
    plain, traced, durations = [], [], []
    start = time.perf_counter()
    # a round starts only if a round of the median length still fits
    while not plain or (time.perf_counter() - start + statistics.median(durations)
                        <= args.seconds):
        r = len(plain)
        t0 = time.perf_counter()
        if tracer is not None and r % 2:  # alternate which pass of a pair runs first
            traced.append(run_pass(args.workload, args.seed, r, tracer))
        plain.append(run_pass(args.workload, args.seed, r))
        if tracer is not None and not r % 2:
            traced.append(run_pass(args.workload, args.seed, r, tracer))
        durations.append(time.perf_counter() - t0)
        last = plain[-1]
        print(f"round {r}: setup {last['setup_s']:.4f} s, wall {last['wall_s']:.4f} s, "
              f"cpu {last['cpu_s']:.4f} s" + (f", traced wall {traced[-1]['wall_s']:.4f} s"
                                             if traced else ""), file=sys.stderr)

    passes = plain + traced
    result = {
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is None:
        def med(key):
            return float(statistics.median(p[key] for p in plain))
        setups += [p["setup_s"] for p in plain]
        result["metrics"] = {
            "setup_s": {"value": float(statistics.median(setups)), "unit": "s"},
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        overheads = [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)]
        result["metrics"] = tracing.layer_metrics(
            [t["trace"] for t in traced], overheads, [p["wall_s"] for p in plain])
        tracer.write(RESULTS / f"trace-{stem}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": [{k: v for k, v in t.items() if k != "trace"} for t in traced],
                      "untraced_rounds": plain, "metrics": result["metrics"]})
    rounds = [{k: v for k, v in p.items() if k != "trace"} for p in passes]
    (RESULTS / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "rounds": rounds}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
