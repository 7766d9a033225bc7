"""Benchmark of diffalg: time to a checked verdict, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload suite --seed 0 --seconds 60 --trace 0

Workloads (see ``workloads.py``): ``suite`` and ``operator``, each a closed
loop with one caller, where the next iteration starts only after the
previous one has returned and its output has been checked.  Everything runs in this one process with no extra
threads, apart from the short fresh-interpreter processes that time set-up,
which run one at a time before and after the workload.

``--trace 0`` repeats the workload while one more iteration fits in
``--seconds`` (at least once) and reports the end-to-end metrics:

- ``wall_s``: median time of one iteration, from the first call into
  diffalg until its output is checked;
- ``setup_s``: median over fresh interpreters of the time to import diffalg
  and build the workload's inputs;
- ``peak_rss_mb``: this process's peak resident set size.

``--trace 1`` alternates an untraced iteration with one that has the span
recorder of ``spans.py`` active, pair after pair while one more pair fits
in ``--seconds`` (at least one pair), and reports the per-layer metrics:
calls and self time of each traced span and the exact work counters, each
the median over the traced iterations, and ``trace_overhead_ratio``, the
median over the pairs of traced over untraced iteration time.  A span that
the workload never reaches reads 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment (Python version, cores, platform, git commit), the
iteration count and the failure fraction.  The full record, including the span
tree of a traced run, is written to ``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Fresh interpreters timed per untraced run for setup_s; the median is reported.
SETUP_SAMPLES = 16
SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
start = time.perf_counter()
workloads.setup({name!r}, {seed!r})
print(time.perf_counter() - start)
"""


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="diffalg benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_samples(name, seed, count):
    """Seconds to import diffalg and build the inputs, in fresh interpreters."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _iteration(workloads, name, inputs, seed):
    """Time one checked iteration; a raising iteration fails all its checks."""
    start = time.perf_counter()
    try:
        attempted, failed, output = workloads.run(name, inputs, seed)
    except Exception:
        traceback.print_exc()
        attempted = failed = workloads.checks(name, seed)
        output = None
    return time.perf_counter() - start, attempted, failed, output


def _untraced(workloads, name, inputs, seed, seconds):
    """Iterate for about ``seconds``, at least once.

    Another iteration starts only if one more of median length still fits,
    so a run's length does not jump by a whole iteration at random.
    """
    times, outputs = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        elapsed, a, f, output = _iteration(workloads, name, inputs, seed)
        times.append(elapsed)
        outputs.append(output)
        attempted += a
        failed += f
    return times, outputs, attempted, failed


def _traced(workloads, name, seed, seconds):
    """Alternate untraced and traced iterations for about ``seconds``.

    Pairs are taken while one more pair of median length still fits, at
    least one.  Alternating lets each ratio compare two iterations run
    under nearly the same host conditions.
    """
    import spans

    inputs = workloads.setup(name, seed)
    pairs, outputs, recorded = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start + statistics.median(u + t for u, t in pairs) <= seconds:
        untraced_s, a, f, output = _iteration(workloads, name, inputs, seed)
        with spans.Tracer() as tracer:
            traced_s, ta, tf, traced_output = _iteration(workloads, name, inputs, seed)
        pairs.append((untraced_s, traced_s))
        outputs += [output, traced_output]
        attempted += a + ta
        failed += f + tf
        recorded.append((tracer.metrics(), tracer.dump()))
    metrics = {key: statistics.median_low(m[key] for m, _ in recorded) for key in recorded[0][0]}
    metrics["trace_overhead_ratio"] = statistics.median(t / u for u, t in pairs)
    return pairs, outputs, attempted, failed, metrics, [dump for _, dump in recorded]


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "diffalg" / "__init__.py").is_file():
        print(f"bench: no diffalg sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    sys.path.insert(0, str(SRC))

    name, seed = args.workload, args.seed
    record = {"workload": name, "seed": seed, "env": environment()}
    if args.trace:
        pairs, outputs, attempted, failed, metrics, dumps = _traced(workloads, name, seed, args.seconds)
        times = [untraced_s for untraced_s, _ in pairs]
        record.update(pairs_s=pairs, spans=dumps)
    else:
        # Half the set-up samples are taken before the workload and half
        # after, so that they see the same host conditions as the iterations.
        setup_samples = _setup_samples(name, seed, SETUP_SAMPLES // 2)
        inputs = workloads.setup(name, seed)
        times, outputs, attempted, failed = _untraced(workloads, name, inputs, seed, args.seconds)
        setup_samples += _setup_samples(name, seed, SETUP_SAMPLES - len(setup_samples))
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record.update(iteration_s=times, setup_samples_s=setup_samples)
    if set(units) != set(metrics):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")

    # Every iteration must return the same output, traced or not.
    correct = failed == 0 and None not in outputs and len(set(outputs)) == 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["env"]
    print(f"env: python {env['python']}, nproc {env['nproc']}, {env['platform']}, commit {env['commit']}")
    print(f"{name}: {len(times)} untraced iteration(s), median {statistics.median(times):.3f} s")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
