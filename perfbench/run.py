"""planemoduli benchmark: seeded verify / compute / probe workloads.

    python3 perfbench/run.py --workload {verify,compute,probe} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from ``src/``; no
build step is needed. Each run builds its inputs from the seed, then repeats
the workload's pass (see workloads.py) while another pass still fits in
``--seconds``, always at least once. Every pass is checked outside the timed
region. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, the digests, the tail percentile and, with ``--trace 1``, the
per-layer table. Details and spans go to ``perfbench/out/``.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: process start until the inputs are built, the median over
  nine fresh processes.
- ``wall_s``: median wall time of one pass, serialization included.
- ``op_ms_p50`` / ``op_ms_tail``: latency of one operation (one check
  record, one curve, one probe call), each operation's median over the
  passes; the tail is the highest percentile with at least ten operations
  beyond it, or the maximum when there are fewer than 21 operations.
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones of tracing.py plus ``trace.overhead_ratio``.

The exit code is 0 when every output check passed, 1 when one failed (the
result line is still printed) and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


def monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def latency_summary(samples: list[float]) -> dict:
    """Median and tail of latency samples. The tail is the highest percentile
    with at least ten samples beyond it; below 21 samples that percentile
    would sit under the median, and the maximum stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    i = n - 11 if n >= 21 else n - 1
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[i],
        "tail_percentile": 100.0 * (i + 1) / n,
        "samples": n,
    }


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "MODULI_THREADS": os.environ.get("MODULI_THREADS", "unset"),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter until it has built the inputs."""
    script = str(ROOT / "perfbench" / "setup_probe.py")
    out = []
    for _ in range(SETUP_REPEATS):
        started = monotonic()
        done = subprocess.run(
            [sys.executable, script, workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True, cwd=ROOT,
        )
        out.append(float(done.stdout.split()[-1]) - started)
    return out


def run_passes(wl, built, seconds: float, new_tracer=None):
    """Passes until another would overrun the budget. With new_tracer,
    untraced and traced passes alternate, each traced pass under a fresh
    tracer. Returns [(tracer or None, wall_s, PassOutput or exception)]."""
    passes = []
    started = time.perf_counter()
    while True:
        tracer = new_tracer() if new_tracer is not None and len(passes) % 2 == 1 else None
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer:
                    idx = tracer.begin("bench.pass")
                    try:
                        out = wl.run_pass(built)
                    finally:
                        tracer.end(idx)
            else:
                out = wl.run_pass(built)
        except Exception as exc:  # a pass that raises fails all its operations
            out = exc
        t1 = time.perf_counter()
        passes.append((tracer, t1 - t0, out))
        if isinstance(out, Exception):
            break
        typical = statistics.median(w for t, w, _ in passes if (t is None) == (tracer is None))
        need_traced = new_tracer is not None and len(passes) < 2
        if not need_traced and (t1 - started) + typical > seconds:
            break
    return passes


def check_passes(wl, built, passes) -> dict:
    """Output checks over every pass, outside the timed region."""
    attempted = failed = skipped = 0
    problems: list[str] = []
    digests = set()
    for _, _, out in passes:
        if isinstance(out, Exception):
            attempted += wl.expected_ops(built)
            failed += wl.expected_ops(built)
            problems.append(f"pass raised {type(out).__name__}: {out}")
            continue
        res = wl.check(built, out)
        attempted += res.attempted
        failed += res.failed
        skipped = res.skipped
        problems.extend(res.problems)
        digests.add(wl.value_digest(out))
    if len(digests) > 1:
        problems.append(f"passes over the same inputs gave {len(digests)} different outputs")
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "skipped": skipped,
        "problems": problems,
        "value_digest": digests.pop() if len(digests) == 1 else None,
    }


def end_to_end_metrics(setup: list[float], untraced: list) -> tuple[dict, dict]:
    walls = [w for w, _ in untraced]
    # every untraced pass repeats the same operations: each operation's
    # latency is its median over those passes
    lat = latency_summary([statistics.median(col) for col in zip(*(o.op_ms for _, o in untraced))])
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "op_ms_p50": {"value": lat["p50"], "unit": "ms"},
        "op_ms_tail": {"value": lat["tail"], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    print(f"op_ms_tail is p{lat['tail_percentile']:.1f} of {lat['samples']} operations")
    return metrics, lat


def per_layer_metrics(workload: str, untraced: list, traced: list, skipped: int) -> dict:
    from perfbench.tracing import RATIO_BASES, layer_metrics, unit_of
    from planemoduli.moduli import CHORD_ITERATIONS

    per_pass = [layer_metrics(t.spans, t.leaves, CHORD_ITERATIONS) for t, _ in traced]
    layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    layer["verify.skipped"] = skipped
    traced_wall = statistics.median(w for _, w in traced)
    layer["trace.overhead_ratio"] = traced_wall / statistics.median(w for w, _ in untraced) - 1.0
    wall = layer["trace.wall_s"]
    print(f"per-layer table: {workload}, median of {len(per_pass)} traced passes; self shares of trace.wall_s")
    for k, v in sorted(layer.items()):
        share = f"  {100.0 * v / wall:5.1f}%" if k.endswith("self_s") else ""
        base = f"  [{RATIO_BASES[k]}]" if k in RATIO_BASES else ""
        print(f"  {k:40s} {v:14.6g} {unit_of(k):12s}{share}{base}")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer.items())}


def write_spans(path: Path, tracer) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "fields": ["name", "start", "end", "parent", "leaf_s", "rows"],
        "names": names,
        "spans": [[index[s[0]], *s[1:]] for s in tracer.spans],
        "leaves": {k: dict(zip(("calls", "rows", "incl_s", "self_s"), v)) for k, v in tracer.leaves.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "compute", "probe"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # pinned before numpy loads, and inherited by the set-up processes;
    # MODULI_THREADS stays unset so curves run serially
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("MODULI_THREADS", None)

    if not (ROOT / "src" / "planemoduli" / "__init__.py").is_file():
        print(f"error: no planemoduli sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import inputs as bench_inputs
    from perfbench import workloads

    setup = measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload]
    inp = bench_inputs.make_inputs(args.workload, args.seed)
    built = wl.build(inp)

    new_tracer = None
    if args.trace:
        from perfbench.tracing import Tracer as new_tracer
    passes = run_passes(wl, built, args.seconds, new_tracer)
    checked = check_passes(wl, built, passes)
    correct = not checked["problems"]

    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "inputs": inp,
        "input_digest": bench_inputs.digest(inp),
        "setup_s_samples": setup,
        "pass_wall_s": [[t is not None, w] for t, w, _ in passes],
        **checked,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"seed {args.seed} input_digest {record['input_digest']} value_digest {checked['value_digest']}")
    print(f"fail_ratio {checked['fail_ratio']:.6g} ({checked['failed']} failed of {checked['attempted']} operations)")
    for p in checked["problems"][:20]:
        print(f"FAILED {p}")

    ok = [(t, w, o) for t, w, o in passes if not isinstance(o, Exception)]
    untraced = [(w, o) for t, w, o in ok if t is None]
    traced = [(t, w) for t, w, _ in ok if t is not None]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    metrics = {}
    if not untraced or (args.trace and not traced):
        correct = False
    elif args.trace:
        from perfbench.tracing import RATIO_BASES

        metrics = per_layer_metrics(args.workload, untraced, traced, checked["skipped"])
        record["ratio_bases"] = RATIO_BASES
        write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", traced[0][0])
    else:
        metrics, record["op_latency_ms"] = end_to_end_metrics(setup, untraced)
    record["metrics"] = metrics

    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {"correct": correct, "attempted": max(checked["attempted"], 1), "failed": checked["failed"], "metrics": metrics}
    print(json.dumps(result, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
