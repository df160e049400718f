"""Run one workload of the qacsim benchmark and print its metrics.

    python3 perfbench/run.py --workload chimera-decode --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: qacsim is imported from ``src``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (which also writes every span to
``perfbench/out/``).
"""

import os

# one BLAS/OpenMP thread, fixed before NumPy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

STRATEGIES = ("U", "C", "EP", "QAC")
TIMED_LAYERS = (
    "topology.build", "topology.embed_chain", "problem.encode_problem", "decode.ground_reference",
    "decode.sample_set", "decode.histogram_suite", "decode.empirical_success", "classical.fit",
    "problem.classical_excitation_gaps", "dynamics.gap_profile", "perturb.gap_curves",
    "dynamics.success_probabilities", "dynamics.sample_readout", "reference.check",
)
PER_STRATEGY = ("master_equation.evolve_open", "dynamics.evolve_closed")


def layer_metrics(tracer, result) -> dict:
    times = tracer.self_times()
    out = {f"{name}_s": {"value": times.get(name, 0.0), "unit": "s"} for name in TIMED_LAYERS}
    for name in PER_STRATEGY:
        parts = {S: times.get(f"{name}.{S}", 0.0) for S in STRATEGIES}
        out[f"{name}_s"] = {"value": sum(parts.values()), "unit": "s"}
        for S, value in parts.items():
            out[f"{name}_s.{S}"] = {"value": value, "unit": "s"}
    reads = tracer.counts.get("decode.reads", 0)
    records = tracer.counts.get("decode.records", 0)
    out["decode.reads"] = {"value": reads, "unit": "count"}
    out["decode.records"] = {"value": records, "unit": "count"}
    out["decode.distinct_share"] = {"value": records / reads if reads else 0.0, "unit": "ratio"}
    out["bench.point_self_s"] = {"value": times.get("bench.point", 0.0), "unit": "s"}
    # the calibration kernel's time over its nominal time, around each point
    out["bench.speed_factor_p50"] = {"value": statistics.median(result.points.factors), "unit": "ratio"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isdir(os.path.join(src, "qacsim")):
        print(f"no qacsim sources under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import harness
        import workloads
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = harness.Tracer(enabled=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer)
    result = harness.run_workload(workload, args.seconds, tracer)

    summary = harness.end_to_end(result)
    raw = harness.end_to_end(result, raw=True)
    print(f"{args.workload} seed {args.seed}: {result.rounds} rounds, {result.attempted} points, "
          f"timed {sum(result.points.raw):.3f} s, checks {result.check_s:.3f} s", file=sys.stderr)
    if args.trace:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        print(json.dumps({"traced_end_to_end": summary, "traced_raw": raw, "spans": path}))
        metrics = layer_metrics(tracer, result)
    else:
        print(json.dumps({"raw_wall_times": raw}))
        metrics = summary
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
