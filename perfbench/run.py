"""freespectra benchmark.

    python3 perfbench/run.py --workload sweep|cli|validate|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  Everything the run writes goes
under `.perfbench-out/` in the checkout.  See perfbench/README.md.
"""

import os
import sys

# Pin BLAS threads before numpy is first imported, so matmul and eigvalsh in
# the Monte-Carlo oracle run on one core in every run; FREESPECTRA_THREADS is
# left unset so that density grids are solved in a single chunk.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("FREESPECTRA_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="sweep, cli, validate or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600, check=False)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print(f"workload {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "freespectra", "__init__.py")):
        print(f"perfbench: no freespectra sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return _run_all(args)

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return harness.setup_probe(args.workload, args.seed, ROOT)
    return harness.run(args.workload, args.seed, args.seconds, args.trace, ROOT,
                       os.path.abspath(__file__))


if __name__ == "__main__":
    sys.exit(main())
