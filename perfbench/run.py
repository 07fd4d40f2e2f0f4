"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is imported from
``src/`` of that checkout; nothing is installed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``).  Lines before
it print the workload's own metrics by name and unit, and the run's
environment.  Exit status 1 means a wrong answer; 2 means the run could
not be made at all (for instance, no program source beside the
benchmark).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mr-qws", "serve-mix", "serve-write", "serve-cluster")

def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy

    from repro.core.kernels import get_kernel
    from repro.mapreduce.executors import default_executor_name

    return {
        "kernel": get_kernel(None).name,
        "executor": default_executor_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds through the workloads' ``finally``
    # blocks, which stop the servers it started and remove its files.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The script's own directory would shadow top-level modules.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    from perfbench.launcher import PINNED_UNSET

    # Measure the program's defaults, in this process as in its servers.
    for name in PINNED_UNSET:
        os.environ.pop(name, None)

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if args.workload == "mr-qws":
        from perfbench import mr_qws

        result = mr_qws.run(args.seconds, bool(args.trace))
    else:
        from perfbench import serve

        result = serve.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    print("detail " + json.dumps(result.detail, sort_keys=True, default=str))
    result.emit(bool(args.trace), _units(bool(args.trace)))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
