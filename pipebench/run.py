"""Pipeline benchmark of ncsdp: build, certify, verify, assemble, solve.

One workload per process, from the root of a source checkout:

    python3 pipebench/run.py --workload o2-ball --seed 0 --seconds 25 --trace 0
    python3 pipebench/run.py --workload all      # each workload in its own process

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The traced run also writes its spans to
pipebench/out/. The exit code is 1 when an output check fails and 2 when
the package source is not in the checkout. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("o1-cliques", "o2-ball", "chain-export")
# One process, one BLAS thread (at most nproc): the machine may be shared,
# and the blocks here are small enough that threads add more noise than speed.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Cap BLAS threads, put the checkout's src/ first on the path, import the benchmark.

    Raises SystemExit(2) when the checkout holds no package source, so that
    an installed copy of the package is never measured instead.
    """
    if not (SRC / "ncsdp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ncsdp'}", file=sys.stderr)
        raise SystemExit(2)
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import pipeline

    if not Path(pipeline.cgal.__file__).resolve().is_relative_to(SRC):
        print(f"error: ncsdp imported from {pipeline.cgal.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return pipeline


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (Linux; empty elsewhere)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_thread_cap": {var: os.environ[var] for var in BLAS_VARS},
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def run_one(args) -> int:
    pipeline = prepare()
    reference = json.loads((HERE / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        result, info, tracer = pipeline.run_workload(
            args.workload, args.size, args.seed, args.seconds, bool(args.trace), reference, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    tag = f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}"
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}-{args.size}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "size": args.size, "env": env,
            "result": result, **info, **tracer.dump(),
        }))
        print(f"trace written to {path.relative_to(ROOT)}")
    print("env " + json.dumps(env))
    print(f"{tag}: passes={info['passes']} setup_rounds={info['setup_rounds']} "
          f"fail_frac={info['fail_frac']:.4g} ({result['failed']}/{result['attempted']})")
    print("  pass seconds " + " ".join(f"{t:.4g}" for t in info["pass_seconds"])
          + "; set-up seconds " + " ".join(f"{t:.4g}" for t in info["setup_seconds"]))
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for problem in info["problems"]:
        print(f"CHECK FAILED {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric; 1 if any fails."""
    status = 0
    table = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            table.append((workload, json.loads(lines[-1])))
        else:
            table.append((workload, None))
            status = 1
    print(f"{'workload':14s} {'metric':28s} value")
    for workload, res in table:
        if res is None:
            print(f"{workload:14s} (no result)")
            continue
        frac = res["failed"] / res["attempted"]
        print(f"{workload:14s} {'fail_frac':28s} {frac:.4g} ({res['failed']}/{res['attempted']})")
        for name, m in res["metrics"].items():
            print(f"{workload:14s} {name:28s} {m['value']:.6g} {m['unit']}")
    print("all output checks passed" if status == 0 else "SOME OUTPUT CHECKS FAILED")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed for o2-ball and chain-export (o1-cliques is a fixed suite)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure whole passes until the next would end after this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one untraced and one traced pass, per-layer metrics")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs in seconds, for the smoke test")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
