"""Smoke test of the benchmark at the tiny size; runs in seconds.

    python3 pipebench/smoke.py

For every workload, an untraced and a traced run must exit 0 and emit
exactly the end-to-end, respectively per-layer, metrics that BENCHMARK.json
names, each with its unit. Runs against deliberately wrong references (a
structure count, an o1-cliques value, an o2-ball objective) must give
correct = false and name the problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

from run import HERE, OUT, ROOT, WORKLOADS, prepare


def run(workload: str, trace: int) -> tuple[int, dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    return proc.returncode, json.loads(last), proc.stdout + proc.stderr


def expect(cond: bool, what: str, log: str = "") -> None:
    if not cond:
        raise SystemExit(f"FAIL {what}\n{log}")
    print(f"ok   {what}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, res, log = run(workload, trace)
            expect(code == 0 and res.get("correct") is True, f"{workload} trace={trace} passes", log)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}
                   and res["attempted"] >= 1, f"{workload} trace={trace} result keys", log)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == wanted[trace], f"{workload} trace={trace} emits every metric with its unit",
                   f"{got}\n!=\n{wanted[trace]}")

    pipeline = prepare()
    reference = json.loads((HERE / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    broken = [("o2-ball", "n3", "rows", 0), ("o2-ball", "n4", "objective", 1.0),
              ("o1-cliques", "s4-clique", "objective", 1.0)]
    for workload, label, key, value in broken:
        wrong = json.loads(json.dumps(reference))
        wrong["tiny"][workload][label][key] = value
        workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
        try:
            res, info, _ = pipeline.run_workload(workload, "tiny", 0, 1.0, False, wrong, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        expect(res["correct"] is False and any(p.startswith(f"{label}: {key} ") for p in info["problems"]),
               f"{workload}: the gate trips on a wrong {label} {key}", "\n".join(info["problems"]))
    print("smoke test passed")


if __name__ == "__main__":
    main()
