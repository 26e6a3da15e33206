"""Workloads, spans and output checks of the pipeline benchmark.

Every call into the package is timed here, from outside it: the pipeline
calls (`gen_*`, `load_problem`, `decompose`, `build`, `certify`, `verify`,
`count_stats`, `assemble`, `write_sdp`, `read_sdp`, `solve`) directly, and
the calls the package makes through module globals (`cgal.min_eigpair`,
`ctp.solve_lp`, `ctp.symbolic_residual`, `ctp.sampled_deviation`) through
pass-through wrappers that are installed only for the traced pass.

Import this module only after the BLAS thread cap is in the environment
(see run.py): it imports NumPy.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ncsdp import cgal, cli, ctp, generator, relaxation, sparsity
from ncsdp import standard_form as sf
from ncsdp.cgal import CgalConfig
from ncsdp.free_algebra import SymmetryMode

END_TO_END = {"setup_s": "s", "solve_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cgal.iterations": "count",
    "cgal.converged": "count",
    "cgal.eig_calls": "count",
    "cgal.eig_s": "s",
    "cgal.eig_us": "us",
    "cgal.eig_share": "ratio",
    "cgal.rest_s": "s",
    "cgal.iter_us": "us",
    "cgal.residual_max": "ratio",
    "ctp.verify_s": "s",
    "ctp.symbolic_s": "s",
    "ctp.sampled_s": "s",
    "ctp.verify_residual": "ratio",
    "ctp.certify_s": "s",
    "ctp.lp_groups": "count",
    "lp.calls": "count",
    "lp.solve_s": "s",
    "relaxation.build_s": "s",
    "relaxation.keys": "count",
    "relaxation.blocks": "count",
    "standard_form.assemble_s": "s",
    "standard_form.count_s": "s",
    "standard_form.rows": "count",
    "standard_form.dim": "count",
    "standard_form.nnz": "count",
    "standard_form.write_s": "s",
    "standard_form.read_s": "s",
    "standard_form.file_mb": "MB",
    "cli.load_s": "s",
    "sparsity.decompose_s": "s",
    "generator.gen_s": "s",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
}

# Spans whose time counts towards setup_s: Problem (or JSON file) to a
# solver-ready StandardSdp.
SETUP_SPANS = (
    "cli.load_problem",
    "sparsity.decompose",
    "relaxation.build",
    "ctp.certify",
    "ctp.verify",
    "standard_form.count_stats",
    "standard_form.assemble",
)
VERIFY_LIMIT = 1e-8
O1_EPS = 1e-4  # o1-cliques solve accuracy; values are checked to 2 eps (1 + |ref|)
# o2-ball and chain-export run a fixed iteration budget, so their objective
# and residual are checked only at the reference's values_seed, each within
# this share of the reference value. A different Lanczos start vector or the
# dense eigh path instead of Lanczos moves them by at most 0.2%.
VALUE_RTOL = 1e-2
CRITERION10_SHAPES = ((7, 3), (8, 3), (9, 3), (9, 4))

# Workload sizes. "full" is what the benchmark measures; "tiny" runs in
# seconds and exists for the smoke test.
SIZES = {
    "full": {
        # The ten criterion-10 instances, both layouts, solved to eps. The
        # slowest converging solve needs 23,245 iterations; the two that never
        # converge stop at the cap either way. With criterion 10's cap of
        # 150,000 they alone take about 40 s per pass; 30,000 leaves room for
        # two passes per run.
        "o1": {"seeds": tuple(range(10)), "max_iters": 30_000},
        # fixed iteration budget, so the stop rule cannot change the work
        "o2": {"n": (10, 20), "iters": 300},
        # u = 10 clique chain; the paper's n = 1000 takes over a minute per mode
        "chain": {"n": 160, "u": 10, "iters": 10},
    },
    "tiny": {
        "o1": {"seeds": (4,), "max_iters": 30_000},
        "o2": {"n": (3, 4), "iters": 20},
        "chain": {"n": 8, "u": 3, "iters": 5},
    },
}


@dataclass
class Op:
    """One pipeline execution: a problem through set-up, then solve or export."""

    label: str
    order: int
    cfg: CgalConfig
    mode: SymmetryMode = SymmetryMode.STAR_ONLY
    dense: bool = False  # force one clique instead of the problem's own cover
    problem: relaxation.Problem | None = None
    json_path: str | None = None  # set-up starts with cli.load_problem
    export_path: str | None = None  # write, read back and compare, then solve the copy


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """In-memory spans: name, start, end, parent span and instance label.

    High-frequency calls (one eigensolve per block per iteration) are kept
    as one aggregate per (name, parent span) instead of one span per call.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self.instance: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "instance": self.instance,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            rec["start"] = start - self.t0
            rec["end"] = end - self.t0

    def add_call(self, name: str, seconds: float) -> None:
        key = (name, self._stack[-1] if self._stack else None)
        agg = self.aggregates.setdefault(key, [0, 0.0])
        agg[0] += 1
        agg[1] += seconds

    def seconds(self, name: str, since: int = 0) -> float:
        return sum(s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name)

    def count(self, name: str, since: int = 0) -> int:
        return sum(1 for s in self.spans[since:] if s["name"] == name)

    def dump(self) -> dict:
        aggs = [
            {"name": name, "parent": parent,
             "instance": None if parent is None else self.spans[parent]["instance"],
             "calls": calls, "seconds": secs}
            for (name, parent), (calls, secs) in self.aggregates.items()
        ]
        return {"spans": self.spans, "aggregates": aggs}


# (module, attribute, span name, aggregate per parent instead of one span per call)
WRAPPED = (
    (cgal, "min_eigpair", "cgal.min_eigpair", True),
    (ctp, "solve_lp", "lp.solve_lp", False),
    (ctp, "symbolic_residual", "ctp.symbolic_residual", False),
    (ctp, "sampled_deviation", "ctp.sampled_deviation", False),
)


@contextmanager
def wrapped_globals(tracer: Tracer):
    """Time the package's internal calls; arguments and results pass through."""

    def make(fn, name, aggregate):
        if aggregate:
            def timed(*args, **kwargs):
                t = time.perf_counter()
                out = fn(*args, **kwargs)
                tracer.add_call(name, time.perf_counter() - t)
                return out
        else:
            def timed(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
        return timed

    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
    try:
        for (mod, attr, name, aggregate), (_, _, fn) in zip(WRAPPED, saved):
            setattr(mod, attr, make(fn, name, aggregate))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# inputs


def make_ops(workload: str, size: str, seed: int, workdir: str, tracer: Tracer) -> list[Op]:
    """Generate the workload's inputs. Only o2-ball and chain-export use seed.

    o1-cliques is the fixed criterion-10 suite: its value is the stop rule
    on those instances (two of them never converge), and instances drawn
    from other seeds need anywhere from under 200 iterations to the cap,
    which no run-to-run bound could hold.
    """
    cfg = SIZES[size]
    ops: list[Op] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # chain clamping warnings are expected
        if workload == "o1-cliques":
            c = cfg["o1"]
            for s in c["seeds"]:
                n, u = CRITERION10_SHAPES[s % len(CRITERION10_SHAPES)]
                with tracer.span("generator.gen_sparse"):
                    prob = generator.gen_sparse(n, u, seed=s)
                for dense in (False, True):
                    ops.append(Op(
                        label=f"s{s}-{'dense' if dense else 'clique'}", order=1,
                        dense=dense, problem=prob,
                        cfg=CgalConfig(eps=O1_EPS, max_iters=c["max_iters"], seed=s),
                    ))
        elif workload == "o2-ball":
            c = cfg["o2"]
            for n in c["n"]:
                with tracer.span("generator.gen_dense"):
                    prob = generator.gen_dense(n, kind="ball", seed=seed)
                ops.append(Op(label=f"n{n}", order=2, problem=prob,
                              cfg=CgalConfig(eps=0.0, max_iters=c["iters"], seed=seed)))
        elif workload == "chain-export":
            c = cfg["chain"]
            with tracer.span("generator.gen_sparse"):
                prob = generator.gen_sparse(c["n"], c["u"], seed=seed)
            path = os.path.join(workdir, "chain.json")
            with open(path, "w") as fh:
                json.dump(cli.problem_to_json(prob), fh)
            for name, mode in (("eig", SymmetryMode.STAR_ONLY), ("trace", SymmetryMode.STAR_CYCLIC)):
                ops.append(Op(label=name, order=2, mode=mode, json_path=path,
                              cfg=CgalConfig(eps=0.0, max_iters=c["iters"], seed=seed),
                              export_path=os.path.join(workdir, f"chain-{name}.sdp")))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# one operation


def setup(op: Op, tracer: Tracer):
    """Problem (or its JSON file) to a solver-ready StandardSdp."""
    problem = op.problem
    if op.json_path is not None:
        with tracer.span("cli.load_problem"):
            problem = cli.load_problem(op.json_path)
    with tracer.span("sparsity.decompose"):
        decomp = (sparsity.dense_decomposition(problem) if op.dense
                  else sparsity.decompose(problem))
    with tracer.span("relaxation.build"):
        rel = relaxation.build(problem, op.order, op.mode, decomp=decomp)
    with tracer.span("ctp.certify"):
        cert = ctp.certify(rel)
    with tracer.span("ctp.verify"):
        residual = ctp.verify(rel, cert)
    with tracer.span("standard_form.count_stats"):
        stats = sf.count_stats(rel, cert)
    with tracer.span("standard_form.assemble"):
        sdp = sf.assemble(rel, cert)
    out = {
        "omega": stats.omega,
        "smax": stats.smax,
        "zeta": stats.zeta,
        "sdp_zeta": sdp.zeta,
        "keys": len(rel.keys),
        "rows": sdp.n_rows,
        "dim": sdp.dim,
        "nnz": int(sdp.a_mat.nnz),
        "lp_groups": sum(p == ctp.PROV_LP for p in cert.provenances),
        "verify_residual": residual,
    }
    return sdp, out


def same_sdp(a: sf.StandardSdp, b: sf.StandardSdp) -> bool:
    """Equal up to the rounding of one multiply and divide by sqrt(2)."""
    if (a.block_sizes != b.block_sizes or a.trace != b.trace or a.zeta != b.zeta
            or a.a_mat.shape != b.a_mat.shape or not np.array_equal(a.b, b.b)):
        return False
    tol = 1e-12 * max(1.0, float(np.abs(a.c).max(initial=0.0)), float(abs(a.a_mat).max()))
    diff = abs(a.a_mat - b.a_mat)
    return (float(np.abs(a.c - b.c).max(initial=0.0)) <= tol
            and float(diff.max() if diff.nnz else 0.0) <= tol)


def run_op(op: Op, tracer: Tracer, setup_only: bool = False) -> dict:
    """Set-up, then export/read-back and solve. Exceptions become outputs."""
    tracer.instance = op.label
    out: dict = {}
    try:
        with tracer.span("op"):
            sdp, out = setup(op, tracer)
            if not setup_only and op.export_path is not None:
                with tracer.span("standard_form.write_sdp"):
                    sf.write_sdp(sdp, op.export_path)
                out["file_bytes"] = os.path.getsize(op.export_path)
                with tracer.span("standard_form.read_sdp"):
                    back = sf.read_sdp(op.export_path)
                out["roundtrip_ok"] = same_sdp(sdp, back)
                sdp = back
            if not setup_only:
                with tracer.span("cgal.solve"):
                    rep = cgal.solve(sdp, op.cfg)
                out.update(objective=rep.objective, iterations=rep.iterations,
                           converged=rep.converged, residual=rep.residual)
    except Exception as exc:  # a failed operation is an output, not a crash
        out["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        tracer.instance = None
    return out


# ---------------------------------------------------------------------------
# output checks

STRUCTURE = ("omega", "smax", "zeta", "keys", "rows", "dim", "nnz")


def check_op(workload: str, label: str, out: dict, ref: dict, check_values: bool) -> tuple[bool, list[str]]:
    """Return (operation failed, gate problems).

    Solve values are checked on o1-cliques always (it is a fixed suite) and
    on the other workloads only when `check_values` is set, that is, at the seed
    the reference values were taken at.

    Every gate problem is a failed operation. One failed operation is not a
    gate problem: an o1-cliques solve that stops at the cap where the
    reference solve also did (the known stop-rule defect). fail_frac counts
    it; the gate trips only when a solve stops converging.
    """
    problems: list[str] = []
    if "error" in out:
        return True, [f"{label}: raised {out['error']}"]
    if ref is None:
        return True, [f"{label}: no reference"]
    for key in STRUCTURE:
        if out[key] != ref[key]:
            problems.append(f"{label}: {key} {out[key]} != reference {ref[key]}")
    if out["sdp_zeta"] != out["zeta"]:
        problems.append(f"{label}: assemble zeta {out['sdp_zeta']} != count_stats zeta {out['zeta']}")
    if not out["verify_residual"] <= VERIFY_LIMIT:
        problems.append(f"{label}: verify residual {out['verify_residual']:.3e} > {VERIFY_LIMIT:g}")
    if out.get("roundtrip_ok") is False:
        problems.append(f"{label}: read_sdp(write_sdp(sdp)) differs from sdp")
    if "objective" in out and not math.isfinite(out["objective"]):
        problems.append(f"{label}: objective {out['objective']!r}")
    failed = bool(problems)
    if workload == "o1-cliques":
        if abs(out["objective"] - ref["objective"]) > 2 * O1_EPS * (1 + abs(ref["objective"])):
            problems.append(f"{label}: objective {out['objective']:.8f} vs reference "
                            f"{ref['objective']:.8f} (tolerance 2 eps (1 + |ref|))")
        if not out["converged"]:
            failed = True
            if ref["converged"]:
                problems.append(f"{label}: stopped at the cap; the reference converged")
    elif check_values:
        for key in ("objective", "residual"):
            if not abs(out[key] - ref[key]) <= VALUE_RTOL * abs(ref[key]):
                problems.append(f"{label}: {key} {out[key]:.8g} vs reference {ref[key]:.8g} "
                                f"(tolerance {VALUE_RTOL:g} |ref|)")
    return failed or bool(problems), problems


def check_pairs(outs: dict[str, dict]) -> list[str]:
    """o1-cliques: the clique value is at most the dense value (criterion 10)."""
    problems = []
    for label, out in outs.items():
        if not label.endswith("-clique"):
            continue
        dense = outs.get(label[: -len("clique")] + "dense")
        if dense is None or "objective" not in out or "objective" not in dense:
            continue
        tau_cs, tau_d = out["objective"], dense["objective"]
        if tau_cs > tau_d + 2 * O1_EPS * (1 + abs(tau_d)):
            problems.append(f"{label}: clique value {tau_cs:.8f} above dense value {tau_d:.8f}")
    return problems


def signature(out: dict) -> dict:
    """What two executions of the same operation must reproduce bit for bit."""
    keys = STRUCTURE + ("verify_residual", "objective", "iterations", "converged",
                        "residual", "file_bytes", "error")
    return {k: out[k] for k in keys if k in out}


# ---------------------------------------------------------------------------
# passes and metrics

# Whole passes per untraced run, at least. One o1-cliques pass takes the
# whole --seconds budget, and a single pass left its run-to-run spread near
# 0.3 on a host whose speed drifts over tens of seconds.
MIN_PASSES = {"o1-cliques": 2, "o2-ball": 1, "chain-export": 1}
# Set-up samples per run for the setup_s median. A pass gives one; extra
# set-up-only rounds make up the rest. o1-cliques takes none: its whole
# set-up lasts tens of milliseconds, so a round sees the host at one speed
# and the rounds of a run agree with each other but not with other runs. In
# a pass its set-ups are spread over the pass, like its solves.
SETUP_SAMPLES = {"o1-cliques": 2, "o2-ball": 3, "chain-export": 3}


@dataclass
class Pass:
    outs: dict[str, dict]
    wall_s: float
    setup_s: float
    solve_s: float
    first_span: int


def run_pass(ops: list[Op], tracer: Tracer, setup_only: bool = False) -> Pass:
    first = len(tracer.spans)
    t = time.perf_counter()
    outs = {op.label: run_op(op, tracer, setup_only) for op in ops}
    wall = time.perf_counter() - t
    setup_s = sum(tracer.seconds(name, first) for name in SETUP_SPANS)
    return Pass(outs, wall, setup_s, tracer.seconds("cgal.solve", first), first)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def layer_metrics(p: Pass, tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass."""
    first = p.first_span
    outs = [o for o in p.outs.values() if "error" not in o]
    eig = [v for (name, parent), v in tracer.aggregates.items()
           if name == "cgal.min_eigpair" and parent is not None and parent >= first]
    eig_calls = sum(c for c, _ in eig)
    eig_s = sum(s for _, s in eig)
    solve_s = tracer.seconds("cgal.solve", first)
    iters = sum(o.get("iterations", 0) for o in outs)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cgal.iterations": iters,
        "cgal.converged": sum(bool(o.get("converged")) for o in outs),
        "cgal.eig_calls": eig_calls,
        "cgal.eig_s": eig_s,
        "cgal.eig_us": 1e6 * ratio(eig_s, eig_calls),
        "cgal.eig_share": ratio(eig_s, solve_s),
        "cgal.rest_s": solve_s - eig_s,
        "cgal.iter_us": 1e6 * ratio(solve_s, iters),
        "cgal.residual_max": max((o.get("residual", 0.0) for o in outs), default=0.0),
        "ctp.verify_s": tracer.seconds("ctp.verify", first),
        "ctp.symbolic_s": tracer.seconds("ctp.symbolic_residual", first),
        "ctp.sampled_s": tracer.seconds("ctp.sampled_deviation", first),
        "ctp.verify_residual": max((o["verify_residual"] for o in outs), default=0.0),
        "ctp.certify_s": tracer.seconds("ctp.certify", first),
        "ctp.lp_groups": sum(o["lp_groups"] for o in outs),
        "lp.calls": tracer.count("lp.solve_lp", first),
        "lp.solve_s": tracer.seconds("lp.solve_lp", first),
        "relaxation.build_s": tracer.seconds("relaxation.build", first),
        "relaxation.keys": sum(o["keys"] for o in outs),
        "relaxation.blocks": sum(o["omega"] for o in outs),
        "standard_form.assemble_s": tracer.seconds("standard_form.assemble", first),
        "standard_form.count_s": tracer.seconds("standard_form.count_stats", first),
        "standard_form.rows": sum(o["rows"] for o in outs),
        "standard_form.dim": sum(o["dim"] for o in outs),
        "standard_form.nnz": sum(o["nnz"] for o in outs),
        "standard_form.write_s": tracer.seconds("standard_form.write_sdp", first),
        "standard_form.read_s": tracer.seconds("standard_form.read_sdp", first),
        "standard_form.file_mb": sum(o.get("file_bytes", 0) for o in outs) / 1e6,
        "cli.load_s": tracer.seconds("cli.load_problem", first),
        "sparsity.decompose_s": tracer.seconds("sparsity.decompose", first),
    }


def run_workload(workload: str, size: str, seed: int, seconds: float, trace: bool,
                 reference: dict, workdir: str) -> tuple[dict, dict, Tracer]:
    """Run one workload; return the result, run details and the spans.

    Untraced: whole passes until the next one would end after `seconds`
    (at least MIN_PASSES), then set-up-only rounds up to SETUP_SAMPLES. Traced: one
    untraced pass, then one pass with the wrappers installed; the two must
    agree bit for bit.
    """
    tracer = Tracer()
    ops = make_ops(workload, size, seed, workdir, tracer)
    gen_s = tracer.seconds("generator.gen_sparse") + tracer.seconds("generator.gen_dense")
    refs = reference[size][workload]
    check_values = seed == reference["values_seed"]
    problems: list[str] = []

    start = time.perf_counter()
    passes = [run_pass(ops, tracer)]
    if trace:
        with wrapped_globals(tracer):
            passes.append(run_pass(ops, tracer))
    else:
        while (len(passes) < MIN_PASSES[workload]
               or time.perf_counter() - start + passes[-1].wall_s <= seconds):
            passes.append(run_pass(ops, tracer))
    rounds = [] if trace else [
        run_pass(ops, tracer, setup_only=True)
        for _ in range(SETUP_SAMPLES[workload] - len(passes))
    ]

    attempted = failed = 0
    first = {label: signature(out) for label, out in passes[0].outs.items()}
    for p in passes:
        for label, out in p.outs.items():
            op_failed, probs = check_op(workload, label, out, refs.get(label), check_values)
            attempted += 1
            failed += op_failed
            problems += probs
            if signature(out) != first[label]:
                what = "traced pass" if trace else "a later pass"
                problems.append(f"{label}: {what} differs from the first: "
                                f"{signature(out)} != {first[label]}")
        if workload == "o1-cliques":
            problems += check_pairs(p.outs)
    for r in rounds:
        for label, out in r.outs.items():
            same = {k: first[label].get(k) for k in signature(out)}
            if signature(out) != same:
                problems.append(f"{label}: set-up round differs from the first pass: {signature(out)}")

    fail_frac = failed / attempted
    if trace:
        plain, traced = passes
        values = layer_metrics(traced, tracer)
        values["generator.gen_s"] = gen_s
        values["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
        values["fail_frac"] = fail_frac
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median([p.setup_s for p in passes + rounds]),
            "solve_s": statistics.median([p.solve_s for p in passes]),
            "total_s": statistics.median([p.wall_s for p in passes]),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    info = {
        "passes": len(passes),
        "setup_rounds": len(rounds),
        "pass_seconds": [p.wall_s for p in passes],
        "setup_seconds": [p.setup_s for p in passes + rounds],
        "fail_frac": fail_frac,
        "problems": list(dict.fromkeys(problems)),
        "outputs": {label: signature(out) for label, out in passes[0].outs.items()},
    }
    if trace:
        info["traced_pass_first_span"] = passes[1].first_span
    return result, info, tracer
