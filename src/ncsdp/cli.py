"""Command line interface.

Subcommands: gen (random instances), count (structure statistics), ctp
(certify the constant trace property), solve (full pipeline through the
solver; the result line prints the value, the certified bound, the gap, the
certificate's verify residual, the stop reason and the solver path), bench
(the built-in benchmark families). Every command but gen re-checks its
certificate with ctp.verify.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 constant trace
property not certified, or its verify residual above VERIFY_LIMIT times
max(1, trace constant).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import cgal, ctp, generator
from . import standard_form as sf
from .free_algebra import CapacityError, NcPolynomial, SymmetryMode
from .relaxation import Problem, build, minimal_order
from .sparsity import CliqueAssignmentError, decompose, dense_decomposition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NO_CTP = 3
# largest accepted verify residual per unit of trace constant (at least 1): the residual is absolute
# and grows with the trace constant; for constants up to 1, this is the benchmark gate's limit
VERIFY_LIMIT = 1e-8

CSV_COLUMNS = ["n", "l", "k", "omega", "smax", "zeta", "amax", "val", "time", "resid", "mode", "sparse", "bound"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# instance (de)serialization


def poly_to_json(p: NcPolynomial) -> list[dict]:
    return [
        {"word": list(w), "coeff": c}
        for w, c in sorted(p.terms.items(), key=lambda t: (len(t[0]), t[0]))
    ]


def poly_from_json(n: int, items, label: str) -> NcPolynomial:
    terms: dict[tuple[int, ...], float] = {}
    for it in items:
        w = tuple(int(a) for a in it["word"])
        c = float(it["coeff"])
        if not math.isfinite(c):
            raise InputError(f"{label} has a non-finite coefficient {c!r} on word {list(w)}")
        terms[w] = terms.get(w, 0.0) + c
    p = NcPolynomial(n, terms)
    if not p.is_symmetric(1e-10):
        warnings.warn(f"{label} is not symmetric; replacing it by its symmetric part")
        p = p.symmetrized()
    return p


def problem_to_json(problem: Problem, meta: dict | None = None) -> dict:
    data = {
        "n": problem.n,
        "objective": poly_to_json(problem.objective),
        "ineq": [poly_to_json(g) for g in problem.inequalities],
        "eq": [poly_to_json(h) for h in problem.equalities],
    }
    if problem.cliques is not None:
        data["cliques"] = [list(c) for c in problem.cliques]
    if problem.anchor is not None:
        data["anchor"] = [float(v) for v in problem.anchor]
    if meta:
        data["meta"] = meta
    return data


def problem_from_json(data: dict) -> Problem:
    try:
        n = int(data["n"])
        objective = poly_from_json(n, data["objective"], "objective")
        ineqs = [poly_from_json(n, q, f"inequality {i}") for i, q in enumerate(data.get("ineq", []))]
        eqs = [poly_from_json(n, q, f"equality {i}") for i, q in enumerate(data.get("eq", []))]
        cl = data.get("cliques")
        cliques = tuple(tuple(int(a) for a in c) for c in cl) if cl else None
        anchor = np.array([float(v) for v in data["anchor"]]) if data.get("anchor") else None
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance: {exc}") from exc
    if anchor is not None:
        if anchor.shape != (n,):
            raise InputError(f"anchor has {anchor.size} entries, expected one per letter ({n})")
        if not np.isfinite(anchor).all():
            raise InputError(f"anchor entry {int(np.flatnonzero(~np.isfinite(anchor))[0])} is not finite")
    return Problem(
        n=n, objective=objective, inequalities=ineqs, equalities=eqs, cliques=cliques, anchor=anchor
    )


def load_problem(path: str) -> Problem:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return problem_from_json(data)


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _certified(problem: Problem, k: int, mode_name: str, layout: str = "auto"):
    """Decompose, build the relaxation, certify constant trace, count and verify the certificate.

    layout "dense" takes one clique, "detect" detects cliques from the
    sparsity and "auto" takes the instance's own. Returns (rel, cert,
    stats, residual, seconds), where seconds times the steps before the
    verify; ctp.CtpError, exit code 3, when the verify residual is above
    VERIFY_LIMIT * max(1, trace constant).
    """
    t0 = time.perf_counter()
    mode = SymmetryMode.STAR_CYCLIC if mode_name == "trace" else SymmetryMode.STAR_ONLY
    decomp = dense_decomposition(problem) if layout == "dense" else decompose(problem, detect=layout == "detect")
    rel = build(problem, k, mode, decomp=decomp)
    cert = ctp.certify(rel)
    st = sf.count_stats(rel, cert)
    seconds = time.perf_counter() - t0
    residual = ctp.verify(rel, cert)
    limit = VERIFY_LIMIT * max(1.0, cert.trace_constant)
    if not residual <= limit:
        raise ctp.CtpError(f"certificate verify residual {residual:.3e} is above {limit:.3g}")
    return rel, cert, st, residual, seconds


def _stats_row(problem: Problem, k: int, mode_name: str, rel, st: sf.CountStats) -> dict:
    """The CSV columns of every command: the instance, the order, the structure counts and the mode."""
    return {"n": problem.n, "l": len(problem.equalities), "k": k, "omega": st.omega, "smax": st.smax,
            "zeta": st.zeta, "amax": st.amax, "mode": mode_name, "sparse": int(rel.n_groups > 1)}


def _order(problem: Problem, k: int | None) -> int:
    kmin = minimal_order(problem)
    if k is None:
        return kmin
    if k < kmin:
        raise InputError(f"order {k} is below the minimal order {kmin}")
    return k


def _csv_row(path: str, row: dict) -> None:
    """Append a row; a new or empty file gets the header, one with another header is refused."""
    try:
        with open(path, newline="") as fh:
            header = fh.readline().rstrip("\r\n")
    except OSError:
        header = ""
    if header and header != ",".join(CSV_COLUMNS):
        raise InputError(f"{path} has the header {header!r}, not {','.join(CSV_COLUMNS)!r}; "
                         "write the rows to another file")
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if not header:
            writer.writeheader()
        writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    if args.kind == "sparse":
        if args.u is None:
            raise InputError("sparse instances need --u (clique width)")
        problem = generator.gen_sparse(args.n, args.u, l=args.l, seed=args.seed)
    else:
        problem = generator.gen_dense(args.n, kind=args.kind, l=args.l, seed=args.seed)
    meta = {
        "kind": args.kind,
        "n": args.n,
        "l": len(problem.equalities),
        "u": args.u,
        "seed": args.seed,
    }
    data = problem_to_json(problem, meta)
    text = json.dumps(data, indent=None if args.compact else 1)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}: kind={args.kind} n={args.n} "
              f"ineq={len(problem.inequalities)} eq={len(problem.equalities)}")
    return EXIT_OK


def cmd_count(args) -> int:
    problem = load_problem(args.instance)
    k = _order(problem, args.order)
    rel, _, st, _, _ = _certified(problem, k, args.mode, args.layout)
    print(f"n={problem.n} k={k} groups={rel.n_groups} "
          f"omega={st.omega} smax={st.smax} zeta={st.zeta} amax={st.amax:g}")
    if args.csv:
        _csv_row(args.csv, _stats_row(problem, k, args.mode, rel, st))
    return EXIT_OK


def cmd_ctp(args) -> int:
    problem = load_problem(args.instance)
    k = _order(problem, args.order)
    rel, cert, _, residual, _ = _certified(problem, k, args.mode, args.layout)
    for g, (prov, a_g) in enumerate(zip(cert.provenances, cert.group_traces)):
        print(f"group {g}: {prov} a={a_g:g}")
    print(f"trace constant {cert.trace_constant:g}; verification residual {residual:.3e}")
    return EXIT_OK


def cmd_solve(args) -> int:
    problem = load_problem(args.instance)
    k = _order(problem, args.order)
    modes = ["eig", "trace"] if args.mode == "both" else [args.mode]
    for mode_name in modes:
        rel, cert, st, verified, _ = _certified(problem, k, mode_name, args.layout)
        sdp = sf.assemble(rel, cert)
        rep = cgal.solve(sdp, cgal.CgalConfig(eps=args.eps, max_iters=args.max_iters))
        tag = "converged" if rep.converged else "iteration budget reached"
        print(f"{mode_name} k={k}: value {rep.objective:.6f}  bound {rep.lower_bound:.6f}  gap {rep.gap:.1e}  "
              f"residual {rep.residual:.2e}  verify {verified:.1e}  iters {rep.iterations}  {rep.runtime:.1f}s  "
              f"({tag}, stop {rep.stop_reason}, path {rep.path})")
        if args.export:
            # with both modes, F.ext becomes F-eig.ext and F-trace.ext
            root, ext = os.path.splitext(args.export)
            path = f"{root}-{mode_name}{ext}" if len(modes) > 1 else args.export
            sf.write_sdp(sdp, path)
            print(f"standard form written to {path}")
        if args.csv:
            _csv_row(args.csv, {**_stats_row(problem, k, mode_name, rel, st), "val": f"{rep.objective:.8f}",
                                "time": f"{rep.runtime:.3f}", "resid": f"{rep.residual:.3e}",
                                "bound": f"{rep.lower_bound:.8f}"})
    return EXIT_OK


BENCH_TABLES = {
    "1": [("ball", n, l, None) for n, l in [(10, 3), (20, 5), (30, 8)]],
    "2": [("polydisc", n, l, None) for n, l in [(10, 2), (20, 3), (30, 5)]],
    "3": [("sparse", 1000, 143, 10)],
}


def cmd_bench(args) -> int:
    rows = BENCH_TABLES[args.table]
    for kind, n, l, u in rows:
        if kind == "sparse":
            problem = generator.gen_sparse(n, u, l=l, seed=args.seed)
        else:
            problem = generator.gen_dense(n, kind=kind, l=l, seed=args.seed)
        for k in (1, 2):
            rel, cert, st, _, count_time = _certified(problem, k, args.mode)  # the time leaves out the verify
            row = {**_stats_row(problem, k, args.mode, rel, st), "time": f"{count_time:.3f}"}
            line = (f"table {args.table} {kind} n={n} l={len(problem.equalities)} k={k}: "
                    f"omega={st.omega} smax={st.smax} zeta={st.zeta} amax={st.amax:g}")
            if k == 1 and not args.count_only:
                rep = cgal.solve(sf.assemble(rel, cert), cgal.CgalConfig(eps=args.eps, max_iters=args.max_iters))
                row.update(val=f"{rep.objective:.8f}", time=f"{rep.runtime:.3f}",
                           resid=f"{rep.residual:.3e}", bound=f"{rep.lower_bound:.8f}")
                line += (f"  val={rep.objective:.6f} bound={rep.lower_bound:.6f} resid={rep.residual:.1e} "
                         f"time={rep.runtime:.1f}s")
            print(line)
            if args.csv:
                _csv_row(args.csv, row)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, modes: tuple[str, ...] = ("eig", "trace")) -> None:
    p.add_argument("-k", "--order", type=int, default=None,
                   help="relaxation order (default: minimal admissible)")
    p.add_argument("--mode", choices=list(modes), default="eig",
                   help="eigenvalue or trace optimization (default eig)")
    p.add_argument("--layout", choices=["auto", "dense", "detect"], default="auto",
                   help="clique handling: instance cliques when present (auto), "
                        "single group (dense), or detected from sparsity (detect)")
    p.add_argument("--csv", default=None, help="append a CSV report row to this file")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ncsdp",
                     description="Moment relaxations of noncommutative polynomial "
                                 "optimization problems with constant trace scaling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance", parents=[])
    p.add_argument("--kind", choices=["ball", "polydisc", "sparse"], default="ball")
    p.add_argument("--n", type=int, required=True, help="number of letters")
    p.add_argument("--l", type=int, default=None, help="number of equality constraints")
    p.add_argument("--u", type=int, default=None, help="clique width (sparse only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compact", action="store_true", help="single-line JSON")
    p.add_argument("-o", "--output", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("count", help="structure statistics of the standard form")
    p.add_argument("instance", help="instance JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("ctp", help="certify the constant trace property")
    p.add_argument("instance", help="instance JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_ctp)

    p = sub.add_parser("solve", help="build, certify, rescale, and solve")
    p.add_argument("instance", help="instance JSON file")
    _add_common(p, modes=("eig", "trace", "both"))
    p.add_argument("--eps", type=float, default=1e-4, help="solver accuracy (default 1e-4)")
    p.add_argument("--max-iters", type=int, default=200_000)
    p.add_argument("--export", default=None, help="also write the standard form to this path "
                   "(with --mode both, to PATH-eig and PATH-trace before the extension)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a built-in benchmark family")
    p.add_argument("--table", choices=["1", "2", "3"], required=True,
                   help="1 = dense ball, 2 = dense polydisc, 3 = sparse chain")
    p.add_argument("--mode", choices=["eig", "trace"], default="eig")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--max-iters", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--count-only", action="store_true", help="skip the order-1 solves")
    p.add_argument("--csv", default=None, help="append CSV report rows to this file")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CliqueAssignmentError, CapacityError, ValueError) as exc:
        print(f"ncsdp: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ctp.CtpError as exc:
        print(f"ncsdp: {exc}", file=sys.stderr)
        return EXIT_NO_CTP


if __name__ == "__main__":
    sys.exit(main())
