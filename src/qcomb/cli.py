"""Command-line front end: generate, unravel, verify, sample, report.

Every randomized subcommand is bit-reproducible from its flags plus --seed.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algorithms import (
    UnravelParams,
    UnravelResult,
    error_bound_approximate,
    query_budget,
    unravel_general_c,
    unravel_memoryless,
    unravel_recursive,
    unravel_total_order,
)
from .channels import (
    Comb,
    ProcessMatrix,
    Unravelling,
    chi1,
    compose_comb,
    kraus_rank,
    membership_residuals,
)
from .sampling import Rng, sample_outcome_matrix, swaptest_draw_count, wire_povms
from .synth import GroundTruth, SynthSpec, random_comb, random_memoryless

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

FAMILY_FLAGS = {
    "isometric-chain": "isometric_chain",
    "memoryless": "memoryless",
    "total-order-chain": "total_order_chain",
    "entangling-c2": "entangling_c2",
}

ALGORITHMS = ("recursive", "general-c", "total-order", "memoryless")


class UsageFault(ValueError):
    """Bad flags or malformed input files; maps to exit code 2."""


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for interface stability; outputs never depend on it",
    )
    sub.add_argument(
        "--tol", type=float, default=1e-8, help="residual tolerance for exact checks"
    )


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageFault(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageFault(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_process(path: str) -> ProcessMatrix:
    """A process file is either a comb (teeth) or a bare Choi process."""
    obj = _read_json(path)
    try:
        if "teeth" in obj:
            return compose_comb(Comb.from_json(obj))
        if "repr" in obj:
            return ProcessMatrix.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageFault(f"{path} is not a valid process file: {exc}") from exc
    raise UsageFault(f"{path} has neither 'teeth' nor 'repr': not a process file")


def load_unravelling(path: str) -> Unravelling:
    """Accept result files, truth files, or bare step lists."""
    obj = _read_json(path)
    try:
        if "steps" in obj:
            return Unravelling.from_json(obj)
        if "ordering" in obj:
            return Unravelling.from_json({"steps": obj["ordering"]})
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageFault(f"{path} is not a valid unravelling file: {exc}") from exc
    raise UsageFault(f"{path} has neither 'steps' nor 'ordering'")


def _truth_path(out: str) -> str:
    p = Path(out)
    if p.suffix == ".json":
        return str(p.with_suffix(".truth.json"))
    return out + ".truth.json"


def cmd_generate(args: argparse.Namespace) -> int:
    family = FAMILY_FLAGS[args.family]
    rng = Rng(args.seed)
    if family == "memoryless":
        try:
            proc, perm = random_memoryless(
                args.n, args.dim, rng, chi_min_target=args.chi_min_target
            )
        except ValueError as exc:
            raise UsageFault(str(exc)) from exc
        ordering = Unravelling(
            tuple(
                ((proc.input_labels[i],), (proc.output_labels[perm[i]],))
                for i in range(args.n)
            )
        )
        achieved = min(
            chi1(proc, {proc.input_labels[i]}, {proc.output_labels[perm[i]]})
            for i in range(args.n)
        )
        truth = GroundTruth(ordering, achieved, kraus_rank(proc)).to_json()
        truth["permutation"] = list(perm)
        _write_json(args.out, proc.to_json())
    else:
        try:
            spec = SynthSpec(
                n=args.n,
                d=args.dim,
                d_mem=args.mem_dim,
                d_env=args.d_env,
                chi_min_target=args.chi_min_target,
                family=family,
            )
            comb, gt = random_comb(spec, rng)
        except ValueError as exc:
            raise UsageFault(str(exc)) from exc
        truth = gt.to_json()
        _write_json(args.out, comb.to_json())
    tpath = _truth_path(args.out)
    _write_json(tpath, truth)
    print(f"wrote {args.out}")
    print(f"wrote {tpath}")
    return EXIT_OK


def cmd_unravel(args: argparse.Namespace) -> int:
    proc = load_process(args.process)
    rng = Rng(args.seed)
    try:
        if args.algorithm in ("recursive", "general-c"):
            params = UnravelParams(
                chi_min=args.chi_min,
                kappa0=args.kappa,
                mode=args.mode,
                c=args.c,
                delta=args.delta,
                eps=args.eps,
                rank_bound=args.rank_bound,
                eta_max=args.eta_max,
                seed=args.seed,
                tol=args.tol,
            )
            runner = unravel_recursive if args.algorithm == "recursive" else unravel_general_c
            res = runner(proc, params, rng)
        else:
            n_rows = None
            if args.mode == "sampled":
                if args.queries is None or args.queries < 1:
                    raise UsageFault("sampled mode needs --queries >= 1")
                n_rows = args.queries
            if args.algorithm == "total-order":
                res = unravel_total_order(proc, n_rows, args.chi_min, rng)
            else:
                res = unravel_memoryless(proc, n_rows, args.chi_min / 2.0, rng)
    except UsageFault:
        raise
    except ValueError as exc:
        raise UsageFault(str(exc)) from exc

    out = res.to_json()
    out["algorithm"] = args.algorithm
    if args.algorithm in ("recursive", "general-c"):
        n = max(len(proc.inputs), len(proc.outputs), 1)
        d_a = max((w.dim for w in proc.inputs), default=1)
        delta, eps, kappa = params.derived(n, d_a)
        out["params"] = {
            "chi_min": args.chi_min,
            "kappa0": args.kappa,
            "c": args.c,
            "rank_bound": args.rank_bound,
            "eta_max": args.eta_max,
            "seed": args.seed,
            "n": n,
            "delta": delta,
            "eps": eps,
            "kappa": kappa,
        }
        if args.mode == "sampled":
            out["params"]["n_swap"] = swaptest_draw_count(eps, kappa)
    else:
        out["params"] = {"chi_min": args.chi_min, "seed": args.seed}
        if args.mode == "sampled":
            out["params"]["n_rows"] = args.queries
    if res.ind is not None:
        out["chi_hat"] = [[float(v) for v in row] for row in res.ind.chi_hat]
        out["chi_labels"] = {
            "inputs": list(res.ind.input_labels),
            "outputs": list(res.ind.output_labels),
        }
    _write_json(args.out, out)
    print(f"wrote {args.out} ({len(res.unravelling.steps)} steps, {res.queries} queries)")
    for w in res.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def _step_str(pk, qk) -> str:
    return f"({', '.join(pk)}) -> ({', '.join(qk)})"


def cmd_verify(args: argparse.Namespace) -> int:
    proc = load_process(args.process)
    u = load_unravelling(args.unravelling)
    try:
        residuals = membership_residuals(proc, u)
    except (ValueError, KeyError) as exc:
        raise UsageFault(str(exc)) from exc
    m = len(u.steps)
    # residuals[i] belongs to step m-i (steps m..2, tested last-first)
    failing = None
    for i, res in enumerate(residuals):
        k = m - i
        pk, qk = u.steps[k - 1]
        status = "ok" if res <= args.tol else "FAIL"
        print(f"step {k} {_step_str(pk, qk)}: residual {res:.3e} {status}")
        if res > args.tol and failing is None:
            failing = k
    if m:
        pk, qk = u.steps[0]
        print(f"step 1 {_step_str(pk, qk)}: first step, holds by construction")
    if failing is not None:
        print(f"membership FAILED at step {failing} (tol {args.tol:g})")
        return EXIT_VERIFY
    print(f"membership holds at tol {args.tol:g}")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    if args.queries < 1:
        raise UsageFault("--queries must be >= 1")
    proc = load_process(args.process)
    rng = Rng(args.seed)
    in_povms, out_povms = wire_povms(proc, rng)
    om = sample_outcome_matrix(proc, in_povms, out_povms, args.queries, rng.child(2))
    om.write_csv(args.out)
    print(f"wrote {args.out} ({args.queries} rows) and {args.out}.povm.json")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    obj = _read_json(args.result)
    try:
        res = UnravelResult.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageFault(f"{args.result} is not a result file: {exc}") from exc

    steps = res.unravelling.steps
    print(f"unravelling ({len(steps)} steps):")
    for k, (pk, qk) in enumerate(steps, start=1):
        print(f"  {k}: {_step_str(pk, qk)}")
    print(f"mode: {res.mode}")

    params = obj.get("params", {})
    if res.mode == "exact":
        print(f"queries: {res.queries} (exact mode)")
    elif "n_swap" in params:
        n, eps, kappa = params["n"], params["eps"], params["kappa"]
        n_swap = params["n_swap"]
        budget = query_budget(n, n_swap)
        print(
            f"queries: {res.queries} of budget 3*n^3*N = {budget} "
            f"(n={n}, N = ceil(2*eps^-2*ln(2/kappa)) = {n_swap}, "
            f"eps={eps:g}, kappa={kappa:g})"
        )
    elif "n_rows" in params:
        print(f"queries: {res.queries} ({params['n_rows']} outcome rows requested)")
    else:
        print(f"queries: {res.queries}")

    if "chi_hat" in obj:
        ins = obj["chi_labels"]["inputs"]
        outs = obj["chi_labels"]["outputs"]
        width = max(6, *(len(s) for s in ins + outs)) + 2
        print("chi_hat:")
        print(" " * width + "".join(f"{o:>{width}}" for o in outs))
        for label, row in zip(ins, obj["chi_hat"]):
            print(f"{label:>{width}}" + "".join(f"{v:>{width}.4f}" for v in row))

    if res.certificate is not None and res.certificate.records:
        cert = res.certificate
        print("certificate (k, eta, r):")
        for k, eta, r in cert.records:
            print(f"  {k}: eta={eta:.3e} r={r}")
        m = len(steps)
        bound = error_bound_approximate(cert, m)
        print(
            f"error bound: 8*sqrt(2)*m*r_max^(1/4)*eta_max^(1/2) = {bound:.6g} "
            f"(m={m}, r_max={cert.r_max}, eta_max={cert.eta_max:g})"
        )

    if res.warnings:
        print("warnings:")
        for w in res.warnings:
            print(f"  {w}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcomb",
        description="Generate, unravel, verify, sample, and report on "
        "multi-time quantum processes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="draw a random process with known structure")
    g.add_argument("--family", choices=sorted(FAMILY_FLAGS), required=True)
    g.add_argument("--n", type=int, required=True, help="number of teeth / pairs")
    g.add_argument("--dim", type=int, default=2, help="wire dimension")
    g.add_argument("--mem-dim", type=int, default=2, help="memory dimension cap")
    g.add_argument("--d-env", type=int, default=1, help="final environment dimension")
    g.add_argument("--chi-min-target", type=float, default=0.1)
    g.add_argument("--out", default="comb.json")
    _common_flags(g)
    g.set_defaults(fn=cmd_generate)

    u = sub.add_parser("unravel", help="recover a causal ordering")
    u.add_argument("--process", required=True)
    u.add_argument("--algorithm", choices=ALGORITHMS, default="recursive")
    u.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    u.add_argument("--chi-min", type=float, default=0.1)
    u.add_argument("--kappa", type=float, default=0.05, help="total failure budget")
    u.add_argument("--c", type=int, default=1, help="block-size cap for general-c")
    u.add_argument("--delta", type=float, default=None)
    u.add_argument("--eps", type=float, default=None)
    u.add_argument("--rank-bound", type=int, default=None)
    u.add_argument("--eta-max", type=float, default=1e-2)
    u.add_argument(
        "--queries",
        type=int,
        default=None,
        help="outcome rows for sampled total-order/memoryless runs",
    )
    u.add_argument("--out", default="result.json")
    _common_flags(u)
    u.set_defaults(fn=cmd_unravel)

    v = sub.add_parser("verify", help="check an unravelling against a process")
    v.add_argument("--process", required=True)
    v.add_argument("--unravelling", required=True)
    _common_flags(v)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("sample", help="draw a POVM outcome matrix")
    s.add_argument("--process", required=True)
    s.add_argument("--queries", type=int, required=True, help="rows to draw")
    s.add_argument("--out", default="outcomes.csv")
    _common_flags(s)
    s.set_defaults(fn=cmd_sample)

    r = sub.add_parser("report", help="summarize a result file")
    r.add_argument("--result", required=True)
    _common_flags(r)
    r.set_defaults(fn=cmd_report)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except UsageFault as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
