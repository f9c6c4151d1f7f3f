"""Command-line front end.

Subcommands: degree (least feasible profile degree with witness), run (branch
listing of one algorithm execution), verify (whole-domain exactness), classical
(deterministic query complexity), classify (degree <= 2 catalogue match), det
(binomial determinant identity), families (available constructors).  ``--json``
switches to machine-readable output; verify/classify/det exit 0 exactly when
the queried property holds.  Each handler imports the layers it calls, so a
process loads only what its subcommand runs.
"""

from __future__ import annotations

import argparse
import os
import sys


def _prob(p: float) -> float:
    return float(f"{p:.12g}")


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if args.json:
        import json  # only --json pays for it

        print(json.dumps(payload, indent=2))
    else:
        print(human, end="")


def _report(rows: dict[str, object]) -> str:
    """One line per label and value, every label padded to the longest plus two."""
    width = max(map(len, rows)) + 2
    return "".join(f"{label:<{width}}{value}\n" for label, value in rows.items())


def _collect_params(args: argparse.Namespace) -> tuple[algos.Algorithm, dict[str, int]]:
    """The registry entry of --alg and its parameter values, in order."""
    from . import algos

    entry = algos.ALGORITHMS.get(args.alg)
    if entry is None:
        raise ValueError(f"unknown algorithm {args.alg!r}; choose from {sorted(algos.ALGORITHMS)}")
    params = {}
    for name in entry.params:
        value = getattr(args, name, None)
        if value is None:
            raise ValueError(f"algorithm {args.alg!r} requires --{name}")
        params[name] = value
    return entry, params


def _cmd_degree(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from . import polydeg, symfun

    f = symfun.from_string(args.fn)
    # Fraction builds 10**|exponent| in full, so an exponent whose power has
    # more than 4300 digits (Python's limit on integer strings) is refused unparsed
    exponent = args.eps.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) >= 4300):
        raise ValueError("--eps has an exponent of 4300 or more: its power of 10 passes Python's 4300-digit limit")
    try:
        eps = Fraction(args.eps)
    except ZeroDivisionError:
        raise ValueError(f"--eps {args.eps!r} has a zero denominator") from None
    d, result = polydeg.least_degree(f, eps)
    witness = result.witness
    lower = (d + 1) // 2
    payload = {
        "command": "degree",
        "fn": args.fn,
        "vector": str(f),
        "eps": str(eps),
        "degree": d,
        "witness": [str(c) for c in witness.coeffs],
        "qe_lower_bound": lower,
    }
    rows = {"function": f"{args.fn} = {f}", "eps": eps, "degree": d, "witness": witness, "qe_lower_bound": lower}
    _emit(args, payload, _report(rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from . import algos

    alg = args.alg
    entry, params = _collect_params(args)
    if args.input is None:
        raise ValueError("run requires --input")
    run = algos.run(alg, params, args.input)

    in_promise = None
    expected = None
    if entry.family is not None:
        value = entry.family(*params.values()).values[args.input.count("1")]
        in_promise = value != "*"
        expected = int(value) if in_promise else None

    payload = {
        "command": "run",
        "alg": alg,
        "params": params,
        "input": args.input,
        "in_promise": in_promise,
        "expected": expected,
        "branches": [
            {
                "path": list(b.path),
                "probability": _prob(b.probability),
                "output": list(b.output) if isinstance(b.output, tuple) else b.output,
                "queries": b.queries_used,
            }
            for b in run.branches
        ],
    }
    lines = [f"algorithm {alg}  " + "  ".join(f"{k}={v}" for k, v in params.items())]
    lines.append(f"input     {args.input}  (weight {args.input.count('1')})")
    if in_promise is False:
        lines.append("note      input outside the promise; output unconstrained (diagnostic only)")
    elif expected is not None:
        lines.append(f"expected  {expected}")
    width = max((len(" ; ".join(b.path)) for b in run.branches), default=4)
    lines.append(f"{'path'.ljust(width)}  {'probability':>14}  output  queries")
    for b in run.branches:
        out = f"({b.output[0]},{b.output[1]})" if isinstance(b.output, tuple) else str(b.output)
        lines.append(
            f"{' ; '.join(b.path).ljust(width)}  {_prob(b.probability):>14.12g}  {out:>6}  {b.queries_used:>7}"
        )
    total = sum(b.probability for b in run.branches)
    lines.append(f"branches  {len(run.branches)}   probability sum {_prob(total):.12g}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import algos

    alg = args.alg
    _, params = _collect_params(args)
    report = algos.verify_exact(alg, params)
    payload = {
        "command": "verify",
        "alg": alg,
        "params": params,
        "function": report.function,
        "inputs_checked": report.inputs_checked,
        "all_exact": report.all_exact,
        "worst_case_queries": report.worst_case_queries,
        "failures": [list(fail) for fail in report.failures[:20]],
    }
    human = _report({
        "algorithm": f"{alg}  " + "  ".join(f"{k}={v}" for k, v in params.items()),
        "function": report.function,
        "inputs_checked": report.inputs_checked,
        "all_exact": report.all_exact,
        "worst_case_queries": report.worst_case_queries,
    })
    _emit(args, payload, human + "".join(f"FAILURE on {x}: {desc}\n" for x, desc in report.failures[:20]))
    return 0 if report.all_exact else 1


def _cmd_classical(args: argparse.Namespace) -> int:
    from . import classical, symfun

    f = symfun.from_string(args.fn)
    d = classical.d_complexity(f)
    payload = {"command": "classical", "fn": args.fn, "vector": str(f), "d_complexity": d}
    _emit(args, payload, _report({"function": f"{args.fn} = {f}", "d_complexity": d}))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from . import polydeg, symfun

    f = symfun.from_string(args.fn)
    tag = polydeg.classify_deg2(f)
    payload = {
        "command": "classify",
        "fn": args.fn,
        "vector": str(f),
        "family": None
        if tag is None
        else {"kind": tag.kind.value, "param": tag.param, "transform": tag.transform},
    }
    _emit(args, payload, _report({"function": f"{args.fn} = {f}", "family": tag if tag is not None else "none"}))
    return 0 if tag is not None else 1


def _cmd_det(args: argparse.Namespace) -> int:
    from . import identities

    lhs = identities.binom_det(args.n, args.k)
    rhs = identities.binom_det_closed(args.n, args.k)
    match = lhs == rhs
    payload = {
        "command": "det",
        "n": args.n,
        "k": args.k,
        "determinant": str(lhs),
        "closed_form": str(rhs),
        "match": match,
    }
    human = f"n={args.n} k={args.k}\n" + _report({"determinant": lhs, "closed form": rhs, "match": match})
    _emit(args, payload, human)
    return 0 if match else 1


def _cmd_families(args: argparse.Namespace) -> int:
    from . import algos, symfun

    functions = [("literal", "string over 0/1/* of length >= 2, value vector by weight")]
    functions += [(f"{name}:{','.join(params)}", desc) for name, (params, _, desc) in symfun.FAMILIES.items()]
    payload = {
        "command": "families",
        "functions": [{"spec": spec, "description": desc} for spec, desc in functions],
        "algorithms": {name: list(entry.params) for name, entry in algos.ALGORITHMS.items()},
    }
    lines = ["function constructors:"]
    for spec, desc in functions:
        lines.append(f"  {spec:<14} {desc}")
    lines.append("algorithms (flags for run/verify):")
    for name, entry in algos.ALGORITHMS.items():
        lines.append(f"  {name:<8} --" + " --".join(entry.params))
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symquery",
        description="Exact query algorithms on weight-promise problems: "
        "simulation, degree certificates, classical complexity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, **flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag, kind in flags.items():
            required = kind.endswith("!")
            p.add_argument(f"--{flag}", type=int if kind.startswith("int") else str,
                           required=required, default=None)
        return p

    p = add("degree", _cmd_degree, fn="str!")
    p.add_argument("--eps", type=str, default="0", help="rational error bound, e.g. 1/8")
    add("run", _cmd_run, alg="str!", n="int", k="int", l="int", input="str")
    add("verify", _cmd_verify, alg="str!", n="int", k="int", l="int")
    add("classical", _cmd_classical, fn="str!")
    add("classify", _cmd_classify, fn="str!")
    add("det", _cmd_det, n="int!", k="int!")
    add("families", _cmd_families)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error or help
        return exc.code
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone: what is left in the buffer goes to devnull,
        # so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the answer was written", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
