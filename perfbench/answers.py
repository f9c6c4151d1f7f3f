"""Checks each answer against the benchmark's reference and reduces it to a
verdict for the digest.

A problem is ("wrong", why) when the program answered and the answer
disagrees with the reference or with the library, and ("crash", why) when it
gave no answer: an exception, a traceback or a timeout.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import reference as ref
from workloads import Crash, Request

_WRONG, _CRASH = "wrong", "crash"


class Checker:
    def __init__(self, sq: dict):
        self.sq = sq
        self.stats: Counter = Counter()

    def problems(self, req: Request, answer) -> list[tuple[str, str]]:
        if isinstance(answer, Crash):
            return [(_CRASH, answer.reason)]
        return getattr(self, "_check_" + req.kind)(*req.args, answer)

    # -- in-process answers -------------------------------------------------

    def _degree_problems(self, spec: str, eps: Fraction, a: dict) -> list[str]:
        vector, d = ref.family_vector(spec), a["degree"]
        out = []
        if a["vector"] != vector:
            out.append(f"parsed {spec} as {a['vector']}, expected {vector}")
        if len(a["witness"]) != d + 1 or not ref.witness_fits(a["witness"], vector, eps):
            out.append(f"degree-{d} witness does not fit {vector} within {eps}")
        if d > 0:
            margin = ref.highs_margin(vector, eps, d - 1)
            if margin is not None and margin > ref.DECIDES_INFEASIBLE:
                self.stats["highs_agrees"] += 1
            elif margin is not None and margin < ref.DECIDES_FEASIBLE:
                out.append(f"HiGHS fits {vector} at degree {d - 1} (margin {margin:.3g})")
            else:
                self.stats["highs_undecided"] += 1
        name, _, argstr = spec.partition(":")
        args = [int(x) for x in argstr.split(",")] if argstr else []
        if name == "DJ":
            self.stats["closed_forms"] += 1
            if d != 2 * args[1] + 2:
                out.append(f"degree({spec}) = {d}, closed form {2 * args[1] + 2}")
        if name == "PARITY":
            self.stats["closed_forms"] += 1
            if d != args[0]:
                out.append(f"degree({spec}, {eps}) = {d}, expected n = {args[0]}")
        return out

    def _check_exact(self, spec: str, a: dict) -> list[tuple[str, str]]:
        out = self._degree_problems(spec, Fraction(0), a)
        vector = ref.family_vector(spec)
        n = len(vector) - 1
        dc = ref.d_complexity(vector)
        if a["d_complexity"] != dc:
            out.append(f"d_complexity = {a['d_complexity']}, reference {dc}")
        if spec.startswith("DJ:"):
            m, k = map(int, spec[3:].split(","))
            if a["d_complexity"] != m // 2 + k + 1:
                out.append(f"d_complexity({spec}) = {a['d_complexity']}, closed form {m // 2 + k + 1}")
        out += self._tag_problems(vector, n, a["tag"], a["degree"])
        return [(_WRONG, p) for p in out]

    def _tag_problems(self, vector: str, n: int, tag, d: int) -> list[str]:
        if (tag is None) != (d > 2):
            return [f"classify_deg2 gave {tag} for a degree-{d} function"]
        if tag is None:
            return []
        kind, param, transform = tag
        if kind == "constant-or-empty":
            ok = len(set(vector) - {"*"}) <= 1
        else:
            ok = ref.transform_vector(vector, transform) == ref.catalogue_vector(kind, param, n)
        return [] if ok else [f"{vector} does not match its tag {tag}"]

    def _check_approx(self, spec: str, eps: str, a: dict) -> list[tuple[str, str]]:
        return [(_WRONG, p) for p in self._degree_problems(spec, Fraction(eps), a)]

    def _check_identity(self, n: int, k: int, holds: bool) -> list[tuple[str, str]]:
        return [] if holds is True else [(_WRONG, f"check_identity({n}, {k}) returned {holds}")]

    def _check_verify(self, alg: str, params: tuple, transform: str, a: dict) -> list[tuple[str, str]]:
        p = dict(params)
        if alg in ref.SUBROUTINES:
            function = f"xquery-contract:m={p['n']}" if alg == "xquery" else f"grover1-contract:n={p['n']}"
        else:
            function = ref.transform_vector(ref.algorithm_vector(alg, p), transform)
        want = {"function": function, "inputs_checked": ref.domain_size(alg, p, transform),
                "all_exact": True, "worst_case_queries": ref.query_budget(alg, p)}
        return [(_WRONG, f"{key} = {a[key]}, expected {value}") for key, value in want.items() if a[key] != value]

    # -- CLI answers ----------------------------------------------------------

    def _check_cli(self, argv: tuple, expect: str, answer) -> list[tuple[str, str]]:
        code, out, err = answer
        if code < 0:
            return [(_CRASH, f"killed by signal {-code}")]
        if "Traceback" in err:
            return [(_CRASH, f"exit {code} with traceback: {err.strip().splitlines()[-1]}")]
        has_error_line = any(line.startswith("error:") or ": error:" in line for line in err.splitlines())
        if expect == "error":
            ok = code == 2 and has_error_line
            return [] if ok else [(_WRONG, f"exit {code}, expected 2 with an error: line")]
        lib_code, lib_json, lib_human, own = self._library_answer(argv)
        if code != lib_code:
            return [(_WRONG, f"exit {code}, library says {lib_code}")]
        problems = own
        if "--json" in argv:
            payload = json.loads(out)
            problems += [f"{key} = {payload.get(key)!r}, library {value!r}"
                         for key, value in lib_json.items() if payload.get(key) != value]
        else:
            lines = _human_lines(out)
            problems += [f"line {key!r} = {lines.get(key)!r}, library {value!r}"
                         for key, value in lib_human.items() if lines.get(key) != value]
        return [(_WRONG, p) for p in problems]

    def _library_answer(self, argv: tuple):
        """Exit code, JSON fields and human lines the CLI should print, from
        the library, plus problems found by the reference in that answer."""
        sq = self.sq
        cmd, opts = argv[0], _options(argv)
        own: list[str] = []
        if cmd in ("degree", "classical", "classify"):
            f = sq["symfun"].from_string(opts["fn"])
            head = {"vector": str(f)}
        if cmd == "degree":
            eps = Fraction(opts.get("eps", "0"))
            d = sq["polydeg"].degree(f, eps)
            witness = sq["polydeg"].lp_feasible(f, eps, d).witness
            lower = sq["polydeg"].qe_lower_bound(f) if eps == 0 else (d + 1) // 2
            own = self._degree_problems(opts["fn"], eps, {"vector": str(f), "degree": d, "witness": witness.coeffs})
            fields = {"degree": d, "witness": [str(c) for c in witness.coeffs], "qe_lower_bound": lower}
            human = {"degree": str(d), "witness": str(witness), "qe_lower_bound": str(lower)}
            return 0, {**head, "eps": str(eps), **fields}, human, own
        if cmd == "classical":
            d = sq["classical"].d_complexity(f)
            if d != ref.d_complexity(str(f)):
                own.append(f"d_complexity {d}, reference {ref.d_complexity(str(f))}")
            return 0, {**head, "d_complexity": d}, {"d_complexity": str(d)}, own
        if cmd == "classify":
            tag = sq["polydeg"].classify_deg2(f)
            t = None if tag is None else (tag.kind.value, tag.param, tag.transform)
            own = self._tag_problems(str(f), f.n, t, sq["polydeg"].degree(f, 0))
            family = None if tag is None else {"kind": t[0], "param": t[1], "transform": t[2]}
            return (0 if tag else 1), {**head, "family": family}, {"family": str(tag) if tag else "none"}, own
        if cmd == "det":
            n, k = int(opts["n"]), int(opts["k"])
            lhs, rhs = sq["identities"].binom_det(n, k), sq["identities"].binom_det_closed(n, k)
            if lhs != rhs:
                own.append(f"binomial determinant identity fails at n={n}, k={k}")
            return 0, {"determinant": str(lhs), "closed_form": str(rhs), "match": lhs == rhs}, \
                {"determinant": str(lhs), "match": str(lhs == rhs)}, own
        if cmd == "families":
            return 0, {"algorithms": {alg: list(p) for alg, p in ref.PARAMS.items()}}, {}, own
        alg = opts["alg"]
        params = {key: int(opts[key]) for key in ("n", "k", "l") if key in opts}
        if cmd == "verify":
            r = sq["algos"].verify_exact(alg, params)
            a = {"function": r.function, "inputs_checked": r.inputs_checked, "all_exact": r.all_exact,
                 "worst_case_queries": r.worst_case_queries}
            own = [p for _, p in self._check_verify(alg, tuple(params.items()), "identity", a)]
            return (0 if r.all_exact else 1), a, {key: str(value) for key, value in a.items()}, own
        x = opts["input"]
        run = getattr(sq["algos"], "dw_general" if alg == "dw" else alg)(*params.values(), x)
        branches = [{"path": list(b.path), "probability": float(f"{b.probability:.12g}"),
                     "output": list(b.output) if isinstance(b.output, tuple) else b.output,
                     "queries": b.queries_used} for b in run.branches]
        if alg not in ref.SUBROUTINES:
            value = ref.algorithm_vector(alg, params)[x.count("1")]
            if value != "*" and {b["output"] for b in branches} != {int(value)}:
                own.append(f"outputs {sorted({b['output'] for b in branches})} on {x}, expected {value}")
        return 0, {"branches": branches}, {"branches": str(len(branches))}, own

    # -- verdicts -------------------------------------------------------------

    def verdict(self, req: Request, answer):
        """What the digest hashes: degrees, exactness, query counts, class
        tags and d_complexity, never witnesses or probabilities."""
        if isinstance(answer, Crash):
            return "crash"
        if req.kind in ("exact", "approx"):
            return {key: value for key, value in answer.items() if key not in ("witness", "vector")}
        if req.kind != "cli":
            return answer
        code, out, _ = answer
        if code == 2 or not out:
            return [code]
        if "--json" not in req.args[0]:
            return [code, {key: value for key, value in _human_lines(out).items() if key in _HUMAN_VERDICTS}]
        payload = json.loads(out)
        payload.pop("witness", None)
        if "branches" in payload:
            payload["branches"] = sorted({(b["output"] if isinstance(b["output"], int) else tuple(b["output"]),
                                           b["queries"]) for b in payload["branches"]})
        return [code, payload]


_HUMAN_VERDICTS = {"degree", "qe_lower_bound", "inputs_checked", "all_exact", "worst_case_queries",
                   "d_complexity", "family", "match", "branches", "expected"}


def _options(argv: tuple) -> dict:
    opts, tokens = {}, iter(argv[1:])
    for tok in tokens:
        if tok != "--json":
            opts[tok[2:]] = next(tokens)
    return opts


def _human_lines(out: str) -> dict:
    """First word of each line mapped to the rest; run's branch count is
    the first number after 'branches'."""
    lines = {}
    for line in out.splitlines():
        key, _, rest = line.strip().partition(" ")
        lines.setdefault(key, rest.strip())
    if "branches" in lines:
        lines["branches"] = lines["branches"].split()[0]
    return lines
