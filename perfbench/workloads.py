"""Seeded request decks for the four workloads, and the closed-loop client
that sends them to symquery one at a time.

A deck is the fixed list of requests one pass sends.  The seed picks the
random vectors, the order, the transforms and the CLI argv, while the mix of
request kinds and sizes is the same for every seed, so that runs on
different seeds measure the same work.
"""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

from reference import ALGORITHMS, SUBROUTINES, TRANSFORMS, algorithm_vector, dw_supported

WORKLOADS = ("exact-sweep", "bounded-error", "verify-domain", "cli-session")
EPS_POSITIVE = ("1/8", "1/4", "1/3")
CLI_TIMEOUT_S = 60.0
# classify inputs that match the degree-2 catalogue, next to random vectors
CATALOGUE_SPECS = ("F1:7,5", "F2:8,5", "F3:7,4", "F4:7")
LAYERS = ("symfun", "polydeg", "classical", "identities", "qsim", "algos")


@dataclass(frozen=True)
class Request:
    """One question sent to the program.

    kind is "exact" (eps = 0 degree, witness, classify, d_complexity),
    "approx" (degree and witness at eps > 0), "identity", "verify" or "cli".
    """

    kind: str
    args: tuple

    def label(self) -> str:
        if self.kind == "cli":
            return "symquery " + " ".join(self.args[0])
        return f"{self.kind}{self.args}"


@dataclass(frozen=True)
class Crash:
    """A request that ended without an answer."""

    reason: str


# ---------------------------------------------------------------------------
# Decks
# ---------------------------------------------------------------------------


def random_vector(rng: random.Random, n: int, star_share: float = 0.35) -> str:
    """A 0/1/* vector of length n+1 with round(star_share * (n+1)) undefined
    weights and at least one 0 and one 1.  The number of undefined weights
    drives the LP's cost, so fixing it keeps a deck's cost steady across seeds."""
    stars = round(star_share * (n + 1))
    while True:
        undefined = set(rng.sample(range(n + 1), stars))
        v = "".join("*" if w in undefined else rng.choice("01") for w in range(n + 1))
        if "0" in v and "1" in v:
            return v


def family_specs(rng: random.Random, sizes: dict) -> list[str]:
    """One instance of every family, at the given n per family; the seed
    picks the remaining parameters."""
    specs = []
    for name, n in sizes.items():
        if name in ("F1", "EXACT", "THRESHOLD"):
            specs.append(f"{name}:{n},{rng.randint(1, n - 1)}")
        elif name in ("DJ", "F2", "F3"):
            specs.append(f"{name}:{n},{rng.randint(1, n // 2 - 1)}")
        elif name == "DW":
            k, l = sorted(rng.sample(range(n + 1), 2))
            specs.append(f"DW:{n},{k},{l}")
        else:
            specs.append(f"{name}:{n}")
    return specs


# Family instances in the timed decks are fixed.  They are the heaviest
# requests, so they set the tail, and a seed that changed their parameters
# would change a pass's cost several-fold.  The seed draws the random vectors,
# which are many, and the order.
EXACT_FAMILIES = ("DJ:16,3", "DJ:20,4", "F1:17,11", "F1:19,7", "F2:18,5", "F3:19,12", "F4:19", "DW:16,2,10",
                  "DW:18,5,13", "OR:20", "AND:19", "PARITY:20", "MAJ:19", "EXACT:18,6", "THRESHOLD:18,7")
EXACT_IDENTITIES = ((100, 25), (110, 27), (120, 30))
# all heavier than any random n = 7 question, so the tail is one of them
APPROX_FAMILIES = (("PARITY:9", "1/8"), ("MAJ:9", "1/3"), ("THRESHOLD:9,3", "1/4"), ("PARITY:10", "1/4"),
                   ("MAJ:10", "1/4"), ("THRESHOLD:10,3", "1/3"))
# Most random vectors share one size, so the median request is one of them
# and does not move with the seed; a few more cover n = 6-14, and the fixed
# families n = 16-20.
EXACT_SIZES = ((12, 0.35),) * 45 + tuple((n, share) for n in (6, 8, 10, 14) for share in (0.2, 0.5))
# The median bounded-error request is a random vector whose cost moves with
# the seed, so the deck holds many of them and few families.
APPROX_SIZES = (7,) * 16
# Fixed commands that cost more than any seeded one, so that the tail (p88
# of the session's samples) is read from them and does not move with the
# seed.  Two build unitaries (grover1, f4), two run the eps > 0 simplex.
CLI_HEAVY = (("verify", "--alg", "grover1", "--n", "16"), ("verify", "--alg", "f4", "--n", "11", "--json"),
             ("degree", "--fn", "MAJ:7", "--eps", "1/4"), ("degree", "--fn", "PARITY:8", "--eps", "1/8", "--json"))
CLI_FAMILY_SIZES = {"DJ": 8, "F1": 7, "F2": 9, "F3": 7, "F4": 9, "DW": 8, "OR": 6, "AND": 7, "PARITY": 8,
                    "MAJ": 9, "EXACT": 10, "THRESHOLD": 6}


def _exact_sweep(rng: random.Random, tiny: bool) -> list[Request]:
    if tiny:
        sizes, families, dets = ((5, 0.35), (6, 0.35), (7, 0.35)), ("DJ:6,1", "F4:7", "PARITY:5"), ((21, 5),)
    else:
        sizes, families, dets = EXACT_SIZES, EXACT_FAMILIES, EXACT_IDENTITIES
    deck = [Request("exact", (random_vector(rng, n, share),)) for n, share in sizes]
    deck += [Request("exact", (spec,)) for spec in families]
    deck += [Request("identity", nk) for nk in dets]
    rng.shuffle(deck)
    return deck


def _bounded_error(rng: random.Random, tiny: bool) -> list[Request]:
    if tiny:
        sizes, families = (5, 6), (("PARITY:5", "1/3"), ("MAJ:6", "1/8"), ("THRESHOLD:6,2", "1/4"))
    else:
        sizes, families = APPROX_SIZES, APPROX_FAMILIES
    deck = [Request("approx", (random_vector(rng, n), eps)) for n in sizes for eps in EPS_POSITIVE]
    deck += [Request("approx", family) for family in families]
    rng.shuffle(deck)
    return deck


def _verify_domain(rng: random.Random, tiny: bool) -> list[Request]:
    """Sizes and parameters are fixed, except dj's, whose weight-class path
    costs the same at any size; the seed draws the transforms.  The order is
    fixed too: algorithms share subroutine inputs (dw1 and the grover1
    contract, f1 and f3), so whichever runs first pays for the cache entries,
    and a shuffled order made request costs move with the seed."""
    if tiny:
        slots = [("xquery", {"n": 5}), ("grover1", {"n": 8}), ("dj", {"n": 6, "k": 1}),
                 ("dj", {"n": 30, "k": rng.randrange(15)}), ("dhw", {"n": 6, "k": 4}),
                 ("f1", {"n": 7}), ("f3", {"n": 7}), ("dw1", {"n": 8}), ("dw2", {"n": 8}),
                 ("dw", {"n": 8, "k": 0, "l": 2}), ("f2", {"n": 6, "k": 2}), ("f4", {"n": 7})]
    else:
        slots = [("xquery", {"n": 8}), ("xquery", {"n": 10}), ("grover1", {"n": 12}), ("grover1", {"n": 16})]
        m = rng.choice((8, 10, 12, 14))
        slots += [("dj", {"n": m, "k": rng.randrange(m // 2)}), ("dj", {"n": 30, "k": rng.randrange(15)})]
        slots += [("dhw", {"n": 10, "k": 7}), ("dhw", {"n": 12, "k": 8})]
        slots += [(alg, {"n": n}) for alg in ("f1", "f3", "f4") for n in (11, 13)]
        slots += [(alg, {"n": n}) for alg in ("dw1", "dw2") for n in (12, 16)]
        slots += [("dw", {"n": 12, "k": 0, "l": 4}), ("dw", {"n": 14, "k": 2, "l": 10})]
        slots += [("f2", {"n": 10, "k": 4}), ("f2", {"n": 12, "k": 5})]
    deck = []
    for alg, params in slots:
        transforms = ("identity",) if alg in SUBROUTINES else rng.sample(TRANSFORMS, 2)
        deck += [Request("verify", (alg, tuple(params.items()), t)) for t in transforms]
    return deck


def dw_params(rng: random.Random, n: int) -> dict:
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n + 1) if dw_supported(n, k, l)]
    k, l = rng.choice(pairs)
    return {"n": n, "k": k, "l": l}


def small_params(rng: random.Random, alg: str) -> dict:
    """Parameters at which one CLI run or verify takes a few milliseconds."""
    if alg == "xquery":
        return {"n": rng.randint(3, 6)}
    if alg in ("grover1", "dw1", "dw2"):
        return {"n": rng.choice((4, 8))}
    if alg in ("f1", "f3", "f4"):
        return {"n": rng.choice((5, 7))}
    if alg == "dj":
        n = rng.choice((4, 6, 8))
        return {"n": n, "k": rng.randrange(n // 2)}
    if alg == "dhw":
        n = rng.randint(4, 6)
        return {"n": n, "k": rng.randint((n + 1) // 2, n)}
    if alg == "f2":
        n = rng.randint(4, 7)
        return {"n": n, "k": rng.randint(max(1, (n + 3) // 4), n - 1)}
    return dw_params(rng, rng.randint(6, 9))


def promised_input(rng: random.Random, alg: str, params: dict) -> str:
    n = params["n"]
    if alg in SUBROUTINES:
        return "".join(rng.choice("01") for _ in range(n))
    v = algorithm_vector(alg, params)
    ones = set(rng.sample(range(n), rng.choice([w for w, ch in enumerate(v) if ch != "*"])))
    return "".join("1" if i in ones else "0" for i in range(n))


def _flags(params: dict) -> list[str]:
    return [tok for key, value in params.items() for tok in (f"--{key}", str(value))]


def _cli_session(rng: random.Random, tiny: bool) -> list[Request]:
    alg_run, alg_verify = rng.sample(ALGORITHMS, 2)
    p_run, p_verify = small_params(rng, alg_run), small_params(rng, alg_verify)
    ok = [
        ["degree", "--fn", random_vector(rng, rng.randint(5, 9))],
        ["degree", "--fn", random_vector(rng, rng.randint(4, 5)), "--eps", rng.choice(EPS_POSITIVE)],
        ["run", "--alg", alg_run, *_flags(p_run), "--input", promised_input(rng, alg_run, p_run)],
        ["verify", "--alg", alg_verify, *_flags(p_verify)],
        ["classical", "--fn", rng.choice(family_specs(rng, CLI_FAMILY_SIZES))],
        ["classify", "--fn", rng.choice([random_vector(rng, rng.randint(5, 9)), rng.choice(CATALOGUE_SPECS)])],
        ["det", "--n", str(rng.randint(12, 30)), "--k", str(rng.randint(2, 5))],
        ["families"],
    ]
    for argv in rng.sample(ok, len(ok) // 2):  # half of them, seeded, print JSON
        argv.append("--json")
    # the session's largest process, so peak_rss_mb does not depend on the seed:
    # dhw pads to 2k = 14 bits, the biggest unitary any other command builds is 12
    ok.append(["verify", "--alg", "dhw", "--n", "7", "--k", "7"])
    ok += [list(argv) for argv in CLI_HEAVY]
    n = rng.randint(4, 9)
    bad_dw = [(k, l) for k in range(n) for l in range(k + 1, n + 1) if not dw_supported(n, k, l)]
    k, l = rng.choice(bad_dw)
    errors = [
        ["degree", "--fn", f"{rng.choice(['DJ', 'F3', 'DW'])}:{2 * n}"],  # wrong arity
        ["classify", "--fn", f"{rng.choice(['FOO', 'XOR', 'MAJORITY', 'DJX'])}:{n}"],  # unknown family
        ["verify", "--alg", rng.choice(["bogus", "grover", "dj2", "qft"]), "--n", str(n)],  # unknown algorithm
        ["verify", "--alg", "dj", "--n", str(2 * n)],  # missing --k
        rng.choice([["classical"], ["run", "--alg", "f1", "--n", "5"]]),  # missing flag
        ["verify", "--alg", "dw", "--n", str(n), "--k", str(k), "--l", str(l)],  # unsupported dw
        ["verify", "--alg", "xquery", "--n", str(-rng.randint(1, 3))],  # out-of-range n
        ["det", "--n", str(rng.randint(1, 2 * n)), "--k", str(n)],  # out-of-range n
    ]
    if tiny:
        ok, errors = ok[::4], errors[::3]
    deck = [Request("cli", (tuple(argv), "ok")) for argv in ok] + \
        [Request("cli", (tuple(argv), "error")) for argv in errors]
    rng.shuffle(deck)
    return deck


_DECKS = {
    "exact-sweep": _exact_sweep,
    "bounded-error": _bounded_error,
    "verify-domain": _verify_domain,
    "cli-session": _cli_session,
}

# Warm-up requests run once in set-up, at sizes no deck times.
_WARMUP = {
    "exact-sweep": [Request("exact", ("01*1*",)), Request("exact", ("DJ:4,1",)), Request("identity", (9, 2))],
    "bounded-error": [Request("approx", ("0*1*0", "1/8")), Request("approx", ("PARITY:4", "1/3"))],
    "verify-domain": [Request("verify", (alg, tuple(p.items()), "identity")) for alg, p in (
        ("xquery", {"n": 3}), ("grover1", {"n": 4}), ("dj", {"n": 4, "k": 1}), ("dhw", {"n": 4, "k": 2}),
        ("f1", {"n": 3}), ("f3", {"n": 3}), ("dw1", {"n": 4}), ("dw2", {"n": 4}),
        ("dw", {"n": 6, "k": 0, "l": 2}), ("f2", {"n": 4, "k": 1}), ("f4", {"n": 5}))],
    "cli-session": [Request("cli", (("det", "--n", "5", "--k", "1"), "ok"))],
}


def make_deck(workload: str, seed: int, tiny: bool = False) -> list[Request]:
    return _DECKS[workload](random.Random(f"{workload}:{seed}"), tiny)


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------


class Client:
    """Sends requests to symquery, in process or as `python -m symquery.cli`."""

    def __init__(self, root: str, workload: str):
        self.root = root
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # children cache bytecode like an installed package would
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.sq = None
        self.caches = []

    def load_program(self) -> None:
        """Import the layers; find every lru cache so passes can start cold."""
        modules = LAYERS + (("cli",) if self.workload == "cli-session" else ())
        self.sq = {name: importlib.import_module(f"symquery.{name}") for name in modules}
        self.caches = [obj for mod in self.sq.values() for obj in vars(mod).values() if hasattr(obj, "cache_clear")]

    def reset(self) -> None:
        """Start a fresh session: empty the program's caches."""
        for cache in self.caches:
            cache.cache_clear()

    def send(self, req: Request):
        try:
            return getattr(self, "_" + req.kind)(*req.args)
        except Exception as exc:  # a failed request is recorded, not fatal
            return Crash(f"{type(exc).__name__}: {exc}")

    def _exact(self, spec: str):
        symfun, polydeg, classical = self.sq["symfun"], self.sq["polydeg"], self.sq["classical"]
        f = symfun.from_string(spec)
        d = polydeg.degree(f, 0)
        witness = polydeg.lp_feasible(f, 0, d).witness
        tag = polydeg.classify_deg2(f)
        return {
            "vector": str(f),
            "degree": d,
            "witness": witness.coeffs,
            "tag": None if tag is None else (tag.kind.value, tag.param, tag.transform),
            "d_complexity": classical.d_complexity(f),
        }

    def _approx(self, spec: str, eps: str):
        symfun, polydeg = self.sq["symfun"], self.sq["polydeg"]
        f = symfun.from_string(spec)
        d = polydeg.degree(f, Fraction(eps))
        return {"vector": str(f), "degree": d, "witness": polydeg.lp_feasible(f, Fraction(eps), d).witness.coeffs}

    def _identity(self, n: int, k: int):
        return self.sq["identities"].check_identity(n, k)

    def _verify(self, alg: str, params: tuple, transform: str):
        r = self.sq["algos"].verify_exact(alg, dict(params), transform=transform)
        return {"function": r.function, "inputs_checked": r.inputs_checked, "all_exact": r.all_exact,
                "worst_case_queries": r.worst_case_queries, "failures": len(r.failures)}

    def _cli(self, argv: tuple, expect: str):
        """Run one CLI command in a fresh interpreter; returns (exit, stdout, stderr)."""
        cmd = [sys.executable, "-m", "symquery.cli", *argv]
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr


def setup(root: str, workload: str, seed: int, tiny: bool = False) -> tuple[Client, list[Request]]:
    """Everything a run does before its first timed request: imports, deck
    generation and warm-up at untimed sizes."""
    client = Client(root, workload)
    if workload != "cli-session":
        client.load_program()
    deck = make_deck(workload, seed, tiny)
    for req in _WARMUP[workload]:
        answer = client.send(req)
        if isinstance(answer, Crash) or (req.kind == "cli" and answer[0] != 0):
            raise RuntimeError(f"warm-up request {req.label()} failed: {answer}")
    client.reset()
    return client, deck
