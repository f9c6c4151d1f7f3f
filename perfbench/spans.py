"""Span recording for the traced run, installed from outside the program.

Each wrapper replaces the module attribute its caller looks up (for
example ``polydeg.lp_feasible`` as called by ``degree``) and records a span:
name, start, end, parent span and request id.  Spans stay in memory until
the run ends.  A layer's self time is its spans' durations minus the time
their direct child spans cover.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name); the name "lp_feasible" is split by eps below
SPANNED = (
    ("symfun", "from_string", "symfun.from_string"),
    ("polydeg", "degree", "polydeg.degree"),
    ("polydeg", "lp_feasible", None),
    ("polydeg", "check_representation", "polydeg.check_representation"),
    ("polydeg", "classify_deg2", "polydeg.classify_deg2"),
    ("classical", "d_complexity", "classical.d_complexity"),
    ("identities", "check_identity", "identities.check_identity"),
    ("identities", "binom_det", "identities.binom_det"),
    ("identities", "binom_det_closed", "identities.binom_det_closed"),
    ("qsim", "apply_map", "qsim.apply_map"),
    ("qsim", "apply_oracle", "qsim.apply_oracle"),
    ("qsim", "measure", "qsim.measure"),
    ("qsim", "complete_unitary", "qsim.complete_unitary"),
    ("qsim", "householder_map", "qsim.householder_map"),
    ("qsim", "unitary_deviation", "qsim.unitary_deviation"),
    ("algos", "xquery_unitaries", "algos.unitary_build"),
    ("algos", "grover_unitaries", "algos.unitary_build"),
    ("algos", "verify_exact", "algos.verify_exact"),
    ("cli", "main", "cli.main"),
)
OUTCOME_CACHES = ("xquery_outcomes", "grover_outcomes")


class Tracer:
    def __init__(self, sq: dict):
        self.sq = sq
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for mod, attr, name in SPANNED:
            if mod in self.sq:
                self._wrap(self.sq[mod], attr, name)
        self._wrap_inputs(self.sq["algos"])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, module, attr: str, name: str | None) -> None:
        original = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if name is None:
                eps = args[1] if len(args) > 1 else kwargs["eps"]
                span = "polydeg.lp_feasible.eps0" if Fraction(eps) == 0 else "polydeg.lp_feasible.epspos"
            else:
                span = name
            index = len(spans)
            spans.append([span, 0.0, 0.0, stack[-1] if stack else -1, self.request])
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if name is None:
                counts["lp_feasible.feasible"] += result.feasible
                if result.witness is not None:
                    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.witness.coeffs)
                    counts["witness_bits_max"] = max(counts["witness_bits_max"], bits)
            elif attr == "measure":
                counts["qsim.outcomes_emitted"] += len(result)
            elif attr == "verify_exact":
                counts["algos.inputs_checked"] += result.inputs_checked
            return result

        setattr(module, attr, wrapper)
        self._originals.append((module, attr, original))

    def _wrap_inputs(self, algos) -> None:
        """Count promised inputs as algos' verifier draws them."""
        original, counts = algos.domain_inputs, self.counts

        def domain_inputs(*args, **kwargs):
            for x in original(*args, **kwargs):
                counts["symfun.inputs_enumerated"] += 1
                yield x

        algos.domain_inputs = domain_inputs
        self._originals.append((algos, "domain_inputs", original))

    def begin_request(self, request_id) -> int:
        self.request = request_id
        self.spans.append(["request", perf_counter(), 0.0, -1, request_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end_request(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()
        self.request = None

    def self_times(self) -> tuple[Counter, Counter]:
        """Calls and self time per span name."""
        child_time: defaultdict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, busy = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start - child_time[i]
        return calls, busy

    def outcome_cache_stats(self) -> tuple[int, int]:
        hits = misses = 0
        for name in OUTCOME_CACHES:
            info = getattr(self.sq["algos"], name).cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        return hits, misses

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": self.spans}, fh)
