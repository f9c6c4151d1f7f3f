"""Whole-artifact acceptance checks.

Each test exercises one acceptance target at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s``).

Criterion 6a is a two-sided degree certificate, not an optimality proof.
The single-interior-weight family F1(2m+1, m) (0 at weight 0, 1 at the middle
weight m) is a restriction of F2(2m+1, m), so the two-term profile with
c1 = 2/(m+1) and c2 = -2/(m(m+1)) that fits F2 (criterion 3) fits it too: its
degree is exactly 2, and the degree bound ceil(2/2) = 1 falls short of the two
queries the ``f1`` algorithm spends.  Unlike 6b, no degree argument can show
those two queries optimal; that lower bound follows from the one-query
characterization (a function has exact query complexity 1 iff the
Deutsch-Jozsa algorithm computes it), which is not a degree statement.
"""

import itertools
import random
from fractions import Fraction as F

import symquery as sq
from symquery import algos, qsim
from symquery.polydeg import FamilyKind, PolyV
from symquery.symfun import TRANSFORMS


def _report(label: str, ok: bool = True) -> None:
    print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_balanced_family_exactness_and_optimality():
    """Exact k+1-query runs, degree 2k+2, classical n/2+k+1, all even n <= 12."""
    for n in (4, 6, 8, 10, 12):
        for k in range(n // 2):
            f = sq.family_dj(n, k)
            report = algos.verify_exact("dj", {"n": n, "k": k})
            assert report.all_exact, (n, k)
            assert report.inputs_checked == sq.domain_size(f)
            assert report.worst_case_queries == k + 1, (n, k)
            assert sq.degree(f, 0) == 2 * k + 2, (n, k)
            assert sq.qe_lower_bound(f) == k + 1, (n, k)
            assert sq.d_complexity(f) == n // 2 + k + 1, (n, k)
    _report("1 balanced-family exactness and optimality")


def test_criterion_2_degree_two_certificate_reproduction():
    """Degree-1 infeasible, degree-2 feasible, explicit witness exact, n <= 16."""
    for n in range(2, 17, 2):
        f = sq.family_dj(n, 0)
        assert not sq.lp_feasible(f, 0, 1).feasible, n
        assert sq.lp_feasible(f, 0, 2).feasible, n
        witness = PolyV((F(0), F(4 * (n - 1), n * n), F(-8, n * n)))
        assert sq.check_representation(witness, f, 0), n
    _report("2 degree-2 certificate reproduction")


def test_criterion_3_two_term_witness_profiles():
    """The three explicit quadratic profiles fit their families exactly."""
    for n in range(2, 16):
        for k in range(n // 2, n):
            q = PolyV((F(0), F(2, k + 1), F(-2, k * (k + 1))))
            assert sq.check_representation(q, sq.family_f2(n, k), 0), (n, k)
    for n in range(3, 16, 2):
        q = PolyV((F(0), F(4, n + 1), F(-8, (n - 1) * (n + 1))))
        for l in (n // 2, (n + 1) // 2):
            assert sq.check_representation(q, sq.family_f3(n, l), 0), (n, l)
    for n in range(3, 16, 2):
        m = n // 2  # minus sign on the quadratic term
        q = PolyV((F(0), F(2, m + 1), F(-2, m * (m + 1))))
        assert sq.check_representation(q, sq.family_f4(n), 0), n
    _report("3 explicit witness profiles")


def test_criterion_4_catalogue_equals_brute_force_degrees():
    """classify matches the exact LP degree buckets over all vectors, n in 4..6."""
    degree2_kinds = {FamilyKind.F1, FamilyKind.F2, FamilyKind.F3, FamilyKind.F4}
    for n in (4, 5, 6):
        for vals in itertools.product("01*", repeat=n + 1):
            f = sq.from_string("".join(vals))
            tag = sq.classify_deg2(f)
            feasible2 = sq.lp_feasible(f, 0, 2).feasible
            assert feasible2 == (tag is not None), str(f)
            if not feasible2:
                continue
            feasible1 = sq.lp_feasible(f, 0, 1).feasible
            feasible0 = sq.lp_feasible(f, 0, 0).feasible
            assert feasible0 == (tag.kind is FamilyKind.CONSTANT_OR_EMPTY), str(f)
            assert (feasible1 and not feasible0) == (
                tag.kind is FamilyKind.DEG1_F1NN
            ), str(f)
            assert (not feasible1) == (tag.kind in degree2_kinds), str(f)
    _report("4 degree <= 2 catalogue equals LP brute force")


def test_criterion_5_two_to_five_query_algorithms():
    """Exactness with worst-case budgets 2 / <= 4 / <= 5 across the catalogue."""
    for n in (3, 5, 7, 9):
        for alg in ("f1", "f3"):
            report = algos.verify_exact(alg, {"n": n})
            assert report.all_exact and report.worst_case_queries == 2, (alg, n)
    for n in (4, 8, 12):
        for alg in ("dw1", "dw2"):
            report = algos.verify_exact(alg, {"n": n})
            assert report.all_exact and report.worst_case_queries == 2, (alg, n)
    reducible = 0
    for n in range(4, 13):
        for k in range(1, n):
            if 3 * k >= n:
                break
            for l in range(k + 1, n + 1):
                if (l - k) % 2 or l - k > 8:
                    continue
                if 3 * l >= 2 * n + k and l >= 3 * k:
                    report = algos.verify_exact("dw", {"n": n, "k": k, "l": l})
                    assert report.all_exact, (n, k, l)
                    assert report.worst_case_queries == 2, (n, k, l)
                    reducible += 1
    assert reducible > 0
    for n in (8, 12):
        for k in range((n + 3) // 4, 6):
            report = algos.verify_exact("f2", {"n": n, "k": k})
            assert report.all_exact, (n, k)
            assert report.worst_case_queries <= 4, (n, k)
    for n in (5, 7, 9):
        report = algos.verify_exact("f4", {"n": n})
        assert report.all_exact and report.worst_case_queries <= 5, n
    _report("5 two-to-five-query algorithms exact within budget")


def test_criterion_6a_middle_weight_family_degree_certificate():
    """Exact degree 2 for the odd-length single-weight family at the middle
    weight, m <= 5: degree 1 infeasible, degree 2 feasible with an exactly
    checked witness and closed-form profile, so the degree bound is only 1
    query; one weight lower (m >= 2) no degree-2 profile exists."""
    for m in range(1, 6):
        f = sq.family_f1(2 * m + 1, m)
        assert not sq.lp_feasible(f, 0, 1).feasible, m
        result = sq.lp_feasible(f, 0, 2)
        assert result.feasible, m
        assert sq.check_representation(result.witness, f, 0), m
        q = PolyV((F(0), F(2, m + 1), F(-2, m * (m + 1))))
        assert sq.check_representation(q, f, 0), m
        assert sq.degree(f, 0) == 2, m
        assert sq.qe_lower_bound(f) == 1, m
        tag = sq.classify_deg2(f)
        assert (tag.kind, tag.param) == (FamilyKind.F1, m), m
        if m >= 2:
            below = sq.family_f1(2 * m + 1, m - 1)
            assert not sq.lp_feasible(below, 0, 2).feasible, m
            assert sq.classify_deg2(below) is None, m
    _report("6a middle-weight family has degree exactly 2 (bound 1 query)")


def test_criterion_6b_quarter_weights_degree_certificate():
    """No degree-2 profile for the quarter/three-quarter discrimination, so
    its measured 2-query algorithm is optimal via the degree lower bound."""
    for m in range(1, 6):
        f = sq.family_dw(4 * m, m, 3 * m)
        assert not sq.lp_feasible(f, 0, 2).feasible, m  # degree >= 3, bound = 2
        report = algos.verify_exact("dw1", {"n": 4 * m})
        assert report.all_exact and report.worst_case_queries == 2, m
    for m in (1, 2, 3):
        f = sq.family_dw(4 * m, m, 3 * m)
        assert sq.degree(f, 0) == 3, m
        assert sq.qe_lower_bound(f) == 2, m
    _report("6b quarter-weights degree certificate and optimality")


def test_criterion_7_determinant_identity():
    """Eliminated determinant equals the closed form, nonzero, exhaustively."""
    for k in range(1, 7):
        for n in range(2 * k + 2, 31):
            assert sq.check_identity(n, k), (n, k)
            assert sq.binom_det(n, k) != 0, (n, k)
    for p in range(0, 41):
        for l in range(-3, p + 4):
            assert sq.helper_identity(p, l), (p, l)
    _report("7 determinant identity exact over the full range")


def test_criterion_8_simulator_invariants():
    """Closed forms match the dense circuits to 1e-9 on every input, n <= 12;
    measured probabilities always total 1."""
    for m in range(1, 17):
        for t in range(m + 1):
            assert (m - 2 * t) ** 2 + 4 * t * (m - t) == m * m
    for n in range(1, 13):
        for bits in itertools.product("01", repeat=n):
            x = "".join(bits)
            sim = dict(qsim.measure(algos.xquery_state(x)))
            exact = {b.output: b.probability for b in algos.run("xquery", {"n": n}, x).branches}
            assert set(sim) == set(exact), x
            assert all(abs(sim[o] - p) <= 1e-9 for o, p in exact.items()), x
            assert abs(sum(sim.values()) - 1.0) <= 1e-9, x

            sim = {i: p for (i, _), p in qsim.measure(algos.grover1_state(x))}
            exact = {b.output: b.probability for b in algos.run("grover1", {"n": n}, x).branches}
            assert set(sim) == set(exact), x
            assert all(abs(sim[o] - p) <= 1e-9 for o, p in exact.items()), x
            assert abs(sum(sim.values()) - 1.0) <= 1e-9, x
    _report("8 simulator matches exact closed forms")


def test_criterion_9_isomorphism_invariances():
    """degree, d_complexity, and verification outcomes are orbit-invariant."""
    rng = random.Random(1789)
    for n in range(4, 9):
        for _ in range(200):
            f = sq.from_string("".join(rng.choice("01*") for _ in range(n + 1)))
            assert len({sq.degree(g, 0) for g in sq.isomorphs(f)}) == 1, str(f)
            assert len({sq.d_complexity(g) for g in sq.isomorphs(f)}) == 1, str(f)
    instances = [
        ("dj", {"n": 6, "k": 1}),
        ("dhw", {"n": 6, "k": 4}),
        ("f1", {"n": 5}),
        ("f3", {"n": 5}),
        ("dw1", {"n": 8}),
        ("dw2", {"n": 8}),
        ("dw", {"n": 8, "k": 0, "l": 2}),
        ("f2", {"n": 8, "k": 2}),
        ("f4", {"n": 5}),
    ]
    for alg, params in instances:
        summaries = {
            (r.all_exact, r.worst_case_queries, r.inputs_checked)
            for r in (
                algos.verify_exact(alg, params, transform=t) for t in TRANSFORMS
            )
        }
        assert len(summaries) == 1, alg
        assert next(iter(summaries))[0] is True, alg
    _report("9 isomorphism invariances")
