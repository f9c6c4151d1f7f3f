"""Algorithms: branch enumeration, exactness, query budgets, padding routes."""

import itertools
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import symquery as sq
from symquery import algos, qsim
from symquery.symfun import MAX_FAMILY_N, TRANSFORMS, complement_fn

from helpers import (
    fraction_grover1_weight_law,
    fraction_law,
    fraction_xquery_weight_law,
    indexwise_grover1_law,
    listed_law,
    pairwise_xquery_law,
    registered,
)


def outputs(run):
    return run.outputs


def probability_total(run):
    return sum(b.probability for b in run.branches)


class TestXquery:
    def test_differing_pair_certain_on_01(self):
        run = algos.xquery(2, "01")
        assert [(b.output, b.probability) for b in run.branches] == [((1, 2), pytest.approx(1.0))]

    def test_flat_certain_on_00(self):
        run = algos.xquery(2, "00")
        assert [(b.output, b.probability) for b in run.branches] == [((0, 0), pytest.approx(1.0))]

    def test_uniform_pairs_on_1100(self):
        run = algos.xquery(4, "1100")
        assert {b.output for b in run.branches} == {(1, 3), (1, 4), (2, 3), (2, 4)}
        assert all(abs(b.probability - 0.25) < 1e-9 for b in run.branches)

    def test_single_query_everywhere(self):
        assert all(b.queries_used == 1 for b in algos.xquery(5, "10110").branches)

    def test_contract_whole_domain(self):
        for m in range(1, 7):
            report = algos.verify_exact("xquery", {"n": m})
            assert report.all_exact and report.inputs_checked == 2**m

    def test_closed_form_matches_simulation(self):
        for m in range(1, 7):
            for bits in itertools.product("01", repeat=m):
                x = "".join(bits)
                sim = dict(qsim.measure(algos.xquery_state(x)))
                exact = {b.output: b.probability for b in algos.xquery(m, x).branches}
                assert set(sim) == set(exact)
                assert all(abs(sim[o] - exact[o]) < 1e-9 for o in sim)


class TestGrover1:
    def test_quarter_weight_returns_the_one(self):
        run = algos.grover1(4, "1000")
        assert [(b.output, b.probability) for b in run.branches] == [(1, pytest.approx(1.0))]

    def test_three_quarter_weight_returns_the_zero(self):
        run = algos.grover1(4, "0111")
        assert [(b.output, b.probability) for b in run.branches] == [(1, pytest.approx(1.0))]

    def test_zero_weight_is_uniform(self):
        run = algos.grover1(4, "0000")
        assert {b.output for b in run.branches} == {1, 2, 3, 4}
        assert all(abs(b.probability - 0.25) < 1e-9 for b in run.branches)

    def test_contract_whole_domain(self):
        for n in (4, 8):
            report = algos.verify_exact("grover1", {"n": n})
            assert report.all_exact

    def test_closed_form_matches_simulation(self):
        for n in range(1, 7):
            for bits in itertools.product("01", repeat=n):
                x = "".join(bits)
                sim = {i: p for (i, _), p in qsim.measure(algos.grover1_state(x))}
                exact = {b.output: b.probability for b in algos.grover1(n, x).branches}
                assert set(sim) == set(exact)
                assert all(abs(sim[o] - exact[o]) < 1e-9 for o in sim)


def assert_same_laws(x):
    """Same outcomes, same order, same Fractions as the per-pair and
    per-index derivations, read off the listings and the weight laws'
    shares; where run admits x, the bare subroutine's branches list the same
    outcomes in the same order, each probability its Fraction rounded once."""
    for alg, reference in (("xquery", pairwise_xquery_law), ("grover1", indexwise_grover1_law)):
        want = reference(x)
        assert listed_law(alg, x) == want, (alg, x)
        if len(want) <= algos.MAX_RUN_BRANCHES:
            got = [(b.output, b.probability) for b in algos.run(alg, {"n": len(x)}, x).branches]
            assert got == [(o, float(p)) for o, p in want], (alg, x)


class TestPerInputLaws:
    def test_share_out_the_weight_laws_on_every_short_input(self):
        for m in range(1, 13):
            for bits in itertools.product("01", repeat=m):
                assert_same_laws("".join(bits))

    @given(st.text("01", min_size=13, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_share_out_the_weight_laws_on_random_inputs(self, x):
        assert_same_laws(x)

    @pytest.mark.parametrize("x", ["0" * 400 + "1" + "0" * 599, "0110" * 250], ids=["light", "balanced"])
    def test_pair_listing_at_m_1000(self, x):
        assert_same_laws(x)

    def test_refuse_the_empty_input(self):
        for law in (algos.xquery_outcomes, algos.grover_outcomes):
            with pytest.raises(ValueError, match=">= 1"):
                law("")


class TestDj:
    def test_balanced_four_bits_one_query(self):
        run = algos.dj(4, 0, "1100")
        assert outputs(run) == {1}
        assert run.max_queries == 1

    def test_zero_input_one_query(self):
        run = algos.dj(4, 0, "0000")
        assert outputs(run) == {0}
        assert run.max_queries == 1

    def test_low_weight_two_rounds(self):
        run = algos.dj(8, 1, "10000000")
        assert outputs(run) == {0}
        assert run.max_queries <= 2

    def test_pair_removal_keeps_indices_in_current_string(self):
        run = algos.dj(4, 1, "1100")
        for b in run.branches:
            assert len(b.path) == b.queries_used

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            algos.dj(5, 0, "10101")
        with pytest.raises(ValueError):
            algos.dj(4, 2, "1100")
        with pytest.raises(ValueError):
            algos.dj(4, 0, "110")

    @pytest.mark.parametrize("n,k", [(4, 1), (6, 1), (6, 2), (8, 1)])
    def test_explicit_branch_law_matches_exact_recursion(self, n, k):
        # independent oracle: the round recursion in exact rationals
        def output_law(t, m, used):
            law: dict[int, F] = {}
            p_flat = F((m - 2 * t) ** 2, m * m)
            p_pair = F(4 * t * (m - t), m * m)
            if p_flat:
                law[0] = law.get(0, F(0)) + p_flat
            if p_pair:
                if used == k:
                    law[1] = law.get(1, F(0)) + p_pair
                else:
                    for o, p in output_law(t - 1, m - 2, used + 1).items():
                        law[o] = law.get(o, F(0)) + p_pair * p
            return law

        for w in sq.family_dj(n, k).domain_weights:
            x = "1" * w + "0" * (n - w)
            got: dict[int, float] = {}
            for b in algos.dj(n, k, x).branches:
                got[b.output] = got.get(b.output, 0.0) + b.probability
            want = output_law(w, n, 0)
            assert set(got) == set(want), (n, k, w)
            assert all(abs(got[o] - float(want[o])) < 1e-9 for o in got), (n, k, w)

    @pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (6, 0), (6, 1), (6, 2)])
    def test_explicit_runs_agree_with_fast_verification(self, n, k):
        f = sq.family_dj(n, k)
        report = algos.verify_exact("dj", {"n": n, "k": k})
        worst = 0
        for x in sq.domain_inputs(f):
            run = algos.dj(n, k, x)
            expected = 1 if f.values[x.count("1")] == "1" else 0
            assert outputs(run) == {expected}, x
            assert abs(probability_total(run) - 1.0) < 1e-9
            worst = max(worst, run.max_queries)
        assert report.all_exact
        assert report.worst_case_queries == worst == k + 1


class TestDhw:
    def test_padded_balanced_returns_one(self):
        assert outputs(algos.dhw(4, 3, "1110")) == {1}

    def test_zero_returns_zero(self):
        assert outputs(algos.dhw(4, 3, "0000")) == {0}

    def test_no_padding_needed(self):
        assert outputs(algos.dhw(4, 2, "1100")) == {1}

    def test_single_query(self):
        for x in ("0000", "1110"):
            assert algos.dhw(4, 3, x).max_queries == 1

    def test_k_below_half_rejected(self):
        with pytest.raises(ValueError):
            algos.dhw(5, 2, "00000")

    @pytest.mark.parametrize("n,k", [(4, 2), (4, 3), (4, 4), (5, 3), (7, 4), (10, 7)])
    def test_whole_domain_exact(self, n, k):
        report = algos.verify_exact("dhw", {"n": n, "k": k})
        assert report.all_exact
        assert report.worst_case_queries == 1


class TestF1F3:
    def test_f1_first_bit_one_short_circuits(self):
        run = algos.f1(5, "11000")
        assert [(b.output, b.queries_used) for b in run.branches] == [(1, 1)]

    def test_f1_zero_input(self):
        run = algos.f1(5, "00000")
        assert outputs(run) == {0}
        assert run.max_queries == 2

    def test_f1_middle_weight_via_rest(self):
        run = algos.f1(5, "01100")
        assert outputs(run) == {1}
        assert run.max_queries == 2

    def test_f3_all_ones(self):
        assert outputs(algos.f3(5, "11111")) == {0}

    def test_f3_all_zeros(self):
        assert outputs(algos.f3(5, "00000")) == {0}

    def test_f3_upper_middle(self):
        assert outputs(algos.f3(5, "11100")) == {1}

    def test_odd_n_required(self):
        with pytest.raises(ValueError):
            algos.f1(4, "0000")
        with pytest.raises(ValueError):
            algos.f3(4, "0000")

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_whole_domain_exact_two_queries(self, n):
        for alg in ("f1", "f3"):
            report = algos.verify_exact(alg, {"n": n})
            assert report.all_exact
            assert report.worst_case_queries == 2


class TestDw:
    def test_dw1_examples(self):
        assert outputs(algos.dw1(4, "1000")) == {0}
        assert outputs(algos.dw1(4, "0111")) == {1}
        run = algos.dw1(8, "11000000")
        assert outputs(run) == {0}
        assert len(run.branches) == 2  # the two 1-positions, uniformly

    def test_dw2_examples(self):
        run = algos.dw2(4, "0000")
        assert outputs(run) == {0}
        assert len(run.branches) == 4
        assert outputs(algos.dw2(4, "0100")) == {1}
        assert outputs(algos.dw2(8, "10100000")) == {1}

    def test_divisibility_checks(self):
        with pytest.raises(ValueError):
            algos.dw1(6, "110000")
        with pytest.raises(ValueError):
            algos.dw2(6, "100000")

    def test_dw_general_pads_to_quarter_instance(self):
        # k=1, l=5 on 5 bits: two zeros and one one of padding
        run = algos.dw_general(5, 1, 5, "11111")
        assert outputs(run) == {1}
        assert run.max_queries == 2
        run = algos.dw_general(5, 1, 5, "10000")
        assert outputs(run) == {0}

    def test_dw_general_zero_weight_route(self):
        run = algos.dw_general(8, 0, 2, "01000100")
        assert outputs(run) == {1}
        assert run.max_queries == 2

    def test_dw_general_unsupported(self):
        with pytest.raises(algos.UnsupportedParameters):
            algos.dw_general(6, 2, 3, "110000")

    def test_dw_general_invalid_weights(self):
        with pytest.raises(ValueError):
            algos.dw_general(4, 3, 2, "1100")

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_dw1_dw2_whole_domain(self, n):
        for alg in ("dw1", "dw2"):
            report = algos.verify_exact(alg, {"n": n})
            assert report.all_exact
            assert report.worst_case_queries == 2

    def test_dw_general_whole_domain_sample(self):
        for n, k, l in [(5, 1, 5), (8, 1, 7), (8, 0, 2), (12, 0, 3), (10, 1, 9)]:
            report = algos.verify_exact("dw", {"n": n, "k": k, "l": l})
            assert report.all_exact, (n, k, l)
            assert report.worst_case_queries == 2


class TestF2F4:
    def test_f2_zero_input_four_queries(self):
        run = algos.f2(8, 2, "00000000")
        assert outputs(run) == {0}
        assert run.max_queries == 4

    def test_f2_weight_k_certain_hit(self):
        run = algos.f2(8, 2, "11000000")
        assert outputs(run) == {1}
        assert run.max_queries == 2

    def test_f2_weight_k_plus_one(self):
        run = algos.f2(8, 2, "11100000")
        assert outputs(run) == {1}
        assert run.max_queries <= 4

    def test_f2_parameter_range(self):
        with pytest.raises(ValueError):
            algos.f2(8, 1, "00000000")  # 4k < n

    def test_f4_examples(self):
        assert outputs(algos.f4(5, "11000")) == {1}
        assert outputs(algos.f4(5, "00000")) == {0}
        assert outputs(algos.f4(5, "11111")) == {0}

    def test_f4_needs_odd_n_at_least_five(self):
        with pytest.raises(ValueError):
            algos.f4(4, "0000")
        with pytest.raises(ValueError):
            algos.f4(3, "000")

    @pytest.mark.parametrize("n,k", [(8, 2), (8, 3), (8, 5), (12, 3)])
    def test_f2_whole_domain(self, n, k):
        report = algos.verify_exact("f2", {"n": n, "k": k})
        assert report.all_exact
        assert report.worst_case_queries <= 4

    @pytest.mark.parametrize("n", [5, 7])
    def test_f4_whole_domain(self, n):
        report = algos.verify_exact("f4", {"n": n})
        assert report.all_exact
        assert report.worst_case_queries <= 5


class TestVerifyExact:
    def test_report_examples(self):
        report = algos.verify_exact("dj", {"n": 8, "k": 1})
        assert report.all_exact
        assert report.worst_case_queries == 2
        assert report.inputs_checked == sq.domain_size(sq.family_dj(8, 1))

        report = algos.verify_exact("dw1", {"n": 8})
        assert report.all_exact and report.worst_case_queries == 2

        report = algos.verify_exact("f4", {"n": 7})
        assert report.all_exact and report.worst_case_queries <= 5

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            algos.verify_exact("nope", {"n": 4})

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            algos.verify_exact("dj", {"n": 8})

    def test_unknown_transform(self):
        with pytest.raises(ValueError, match="unknown transform 'bogus'"):
            algos.verify_exact("dj", {"n": 8, "k": 1}, transform="bogus")

    def test_budgets_conform(self):
        cases = [
            ("dj", {"n": 6, "k": 2}),
            ("dhw", {"n": 5, "k": 3}),
            ("f1", {"n": 7}),
            ("f3", {"n": 7}),
            ("dw1", {"n": 8}),
            ("dw2", {"n": 8}),
            ("dw", {"n": 8, "k": 1, "l": 7}),
            ("f2", {"n": 8, "k": 2}),
            ("f4", {"n": 7}),
        ]
        for alg, params in cases:
            report = algos.verify_exact(alg, params)
            assert report.all_exact, alg
            assert report.worst_case_queries <= registered(alg, params, "budget"), alg

    @pytest.mark.parametrize(
        "alg,params",
        [
            ("dj", {"n": 6, "k": 1}),
            ("dhw", {"n": 6, "k": 4}),
            ("f1", {"n": 5}),
            ("f3", {"n": 5}),
            ("dw1", {"n": 8}),
            ("dw2", {"n": 8}),
            ("dw", {"n": 8, "k": 0, "l": 2}),
            ("f2", {"n": 8, "k": 2}),
            ("f4", {"n": 5}),
        ],
    )
    def test_isomorphism_transfer(self, alg, params):
        reports = [
            algos.verify_exact(alg, params, transform=t) for t in TRANSFORMS
        ]
        assert all(r.all_exact for r in reports)
        assert len({r.worst_case_queries for r in reports}) == 1
        assert len({r.inputs_checked for r in reports}) == 1

    def test_lower_bound_consistency(self):
        for alg, params in [
            ("dj", {"n": 8, "k": 1}),
            ("f1", {"n": 5}),
            ("f3", {"n": 5}),
            ("dw1", {"n": 8}),
            ("f2", {"n": 8, "k": 2}),
            ("f4", {"n": 5}),
        ]:
            f = registered(alg, params, "family")
            report = algos.verify_exact(alg, params)
            assert sq.qe_lower_bound(f) <= report.worst_case_queries


class TestRunInvariants:
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_branch_probabilities_sum_to_one(self, m, data):
        x = "".join(data.draw(st.sampled_from("01")) for _ in range(m))
        for run in (algos.xquery(m, x), algos.grover1(m, x)):
            assert abs(probability_total(run) - 1.0) < 1e-9

    def test_branch_order_is_deterministic(self):
        a = algos.dj(6, 1, "110100")
        b = algos.dj(6, 1, "110100")
        assert a == b

    @pytest.mark.parametrize("alg", list(algos.ALGORITHMS))
    def test_branch_bound_covers_every_run(self, alg):
        # the class law's branch count, which run checks against its cap,
        # is exactly the number of branches run lists
        instances = every_instance(alg, 8)
        assert instances
        for params in instances:
            args = list(params.values())
            for bits in itertools.product("01", repeat=params["n"]):
                x = "".join(bits)
                assert counted(alg, args, x) == len(algos.run(alg, params, x).branches), (params, x)

    def test_f2_bound_reads_both_searches(self):
        # at weight k+1 neither search counts a side it puts no mass on: the
        # 30,300 branches run lists (tests/test_cli.py)
        assert counted("f2", (400, 100), "1" * 101 + "0" * 299) == 101 + 299 * 101
        # f4's x_1 = 1 subclass at n = 401, weight 200: f2 on weight 201
        assert counted("f4", (401,), "1" * 200 + "0" * 201) == 201 + 599 * 201

    def test_leaky_probabilities_rejected(self):
        half = algos.BranchTrace(("x1=0",), 0.5, 0, 1)
        with pytest.raises(ValueError, match="sum"):
            algos.AlgorithmRun("01", (half,))


def unreachable(*args):
    raise AssertionError("reached past the caps")


class TestCapsBeforeWork:
    def test_positional_names_share_run_caps(self, monkeypatch):
        monkeypatch.setattr(algos, "_branches", unreachable)
        with pytest.raises(ValueError, match=f"capped at {algos.MAX_RUN_BRANCHES} branches"):
            algos.dj(14, 6, "1" * 7 + "0" * 7)
        with pytest.raises(ValueError, match=f"capped at n={MAX_FAMILY_N}"):
            algos.grover1(1001, "0" * 1001)

    def test_positional_names_check_their_arity(self):
        with pytest.raises(TypeError):
            algos.dj(8, "10000000")
        with pytest.raises(TypeError):
            algos.f4(7, 1, "1000111")

    @pytest.mark.parametrize("alg,params", [("xquery", {"n": 31}), ("grover1", {"n": 32}), ("dw1", {"n": 32})])
    def test_simulate_domain_refuses_before_enumerating(self, monkeypatch, alg, params):
        monkeypatch.setattr(algos, "_weight_inputs", unreachable)
        monkeypatch.setattr(algos, "domain_inputs", unreachable)
        with pytest.raises(ValueError, match="enumeration capped at n=30"):
            algos.simulate_domain(alg, params)


def refusal(call, *args):
    """The text of the ValueError a call raises, or None if it succeeds."""
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestOneRulePerInstance:
    def test_every_entry_point_refuses_alike(self):
        # every id, n in -4..10 and every other parameter in -1..n+1: run on
        # n zeros, the positional name, verify_exact and (n <= 6)
        # simulate_domain all succeed or all raise one text, the id's own rule
        # (dw's is its promise's or its padding's), never a weight law's; only
        # grover1's contract, which run does not need, may refuse an n off 4Z
        checked, mismatches = 0, []
        for alg, entry in algos.ALGORITHMS.items():
            positional = getattr(algos, "dw_general" if alg == "dw" else alg)
            heads = ("DW needs", "no two-query padding") if alg == "dw" else (f"{alg} ",)
            for n in range(-4, 11):
                for rest in itertools.product(range(-1, max(n, 0) + 2), repeat=len(entry.params) - 1):
                    params = dict(zip(entry.params, (n, *rest)))
                    x = "0" * max(n, 0)
                    texts = [refusal(algos.run, alg, params, x), refusal(positional, *params.values(), x),
                             refusal(algos.verify_exact, alg, params)]
                    if n <= 6:
                        texts.append(refusal(algos.simulate_domain, alg, params))
                    if alg == "grover1" and n % 4 and texts[:2] == [None, None]:
                        texts = texts[2:]
                    checked += 1
                    if len(set(texts)) != 1 or not (texts[0] is None or texts[0].startswith(heads)):
                        mismatches.append((alg, params, texts))
        assert checked == 1255
        assert mismatches == []


def counted(alg, args, x):
    """The branch count of the class law x is in."""
    classes = algos._classes(algos.ALGORITHMS[alg].plan(*args), args[0], x.count("1"))
    (law,) = [law for prefix, law in classes if x.startswith(prefix)]
    return sum(count for *_, count in law.values())


DECISION_ALGORITHMS = sorted(alg for alg, entry in algos.ALGORITHMS.items() if entry.family)


def valid_instances(alg, n_max):
    """Every parameter set of a decision algorithm with n <= n_max, as the
    family constructor and run accept them."""
    for n in range(1, n_max + 1):
        if alg in ("f1", "f3", "dw1", "dw2", "f4"):
            candidates = [{"n": n}]
        elif alg == "dw":
            candidates = [
                {"n": n, "k": k, "l": l} for k in range(n) for l in range(k + 1, n + 1)
            ]
        else:
            candidates = [{"n": n, "k": k} for k in range(n + 1)]
        for params in candidates:
            try:
                registered(alg, params, "family")
                algos.run(alg, params, "0" * n)
            except ValueError:  # includes UnsupportedParameters
                continue
            yield params


def every_instance(alg, n_max):
    """Every valid parameter set with n <= n_max; a subroutine's plan takes
    every n >= 1."""
    if algos.ALGORITHMS[alg].family:
        return list(valid_instances(alg, n_max))
    return [{"n": n} for n in range(1, n_max + 1)]


def transforms_of(alg):
    """The transforms verify_exact takes: a subroutine's contract takes none."""
    return TRANSFORMS if algos.ALGORITHMS[alg].family else TRANSFORMS[:1]


def summary(report):
    return (report.function, report.inputs_checked, report.all_exact, report.worst_case_queries)


class TestWeightClassEngine:
    @pytest.mark.parametrize("alg", DECISION_ALGORITHMS)
    def test_agrees_with_simulation(self, alg):
        instances = list(valid_instances(alg, 8))
        assert instances
        for params in instances:
            for t in TRANSFORMS:
                exact = algos.verify_exact(alg, params, transform=t)
                assert exact.all_exact, (params, t)
                assert summary(exact) == summary(algos.simulate_domain(alg, params, t)), (params, t)

    @pytest.mark.parametrize("alg", sorted(algos.ALGORITHMS))
    def test_class_laws_match_simulated_branches(self, alg):
        # on every input, promised or not; the branches behind one (output,
        # queries used) share its class mass equally, so each listed float
        # is exactly num / (den * branches), rounded once.  A bare
        # subroutine's output is keyed by its contract term, as its law is.
        info = algos.ALGORITHMS[alg]
        if info.family:
            instances = list(valid_instances(alg, 8))
        else:
            instances = [{"n": n} for n in (range(1, 9) if alg == "xquery" else (4, 8))]
        for params in instances:
            n, plan = params["n"], info.plan(*params.values())
            for bits in itertools.product("01", repeat=n):
                x = "".join(bits)
                (law,) = [law for prefix, law in algos._classes(plan, n, x.count("1")) if x.startswith(prefix)]
                branches = algos.run(alg, params, x).branches
                term = (lambda out: out) if info.family else partial(algos._contract_term, x)
                simulated: dict = {}
                for b in branches:
                    key = (term(b.output), b.queries_used)
                    p, count = simulated.get(key, (0.0, 0))
                    simulated[key] = (p + b.probability, count + 1)
                assert set(simulated) == set(law), (params, x)
                for key, (num, den, count) in law.items():
                    assert abs(simulated[key][0] - num / den) < 1e-9, (params, x, key)
                    assert simulated[key][1] == count, (params, x, key)
                for b in branches:
                    num, den, count = law[term(b.output), b.queries_used]
                    assert b.probability == num / (den * count), (params, x, b)

    def test_contracts_agree_with_simulation(self):
        cases = [("xquery", m) for m in range(1, 11)] + [("grover1", 4), ("grover1", 8)]
        for alg, n in cases:
            exact = algos.verify_exact(alg, {"n": n})
            assert exact.all_exact, (alg, n)
            assert summary(exact) == summary(algos.simulate_domain(alg, {"n": n})), (alg, n)
        assert algos.verify_exact("grover1", {"n": 8}).inputs_checked == 2 * 28

    def test_weight_laws_sum_the_per_input_laws(self):
        # each side lists as many branches as its weight law counts, each
        # carrying the side's share, so they sum to its mass exactly; a side
        # with no mass lists no branch, whatever it counts
        for m in range(1, 17):
            for t in range(m + 1):
                x = "1" * t + "0" * (m - t)
                for alg, weight_law, side in (("xquery", algos.xquery_weight_law, lambda o: o != (0, 0)),
                                              ("grover1", algos.grover1_weight_law, lambda i: x[i - 1] == "0")):
                    den, *sides = weight_law(t, m)
                    branches = algos.run(alg, {"n": m}, x).branches
                    listed = [[b.probability for b in branches if side(b.output) is s] for s in (False, True)]
                    for (p, c), probabilities in zip(sides, listed):
                        assert probabilities == ([p / (den * c)] * c if p else []), (alg, m, t)

    def test_wrong_target_fails_both_verifiers(self, monkeypatch):
        info = algos.ALGORITHMS["f1"]
        wrong = info._replace(family=lambda n: sq.family_f1(n, n // 2 + 1))
        monkeypatch.setitem(algos.ALGORITHMS, "f1", wrong)
        for report in (algos.verify_exact("f1", {"n": 7}), algos.simulate_domain("f1", {"n": 7})):
            assert not report.all_exact
            assert report.failures
            # x_1 = 1 answers 1 correctly; the weight test on the rest fails
            assert all(x.count("1") == 4 and x[0] == "0" for x, _ in report.failures)

    def test_simulated_failures_stay_one_per_input(self, monkeypatch):
        info = algos.ALGORITHMS["dj"]
        wrong = info._replace(family=lambda n, k: complement_fn(sq.family_dj(n, k)))
        monkeypatch.setitem(algos.ALGORITHMS, "dj", wrong)
        report = algos.simulate_domain("dj", {"n": 8, "k": 3})
        assert not report.all_exact
        assert len(report.failures) <= report.inputs_checked
        # every branch of a balanced input is wrong: the first is named, the rest counted
        balanced = dict(x for x in report.failures if x[0].count("1") == 4)
        assert len(balanced) == 70
        assert all(", and " in why and why.endswith(" more") for why in balanced.values())

    @pytest.mark.parametrize(
        "alg,params",
        [
            ("f4", {"n": 101}),
            ("dw1", {"n": 400}),
            ("dw", {"n": 200, "k": 1, "l": 135}),
            ("dj", {"n": 200, "k": 99}),
        ],
    )
    def test_large_instances_exact(self, alg, params):
        report = algos.verify_exact(alg, params)
        assert report.all_exact
        assert report.inputs_checked == sq.domain_size(registered(alg, params, "family"))
        assert report.worst_case_queries == registered(alg, params, "budget")

    def test_size_cap(self):
        cap = MAX_FAMILY_N
        assert algos.verify_exact("dw1", {"n": cap}).all_exact
        with pytest.raises(ValueError, match="capped"):
            algos.verify_exact("dw1", {"n": cap + 1})
        with pytest.raises(ValueError, match="capped"):
            algos.verify_exact("dj", {"n": 2400, "k": 1100})

    @pytest.mark.parametrize("alg,n", [("xquery", -1), ("xquery", 0), ("grover1", -4), ("grover1", 0)])
    def test_contract_needs_positive_n(self, alg, n):
        with pytest.raises(ValueError, match="needs n >= 1"):
            algos.verify_exact(alg, {"n": n})

    @pytest.mark.parametrize("alg,n", [("xquery", 6), ("grover1", 8)])
    def test_contract_refuses_f_and_transform(self, alg, n):
        for t in TRANSFORMS[1:]:
            for check in (algos.verify_exact, algos.simulate_domain):
                with pytest.raises(ValueError, match="takes no transform"):
                    check(alg, {"n": n}, transform=t)


def assert_entrywise(law, reference):
    """Same keys in the same order, each numerator over its denominator the
    reference's Fraction, and the same branch counts."""
    assert list(law) == list(reference)
    for key, (num, den, count) in law.items():
        assert (F(num, den), count) == reference[key], key


def reduced(*args):
    """The reference law in the integer layout, each entry in lowest terms,
    so that its denominators need not divide one another."""
    return {key: (p.numerator, p.denominator, count) for key, (p, count) in fraction_law(*args).items()}


def bend(monkeypatch, change):
    """Make algos._law apply `change` to every law it returns."""
    original = algos._law
    monkeypatch.setattr(algos, "_law", lambda *args: change(original(*args)))


class TestIntegerLaws:
    @pytest.mark.parametrize("alg", list(algos.ALGORITHMS))
    def test_match_the_fraction_reference(self, alg, monkeypatch):
        for params in every_instance(alg, 16):
            n, plan = params["n"], algos.ALGORITHMS[alg].plan(*params.values())
            for t in range(n + 1):
                classes = algos._classes(plan, n, t)
                with monkeypatch.context() as m:
                    m.setattr(algos, "_law", fraction_law)
                    want = algos._classes(plan, n, t)
                assert [prefix for prefix, _ in classes] == [prefix for prefix, _ in want]
                for (_, law), (_, reference) in zip(classes, want):
                    assert_entrywise(law, reference)
            for transform in transforms_of(alg):
                try:
                    allowed = algos._check_request(alg, params, transform)[2][1]
                except ValueError:  # grover1's contract needs n divisible by 4
                    continue
                classes = list(algos._weight_classes(plan, n, allowed, transform))
                with monkeypatch.context() as m:
                    m.setattr(algos, "_law", fraction_law)
                    want = list(algos._weight_classes(plan, n, allowed, transform))
                assert len(classes) == len(want)
                for (x, count, law, ok), (y, size, reference, ok2) in zip(classes, want):
                    assert (x, count, ok) == (y, size, ok2)
                    assert_entrywise(law, reference)

    @pytest.mark.parametrize("alg", list(algos.ALGORITHMS))
    def test_reports_match_the_reference(self, alg, monkeypatch):
        # the reference's entries in lowest terms also take _certify's
        # general step, where a denominator does not divide the next
        for params in every_instance(alg, 16):
            for transform in transforms_of(alg):
                try:
                    report = algos.verify_exact(alg, params, transform)
                except ValueError:  # grover1's contract needs n divisible by 4
                    continue
                with monkeypatch.context() as m:
                    m.setattr(algos, "_law", reduced)
                    assert algos.verify_exact(alg, params, transform) == report, (params, transform)

    def test_wrong_target_reports_match_the_reference(self, monkeypatch):
        info = algos.ALGORITHMS["dj"]
        monkeypatch.setitem(algos.ALGORITHMS, "dj", info._replace(family=lambda n, k: complement_fn(sq.family_dj(n, k))))
        for params in every_instance("dj", 16):
            for transform in TRANSFORMS:
                report = algos.verify_exact("dj", params, transform)
                assert not report.all_exact and all("(prob " in why for _, why in report.failures)
                with monkeypatch.context() as m:
                    m.setattr(algos, "_law", reduced)
                    assert algos.verify_exact("dj", params, transform) == report, (params, transform)

    @given(st.integers(1, 200).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))))
    @settings(max_examples=300, deadline=None)
    def test_weight_laws_match_their_fraction_formulas(self, mt):
        m, t = mt
        for law, reference in ((algos.xquery_weight_law, fraction_xquery_weight_law),
                               (algos.grover1_weight_law, fraction_grover1_weight_law)):
            den, *sides = law(t, m)
            assert [(F(num, den), count) for num, count in sides] == list(reference(t, m)), (law.__name__, m, t)

    def test_verify_builds_no_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("built a Fraction")

        monkeypatch.setattr("fractions.Fraction", no_fraction)  # algos imports it only to word a failure
        for alg, params in [("dj", {"n": 200, "k": 99}), ("f4", {"n": 101}), ("dw", {"n": 200, "k": 1, "l": 135}),
                            ("f1", {"n": 9}), ("f3", {"n": 9}), ("dhw", {"n": 9, "k": 7}), ("f2", {"n": 12, "k": 5}),
                            ("xquery", {"n": 12}), ("grover1", {"n": 16})]:
            for transform in transforms_of(alg):
                assert algos.verify_exact(alg, params, transform).all_exact, (alg, params, transform)

    def test_a_numerator_off_by_one_is_refused(self, monkeypatch):
        def off_by_one(law):
            key, (num, den, count) = next(iter(law.items()))
            return {**law, key: (num + 1, den, count)}

        bend(monkeypatch, off_by_one)
        # weight 0 is one flat branch of mass 64/64
        with pytest.raises(RuntimeError, match=r"^branch probabilities sum to 65/64, not 1, on the class of 00000000$"):
            algos.verify_exact("dj", {"n": 8, "k": 1})
        for alg, params in [("f2", {"n": 12, "k": 5}), ("f4", {"n": 7}), ("grover1", {"n": 8})]:
            with pytest.raises(RuntimeError, match="^branch probabilities sum to "):
                algos.verify_exact(alg, params)

    def test_a_dropped_entry_is_refused(self, monkeypatch):
        def dropped(law):
            law = dict(law)
            law.popitem()
            return law

        bend(monkeypatch, dropped)
        for alg, params in [("dj", {"n": 8, "k": 1}), ("f2", {"n": 12, "k": 5}), ("f4", {"n": 7}), ("xquery", {"n": 6})]:
            with pytest.raises(RuntimeError, match="^branch probabilities sum to "):
                algos.verify_exact(alg, params)

    def test_certify_adds_denominators_that_do_not_divide(self):
        def certify(*entries):
            law = {(i, 1): (num, den, 1) for i, (num, den) in enumerate(entries)}
            return algos._certify("f", [("0", 1, law, frozenset(range(len(entries))))])

        assert certify((1, 2), (1, 3), (1, 6)).all_exact
        assert certify((1, 3), (1, 2), (1, 6)).all_exact
        with pytest.raises(RuntimeError, match="sum to 7/6"):
            certify((1, 2), (2, 3))  # T·(3 // 2) + 2 would read 3/3
