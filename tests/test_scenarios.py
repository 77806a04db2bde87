"""Scenario runner and the cross-checking verification suite."""

import pytest

from nestalg.catalog import find_task
from nestalg.scenarios import (
    DEFAULT_QUESTIONS,
    Scenario,
    brute_force_zero,
    random_member,
    random_member_pair,
    run_scenario,
    verify_suite,
)
from nestalg.algebra import MultiplicationTask, alg_membership
from nestalg.decisions import mult_zero_test
from nestalg.nests import make_nest
from nestalg.operators import diag, identity
from nestalg.rules import rule_geometric, rule_mask

import numpy as np


def scenario_from_catalog(name, questions=None):
    spec = find_task(name)
    return Scenario(
        name=spec.name,
        nest=spec.nest,
        a=spec.a,
        b=spec.b,
        questions=tuple(questions or DEFAULT_QUESTIONS),
    )


def test_run_scenario_full_report():
    sc = scenario_from_catalog("flagship-harmonic")
    out = run_scenario(sc)
    assert out["name"] == "flagship-harmonic"
    assert out["all_consistent"] is True
    assert out["verdicts"]["zero"]["status"] == "NonZero"
    assert out["verdicts"]["compact"]["status"] == "Compact"


def test_run_scenario_consistency_rows():
    # a genuinely annihilating pair exercises the zero-implies-compact rule
    sc = scenario_from_catalog("annihilated-rank-ones")
    out = run_scenario(sc)
    cons = out["consistency"]
    assert cons["zero-implies-compact"] is True
    assert all(cons.values())
    sc2 = scenario_from_catalog("two-sided-identity")
    cons2 = run_scenario(sc2)["consistency"]
    assert cons2["weak-routes-agree"] is True


def test_scenario_json_round_trip():
    sc = scenario_from_catalog("right-geometric")
    doc = {
        "name": sc.name,
        "nest": sc.nest,
        "a": sc.a,
        "b": sc.b,
        "questions": list(sc.questions),
    }
    again = Scenario.from_json(doc)
    assert again.name == sc.name
    assert tuple(again.questions) == sc.questions


def test_random_member_is_member():
    rng = np.random.default_rng(3)
    for spec in ({"basis": "N", "cuts": "all"}, {"basis": "Z", "cuts": "all"}):
        nest = make_nest(spec)
        for _ in range(10):
            T = random_member(nest, rng)
            assert alg_membership(nest, T).status == "Member"


def test_brute_force_zero_agrees_with_decision():
    rng = np.random.default_rng(11)
    nest = make_nest({"basis": "N", "cuts": "all"})
    agreements = 0
    for _ in range(25):
        a, b = random_member_pair(nest, rng)
        task = MultiplicationTask.build(nest, a, b, require_membership=False)
        decided = mult_zero_test(task)
        brute = brute_force_zero(task)
        if decided.status == "Unknown":
            continue
        assert (decided.status == "Zero") == brute, (decided.status, brute)
        agreements += 1
    assert agreements >= 20


def test_brute_force_zero_sees_geometric_tails():
    # columns of a beyond 20 carry 0.25**j, far below any fixed threshold
    nest = make_nest({"basis": "N", "cuts": "all"})
    a = diag(rule_mask(rule_geometric(0.25), 20, None))
    task = MultiplicationTask.build(nest, a, identity())
    assert mult_zero_test(task).status == "NonZero"
    assert brute_force_zero(task) is False


def test_verify_suite_all_pass():
    out = verify_suite(seed=0, tasks=12)
    assert out["all_pass"] is True
    names = [row["check"] for row in out["rows"]]
    assert names == [
        "zero-vs-bruteforce",
        "weak-route-agreement",
        "certificate-recheck",
        "member-reconstruction",
        "refuter-recompute",
        "embedding-bounds",
        "radical-markers",
        "norm-lower-bound",
        "decidability",
    ]


def test_verify_suite_fault_injection_isolated():
    out = verify_suite(seed=0, tasks=6, inject_fault=True)
    assert out["all_pass"] is False
    failing = [row["check"] for row in out["rows"] if not row["pass"]]
    assert failing == ["certificate-recheck"]
