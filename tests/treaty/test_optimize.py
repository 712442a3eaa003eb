"""Algorithm 1 (Appendix C.2): sampled runs, soft bounds, both engines.

:mod:`repro.treaty.optimize` replays each sampled execution once and
keeps what it wrote; a configuration variable's soft bound per run is
read from the states that can have moved its site's local sum.  The
reference it is held to lives here: every post-transaction state
materialized, every state x clause x site evaluated.
"""

import random

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    SequenceWorkloadModel,
    build_joint_table,
    build_symbolic_table,
    build_templates,
    default_configuration,
    evaluate,
    linearize_for_treaty,
    optimize_configuration,
    parse_transaction,
)
from repro.logic.linear import LinearExpr
from repro.logic.terms import ObjT
from repro.treaty import optimize
from repro.treaty.config import check_h1_algebraic, check_h2
from repro.treaty.optimize import (
    OptimizerStats,
    SampledRun,
    configure_from_samples,
    sample_executions,
)
from repro.treaty.templates import ClauseTemplate, ConfigVar, TreatyTemplates

# -- the reference ---------------------------------------------------------------


def naive_states(db, steps):
    """``[D_1, ..., D_L]`` in full: one database copy per step."""
    states, current = [], dict(db)
    for writes in steps:
        current = {**current, **dict(writes)}
        states.append(current)
    return states


def naive_soft_bounds(clauses, state_runs):
    """Per configuration variable and run, the tightest bound over
    every state of the run."""
    soft_bounds = {}
    for states in state_runs:
        tightest = {}
        for state in states:
            lookup = lambda name: state.get(name, 0)  # noqa: E731
            for clause in clauses:
                for site in clause.sites:
                    var = clause.config_var(site)
                    bound = clause.bound - clause.local_sum_on(site, lookup)
                    if var not in tightest or bound < tightest[var]:
                        tightest[var] = bound
        for var, bound in tightest.items():
            soft_bounds.setdefault(var, []).append(bound)
    return soft_bounds


def indexed_run(db, steps, state=dict):
    """The same run as :func:`naive_states`, the way ``optimize`` holds it."""
    run = SampledRun(state(db))
    for writes in steps:
        run.steps += 1
        for name, value in writes:
            run.write(name, value)
    return run


def soft_bounds(clauses, runs):
    """``optimize``'s soft bounds; a variable with no sampled state has
    no entry in the reference and an empty one here."""
    return {
        var: bounds
        for var, bounds in optimize._soft_bounds(clauses, runs).items()
        if bounds
    }


# -- the Appendix C.2 worked example, as examples/quickstart.py builds it --------

T1 = parse_transaction(
    """
transaction T1() {
  xh := read(x);
  yh := read(y);
  if xh + yh < 10 then { write(x = xh + 1) } else { write(x = xh - 1) }
}
"""
)
T2 = parse_transaction(
    """
transaction T2() {
  xh := read(x);
  yh := read(y);
  if xh + yh < 20 then { write(y = yh + 1) } else { write(y = yh - 1) }
}
"""
)
FAMILIES = {"T1": T1, "T2": T2}
DB = {"x": 10, "y": 13}
MODEL = SequenceWorkloadModel(mix={"T1": 2.0, "T2": 1.0})


def getobj(name):
    return DB.get(name, 0)


def worked_templates():
    joint = build_joint_table([build_symbolic_table(T1), build_symbolic_table(T2)])
    lin = linearize_for_treaty(joint.lookup(getobj).guard, getobj)
    return build_templates(lin, lambda name: 1 if name == "x" else 2, [1, 2])


def worked_example(engine="fast", **knobs):
    knobs = {"lookahead": 3, "cost_factor": 3, **knobs}
    return optimize_configuration(
        worked_templates(),
        getobj,
        DB,
        FAMILIES,
        MODEL,
        rng=random.Random(42),
        engine=engine,
        **knobs,
    )


class TestWorkedExample:
    def test_fast_engine_configuration_and_stats(self):
        config, stats = worked_example()
        assert config.values == {ConfigVar(1, 0): -11, ConfigVar(2, 0): -9}
        assert config.strategy == "optimized-fast"
        assert stats == OptimizerStats(
            sampled_states=9, soft_constraints=6, satisfied=4, engine="fast"
        )

    def test_fumalik_engine_configuration_and_stats(self):
        config, stats = worked_example("fumalik")
        assert config.values == {ConfigVar(1, 0): -13, ConfigVar(2, 0): -7}
        assert stats == OptimizerStats(
            sampled_states=9, soft_constraints=6, satisfied=4, engine="fumalik"
        )

    @pytest.mark.parametrize("engine", ["fast", "fumalik"])
    def test_returned_configuration_is_valid(self, engine):
        config, _stats = worked_example(engine)
        assert check_h1_algebraic(worked_templates(), config)
        assert check_h2(worked_templates(), config, getobj)

    @pytest.mark.parametrize(
        "knobs", [{"lookahead": 0}, {"cost_factor": 0}, {"lookahead": -1}]
    )
    def test_no_lookahead_is_the_theorem_4_3_default(self, knobs):
        config, stats = worked_example(**knobs)
        default = default_configuration(worked_templates(), getobj)
        assert config.values == default.values
        assert config.strategy == "default"
        assert stats == OptimizerStats(engine="fast")

    def test_unknown_engine_is_refused(self):
        with pytest.raises(ValueError):
            worked_example("simplex")

    def test_replay_matches_the_interpreter(self):
        """The write index holds exactly the states ``evaluate`` yields."""
        runs = sample_executions(DB, FAMILIES, MODEL, 5, 4, random.Random(7))
        rng = random.Random(7)
        state_runs = []
        for _ in range(4):
            states, current = [], dict(DB)
            for name, params in MODEL.sample(rng, 5):
                current = evaluate(FAMILIES[name], current, params=params).db
                states.append(current)
            state_runs.append(states)
        assert [run.steps for run in runs] == [5] * 4
        assert [run.state for run in runs] == [states[-1] for states in state_runs]
        clauses = worked_templates().clauses
        assert soft_bounds(clauses, runs) == naive_soft_bounds(clauses, state_runs)

    def test_both_engines_read_the_same_soft_bounds(self, monkeypatch):
        seen = []
        real = optimize._soft_bounds

        def spy(clauses, runs):
            seen.append(real(clauses, runs))
            return seen[-1]

        monkeypatch.setattr(optimize, "_soft_bounds", spy)
        _config, fast = worked_example("fast")
        _config, fumalik = worked_example("fumalik")
        assert len(seen) == 2 and seen[0] == seen[1]
        assert seen[0] == {
            ConfigVar(1, 0): [-13, -11, -12],
            ConfigVar(2, 0): [-7, -9, -8],
        }
        assert fast.soft_constraints == fumalik.soft_constraints == 6


# -- write patterns, one by one and generated --------------------------------------

SITES = (0, 1, 2)
#: "ghost" is in no generated database: it reads as the null default
LOCATION = {"a": 0, "b": 0, "c": 1, "d": 1, "ghost": 1, "e": 2}


def clause_over(index, coeffs, bound):
    per_site = {}
    for name, coeff in coeffs.items():
        per_site.setdefault(LOCATION[name], {})[ObjT(name)] = coeff
    return ClauseTemplate(
        index=index,
        op="<=",
        bound=bound,
        site_exprs={site: LinearExpr.make(c) for site, c in per_site.items()},
        sites=SITES,
    )


#: the clause every pattern below is read through; site 2 has no
#: expression in it
CLAUSE = clause_over(0, {"a": -1, "b": 2, "ghost": -1}, 40)

PATTERNS = {
    "never written": [[("e", 5)], [("e", 6)], [("e", 7)]],
    "written at step 1 only": [[("a", 1)], [], []],
    "the peak is in D_0, which is not sampled": [[("a", 9), ("b", 0)], []],
    "written at every step": [[("b", 9)], [("b", 4)], [("b", 12)]],
    "rewritten to the same value": [[], [("a", 7)], [("a", 7)]],
    "absent object appears, then reads null again": [
        [("ghost", -6)],
        [],
        [("ghost", 0)],
    ],
    "peak in the middle": [[("b", 1)], [("b", 30), ("a", 0)], [("b", 2)]],
    "two writes in one step: the last one stands": [[("b", 50), ("b", 3)], []],
    "no steps at all": [],
}


@pytest.mark.parametrize("steps", PATTERNS.values(), ids=PATTERNS.keys())
def test_write_patterns_match_the_reference(steps):
    db = {"a": 7, "b": 3, "e": 1}
    got = soft_bounds([CLAUSE], [indexed_run(db, steps)])
    assert got == naive_soft_bounds([CLAUSE], [naive_states(db, steps)])
    if steps:
        assert set(got) == {CLAUSE.config_var(site) for site in SITES}
        assert got[CLAUSE.config_var(2)] == [CLAUSE.bound]  # no expression: sum 0


names = st.sampled_from(sorted(LOCATION))
values = st.integers(min_value=-20, max_value=20)
databases = st.dictionaries(st.sampled_from("abcde"), values)
step_lists = st.lists(st.lists(st.tuples(names, values), max_size=3), max_size=8)
coefficients = st.dictionaries(
    names, st.integers(min_value=-3, max_value=3).filter(bool), max_size=4
)


@given(
    db=databases,
    runs=st.lists(step_lists, min_size=1, max_size=3),
    shapes=st.lists(coefficients, min_size=1, max_size=3),
    slacks=st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=3),
)
def test_soft_bounds_and_validity_over_generated_runs(db, runs, shapes, slacks):
    lookup = lambda name: db.get(name, 0)  # noqa: E731
    clauses = []
    for index, (coeffs, slack) in enumerate(zip(shapes, slacks)):
        held = sum(coeff * lookup(name) for name, coeff in coeffs.items())
        clauses.append(clause_over(index, coeffs, held + slack))  # holds on D
    indexed = [indexed_run(db, steps) for steps in runs]
    assert soft_bounds(clauses, indexed) == naive_soft_bounds(
        clauses, [naive_states(db, steps) for steps in runs]
    )
    templates = TreatyTemplates(clauses=clauses, sites=SITES)
    config, stats = configure_from_samples(templates, lookup, indexed)
    assert check_h1_algebraic(templates, config)
    assert check_h2(templates, config, lookup)
    assert stats.sampled_states == sum(len(steps) for steps in runs)


@settings(max_examples=examples(10), deadline=None)  # Fu-Malik takes ~0.3 s an instance
@given(
    db=databases,
    steps=step_lists,
    coeffs=coefficients,
    slack=st.integers(min_value=0, max_value=30),
)
def test_fumalik_configurations_are_valid(db, steps, coeffs, slack):
    lookup = lambda name: db.get(name, 0)  # noqa: E731
    held = sum(coeff * lookup(name) for name, coeff in coeffs.items())
    templates = TreatyTemplates([clause_over(0, coeffs, held + slack)], SITES)
    config, _stats = configure_from_samples(
        templates, lookup, [indexed_run(db, steps)], engine="fumalik"
    )
    assert check_h1_algebraic(templates, config)
    assert check_h2(templates, config, lookup)


# -- the cost guard -------------------------------------------------------------------


class _CountingState(dict):
    """A scratch state that counts the reads made of it."""

    reads = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)


@pytest.mark.parametrize("lookahead", [3, 300])
def test_unwritten_clause_costs_sites_times_runs_whatever_the_lookahead(
    lookahead, monkeypatch
):
    """A run that never writes a clause's objects is read once per site
    expression, not once per state."""
    db = {"a": 7, "c": 3, "e": 1}
    clause = clause_over(0, {"a": 1, "c": 1, "e": 1}, 40)  # one object a site
    steps = [[("b", step)] for step in range(lookahead)]  # writes elsewhere
    runs = [indexed_run(db, steps, state=_CountingState) for _ in range(4)]
    for run in runs:
        run.state.reads = 0
    history_reads = []
    monkeypatch.setattr(
        optimize, "_value_at", lambda *args: history_reads.append(args) or 0
    )
    got = soft_bounds([clause], runs)
    assert got == naive_soft_bounds([clause], [naive_states(db, steps)] * 4)
    assert sum(run.state.reads for run in runs) == len(SITES) * len(runs)
    assert not history_reads
