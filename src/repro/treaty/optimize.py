"""Algorithm 1 (Appendix C.2): workload-optimized treaty configurations.

Given the local treaty templates, a workload model and two tunable
parameters -- the lookahead interval ``L`` and the cost factor ``f``
-- the optimizer:

1. emits the hard constraints theta_h (locals imply the global
   treaty, one linear constraint over configuration variables per
   clause);
2. samples ``f`` future executions of ``L`` transactions each from
   the workload model and replays each once on a scratch copy of the
   current database, keeping per written object the steps that wrote
   it (:class:`SampledRun`); the soft constraint "the local treaties
   hold on state ``D_t``" is, plugging the state's local sums into the
   templates, an upper bound on each clause's configuration variables,
   simplified to the tightest bound per variable per execution exactly
   as in the worked example of Appendix C.2 -- and a site's local sum
   can only move at a step that wrote one of its objects, so only
   ``D_1`` and those steps' states are evaluated (the state x clause x
   site form is the oracle in ``tests/treaty/test_optimize.py``);
3. hands hard + soft constraints to a MaxSAT engine: either the
   faithful Fu-Malik procedure over our LIA solver, or the exact
   specialized budget solver (default -- orders of magnitude faster,
   same optima; see ``benchmarks/bench_ablation_maxsat.py``).

Equality clauses admit no optimization freedom under the per-clause
split (their configuration variables are pinned by the H1 equality),
so they take the Theorem 4.3 default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence

from repro.lang.ast import Transaction
from repro.lang.interp import ExecContext, InterpError, execute
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.solver.fastmaxsat import BudgetInstance, solve_budget_allocation
from repro.solver.maxsat import fu_malik_maxsat
from repro.treaty.config import Configuration, default_configuration
from repro.treaty.templates import ClauseTemplate, ConfigVar, TreatyTemplates


class WorkloadModel(Protocol):
    """A generative model of the expected future workload.

    The paper leaves the model's provenance open ("generated
    dynamically by gathering workload data as the system runs, or in
    other ways"); the optimizer only needs :meth:`sample`.
    """

    def sample(self, rng: random.Random, length: int) -> list[tuple[str, dict[str, int]]]:
        """Return a sequence of (transaction name, parameter values)."""
        ...


@dataclass
class SequenceWorkloadModel:
    """A workload model drawing i.i.d. transactions from a weighted mix.

    ``mix`` maps transaction names to relative frequencies;
    ``param_sampler`` draws parameter values per transaction.
    """

    mix: dict[str, float]
    param_sampler: Callable[[random.Random, str], dict[str, int]] = (
        lambda rng, name: {}
    )

    def sample(self, rng: random.Random, length: int) -> list[tuple[str, dict[str, int]]]:
        names = list(self.mix)
        weights = [self.mix[n] for n in names]
        out = []
        for _ in range(length):
            name = rng.choices(names, weights=weights, k=1)[0]
            out.append((name, self.param_sampler(rng, name)))
        return out


@dataclass
class OptimizerStats:
    """Observability for benchmarks (Figure 24's solver-time column)."""

    sampled_states: int = 0
    soft_constraints: int = 0
    satisfied: int = 0
    engine: str = "fast"


@dataclass
class SampledRun:
    """One sampled execution (Algorithm 1 lines 6-8), indexed by what
    it wrote.

    The sequence is replayed on one scratch state; instead of keeping a
    copy of the database per step, the run keeps, per written object,
    its value in ``D_0`` and the value each writing step left behind:
    every ``D_t(x)`` reads back from that, and an expression is only
    evaluated at the states that can have moved it (:meth:`peak`).
    """

    #: the scratch state: ``D_0`` before the first replay, ``D_L`` after
    #: the last
    state: dict[str, int]
    #: transactions replayed so far -- the ``L`` of ``[D_1, ..., D_L]``
    steps: int = 0
    #: object -> ``(0, D_0 value)`` then ``(step, value written)`` per
    #: writing step, ascending
    writes: dict[str, list[tuple[int, int]]] = field(default_factory=dict)

    def replay(
        self,
        tx: Transaction,
        params: Mapping[str, int],
        arrays: Mapping[str, tuple[int, ...]] | None = None,
    ) -> None:
        """Advance the scratch state by one transaction, as
        :func:`~repro.lang.interp.evaluate` would."""
        missing = set(tx.params) - set(params)
        if missing:
            raise InterpError(f"missing parameters for {tx.name}: {sorted(missing)}")
        self.steps += 1
        state = self.state
        ctx = ExecContext(
            getobj=lambda name: state.get(name, 0),
            setobj=self.write,
            emit=_discard,
            params=params,
            arrays=arrays or {},
        )
        execute(tx.body, ctx)

    def write(self, name: str, value: int) -> None:
        """The replay's ``setobj``: the current step leaves ``value``."""
        history = self.writes.get(name)
        if history is None:
            history = self.writes[name] = [(0, self.state.get(name, 0))]
        if history[-1][0] == self.steps:
            history[-1] = (self.steps, value)
        else:
            history.append((self.steps, value))
        self.state[name] = value

    def peak(self, expr: LinearExpr | None) -> int:
        """The largest value ``expr`` takes over ``[D_1, ..., D_L]``.

        It can only move at a step that wrote one of its objects, so
        the states evaluated are ``D_1`` (the first one Algorithm 1
        line 8 samples -- never ``D_0``) and those steps'.
        """
        if expr is None:
            return 0
        still = 0
        moving: list[tuple[int, list[tuple[int, int]]]] = []
        for var, coeff in expr.coeffs:
            history = self.writes.get(var.name)
            if history is None:
                still += coeff * self.state.get(var.name, 0)
            else:
                moving.append((coeff, history))
        if not moving:
            return still
        steps = {1}
        for _coeff, history in moving:
            steps.update(step for step, _value in history[1:])
        return still + max(
            sum(coeff * _value_at(history, step) for coeff, history in moving)
            for step in steps
        )


def _value_at(history: list[tuple[int, int]], step: int) -> int:
    """The value a write history (ascending, from step 0) holds after
    ``step``."""
    return next(value for at, value in reversed(history) if at <= step)


def _discard(_value: int) -> None:
    """A sampled future's prints go nowhere."""


def sample_executions(
    db_snapshot: Mapping[str, int],
    transactions: Mapping[str, Transaction],
    model: WorkloadModel,
    lookahead: int,
    cost_factor: int,
    rng: random.Random,
    arrays: Mapping[str, tuple[int, ...]] | None = None,
) -> list[SampledRun]:
    """Lines 6-8 of Algorithm 1: f sampled executions of length L,
    each replayed once on its own scratch copy of the database."""
    runs: list[SampledRun] = []
    for _ in range(cost_factor):
        run = SampledRun(dict(db_snapshot))
        for name, params in model.sample(rng, lookahead):
            run.replay(transactions[name], params, arrays)
        runs.append(run)
    return runs


def _soft_bounds(
    clauses: Sequence[ClauseTemplate], runs: Sequence[SampledRun]
) -> dict[ConfigVar, list[int]]:
    """Per configuration variable, one entry per sampled execution:
    the tightest bound ``n - local_sum(D_t)`` over that execution's
    states (the worked example of Appendix C.2 simplifies the same
    way)."""
    sampled = [run for run in runs if run.steps]
    return {
        clause.config_var(site): [
            clause.bound - run.peak(clause.site_exprs.get(site)) for run in sampled
        ]
        for clause in clauses
        for site in clause.sites
    }


def configure_from_samples(
    templates: TreatyTemplates,
    getobj: Callable[[str], int],
    runs: Sequence[SampledRun],
    engine: str = "fast",
) -> tuple[Configuration, OptimizerStats]:
    """Lines 9-13 of Algorithm 1 given pre-sampled executions.

    Split out from :func:`optimize_configuration` so an incremental
    treaty generator can sample the workload once and configure many
    template groups against the same futures.
    """
    stats = OptimizerStats(engine=engine)
    base = default_configuration(templates, getobj)

    opt_clauses = [cl for cl in templates.clauses if cl.op == "<="]
    if not opt_clauses or not runs:
        return base, stats

    stats.sampled_states = sum(run.steps for run in runs)
    soft_bounds = _soft_bounds(opt_clauses, runs)
    stats.soft_constraints = sum(len(v) for v in soft_bounds.values())
    values = dict(base.values)

    if engine == "fast":
        for clause in opt_clauses:
            variables = [clause.config_var(s) for s in clause.sites]
            # base.values holds the Theorem 4.3 frozen defaults, which
            # for <=-clauses are exactly the H2 caps n - local_sum(D).
            # Sampled demand (cap minus tightest sampled bound) steers
            # the distribution of leftover slack.
            caps = [base.values[var] for var in variables]
            bounds = [soft_bounds[var] for var in variables]
            demand = [max(cap - min(b), 0) if b else 0 for cap, b in zip(caps, bounds)]
            # Laplace-style smoothing: finite samples of a uniform
            # workload should not produce a lopsided split.
            smoothing = max(1, sum(demand) // (2 * len(variables)))
            instance = BudgetInstance(
                sites=variables,
                required_total=(len(variables) - 1) * clause.bound,
                soft_upper=dict(zip(variables, bounds)),
                hard_upper=dict(zip(variables, caps)),
                slack_weights={v: d + smoothing for v, d in zip(variables, demand)},
            )
            solution = solve_budget_allocation(instance)
            values.update(solution.assignment)
            stats.satisfied += solution.satisfied
    elif engine == "fumalik":
        hard = [cl.hard_constraint() for cl in opt_clauses]
        # H2 caps as hard constraints.
        for clause in opt_clauses:
            for site in clause.sites:
                var = clause.config_var(site)
                hard.append(
                    LinearConstraint.make(
                        LinearExpr.variable(var), "<=", base.values[var]
                    )
                )
        soft: list[LinearConstraint] = []
        for var, bounds in sorted(soft_bounds.items(), key=lambda kv: repr(kv[0])):
            for b in bounds:
                soft.append(LinearConstraint.make(LinearExpr.variable(var), "<=", b))
        result = fu_malik_maxsat(hard, soft)
        for clause in opt_clauses:
            for site in clause.sites:
                var = clause.config_var(site)
                if var in result.assignment:
                    values[var] = result.assignment[var]
        stats.satisfied = result.num_satisfied
    else:
        raise ValueError(f"unknown MaxSAT engine {engine!r}")

    return Configuration(values=values, strategy=f"optimized-{engine}"), stats


def demand_split(slack: int, weights: Sequence[float], floor: int) -> list[int]:
    """Split ``slack`` indivisible units proportionally to ``weights``.

    The demand-proportional allocation at the heart of adaptive treaty
    reallocation: each participant first receives a starvation floor
    of ``min(floor, slack // len(weights))`` units (so a site whose
    observed demand is zero still keeps headroom for its next burst),
    and the remainder is distributed proportionally to the weights by
    the largest-remainder method.  Invariants (property-tested in
    ``tests/treaty/test_demand.py``):

    - the shares sum to ``slack`` **exactly** -- no unit of global
      slack is wasted (equal-split floors the quotient and strands up
      to ``K - 1`` units) and none is invented, which is what keeps
      the H1 configuration-sum identity exact;
    - every share is non-negative, and at least the effective floor;
    - all-zero weights degrade to an (exact) equal split.

    Deterministic: remainder ties break by lowest index.
    """
    if slack < 0:
        raise ValueError(f"cannot split negative slack {slack}")
    count = len(weights)
    if count == 0:
        raise ValueError("cannot split slack among zero sites")
    if any(w < 0 for w in weights):
        raise ValueError("demand weights must be non-negative")
    base = min(max(floor, 0), slack // count)
    shares = [base] * count
    remainder = slack - base * count
    total_weight = sum(weights)
    if total_weight <= 0:
        weights = [1.0] * count
        total_weight = float(count)
    quotas = [remainder * w / total_weight for w in weights]
    for i in range(count):
        shares[i] += int(quotas[i])
    leftover = remainder - sum(int(q) for q in quotas)
    by_remainder = sorted(
        range(count), key=lambda i: (-(quotas[i] - int(quotas[i])), i)
    )
    for i in by_remainder[:leftover]:
        shares[i] += 1
    return shares


def demand_configuration(
    templates: TreatyTemplates,
    getobj: Callable[[str], int],
    object_rate: Callable[[str], float],
    floor: int | None = None,
) -> Configuration:
    """Demand-weighted configuration: size each site's split of every
    ``<=``-clause proportionally to its *observed* consumption rate.

    ``object_rate`` maps a ground object name to its estimated write
    rate (the online :class:`~repro.protocol.homeostasis.DemandEstimator`
    fed from the commit trace); a site's weight for a clause is the
    summed rate of the objects in its local sub-expression.  Site ``k``
    receives ``c_k = n - local_sum_k(D) - share_k`` where the shares
    partition the global slack ``n - psi(D)`` exactly, so

    - H1 is exact: ``sum_k c_k = K*n - psi(D) - slack = (K-1) * n``;
    - H2 holds: ``share_k >= 0`` gives ``local_sum_k <= n - c_k``.

    Two regularizers keep sparse, noisy rate estimates from producing
    worse allocations than a blind equal split (per-object write
    counts are tiny on workloads like TPC-C, where the item space is
    wide and re-splits are frequent):

    - Laplace-style smoothing (the same scheme the fast MaxSAT engine
      applies to its sampled demand): every site's weight gains
      ``total_rate / (2 K)``, so a site that happens to hold the only
      few recent writes gets ~3/4 of the slack instead of all of it,
      and uniform demand stays exactly uniform;
    - a scale-aware starvation floor: with ``floor=None`` (default)
      each site keeps at least ``max(1, slack // (4 K))`` units, ~6%
      of the clause's budget at K=4, whatever the estimator says.

    Equality clauses admit no slack and take the Theorem 4.3 frozen
    default, exactly as in the other strategies.
    """
    config = Configuration(strategy="demand")
    for clause in templates.clauses:
        local_sums = {s: clause.local_sum_on(s, getobj) for s in clause.sites}
        total = sum(local_sums.values())
        if clause.op == "=":
            for site in clause.sites:
                config.values[clause.config_var(site)] = total - local_sums[site]
            continue
        slack = clause.bound - total
        if slack < 0:
            raise ValueError(
                f"clause {clause.index} does not hold on the current database"
            )
        weights = []
        for site in clause.sites:
            expr = clause.site_exprs.get(site)
            rate = 0.0
            if expr is not None:
                for var, _coeff in expr.coeffs:
                    rate += object_rate(var.name)
            weights.append(rate)
        smoothing = sum(weights) / (2.0 * len(clause.sites))
        weights = [w + smoothing for w in weights]
        clause_floor = (
            floor if floor is not None else max(1, slack // (4 * len(clause.sites)))
        )
        shares = demand_split(slack, weights, clause_floor)
        for site, share in zip(clause.sites, shares):
            config.values[clause.config_var(site)] = (
                clause.bound - local_sums[site] - share
            )
    return config


def optimize_configuration(
    templates: TreatyTemplates,
    getobj: Callable[[str], int],
    db_snapshot: Mapping[str, int],
    transactions: Mapping[str, Transaction],
    model: WorkloadModel,
    lookahead: int = 20,
    cost_factor: int = 3,
    rng: random.Random | None = None,
    engine: str = "fast",
    arrays: Mapping[str, tuple[int, ...]] | None = None,
) -> tuple[Configuration, OptimizerStats]:
    """Algorithm 1: find a valid configuration minimizing expected
    violations over sampled future executions.

    ``engine`` is ``"fast"`` (specialized exact budget solver) or
    ``"fumalik"`` (the faithful Fu-Malik reimplementation).
    """
    rng = rng or random.Random(0)
    if lookahead <= 0 or cost_factor <= 0:
        return default_configuration(templates, getobj), OptimizerStats(engine=engine)
    runs = sample_executions(
        db_snapshot, transactions, model, lookahead, cost_factor, rng, arrays
    )
    return configure_from_samples(templates, getobj, runs, engine=engine)
