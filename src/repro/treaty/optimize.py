"""Algorithm 1 (Appendix C.2): workload-optimized treaty configurations.

Given the local treaty templates, a workload model and two tunable
parameters -- the lookahead interval ``L`` and the cost factor ``f``
-- the optimizer:

1. emits the hard constraints theta_h (locals imply the global
   treaty, one linear constraint over configuration variables per
   clause);
2. samples ``f`` future executions of ``L`` transactions each from
   the workload model and replays each once on a scratch copy of the
   current database -- through each family's
   :func:`~repro.logic.compile.compile_residual` closure, lowered once
   (:func:`lower_families`; :mod:`repro.lang.interp` stays the
   reference) -- keeping per written object the steps that wrote
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
   same optima; see ``benchmarks/bench_ablation_maxsat.py``), which
   solves each distinct clause once per set of sampled futures
   (:class:`SampledFutures`).

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
from repro.logic.compile import Residual, compile_residual
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

    def sample(
        self, rng: random.Random, length: int
    ) -> list[tuple[str, dict[str, int]]]:
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

    def sample(
        self, rng: random.Random, length: int
    ) -> list[tuple[str, dict[str, int]]]:
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


@dataclass(frozen=True)
class Family:
    """A family transaction lowered once for replay: ``run`` is its
    body's :func:`~repro.logic.compile.compile_residual` closure."""

    #: the name the workload model samples it by
    name: str
    tx: Transaction
    run: Residual


def lower_families(transactions: Mapping[str, Transaction]) -> dict[str, Family]:
    """Every family transaction, lowered for :meth:`SampledRun.replay`."""
    return {
        name: Family(name, tx, compile_residual(tx.body))
        for name, tx in transactions.items()
    }


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
    #: the ``(family name, parameters)`` replayed, in order
    sampled: list[tuple[str, Mapping[str, int]]] = field(default_factory=list)

    def replay(
        self,
        family: Family,
        params: Mapping[str, int],
        arrays: Mapping[str, tuple[int, ...]] | None = None,
    ) -> None:
        """Advance the scratch state by one transaction, as
        :func:`~repro.lang.interp.evaluate` would, through its compiled
        closure."""
        self._step(family, params)
        state = self.state
        family.run(
            lambda name: state.get(name, 0), self.write, _discard, params, arrays or {}
        )

    def replay_interpreted(
        self,
        family: Family,
        params: Mapping[str, int],
        arrays: Mapping[str, tuple[int, ...]] | None = None,
    ) -> None:
        """:meth:`replay` through :func:`~repro.lang.interp.execute`:
        the reference the validate-mode oracle holds it to."""
        self._step(family, params)
        state = self.state
        ctx = ExecContext(
            getobj=lambda name: state.get(name, 0),
            setobj=self.write,
            emit=_discard,
            params=params,
            arrays=arrays or {},
        )
        execute(family.tx.body, ctx)

    def _step(self, family: Family, params: Mapping[str, int]) -> None:
        missing = set(family.tx.params) - set(params)
        if missing:
            raise InterpError(
                f"missing parameters for {family.tx.name}: {sorted(missing)}"
            )
        self.steps += 1
        self.sampled.append((family.name, params))

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


#: what configuring one clause depends on besides the round: its
#: operator, bound, sites and per-site expressions (``None`` where a
#: site has none) -- everything but the clause index, which only
#: labels its configuration variables
ClauseContent = tuple[str, int, tuple[int, ...], tuple[LinearExpr | None, ...]]


class SampledFutures:
    """One round's sampled executions and the clause work that is a
    function of them and the round's database alone.

    Each ground instance of a transaction family contributes its own
    copy of the same clause: every NewOrder instance over one item
    carries that item's stock clause, and only its bound (the quantity)
    and the pins beside it (district, origin) differ.  Once the runs
    and the database are fixed, a clause's H2 caps, soft bounds and
    split are a function of its :data:`ClauseContent`, and a site
    expression's peaks of the expression alone; both are computed once
    here and shared by every instance that configures against these
    futures.  Nothing outlives them: a fresh round samples afresh.
    """

    def __init__(self, runs: Sequence[SampledRun]) -> None:
        self.runs = list(runs)
        #: the runs Algorithm 1 line 8 samples a state of
        self.sampled = [run for run in self.runs if run.steps]
        #: site expression -> its peak in each of :attr:`sampled`
        self._peaks: dict[LinearExpr | None, list[int]] = {}
        #: clause content -> (its per-site split, soft bounds satisfied)
        self.splits: dict[ClauseContent, tuple[tuple[int, ...], int]] = {}
        #: the database :attr:`splits` was computed on
        self._getobj: Callable[[str], int] | None = None

    def peaks(self, expr: LinearExpr | None) -> list[int]:
        """``run.peak(expr)`` for every run of :attr:`sampled`."""
        peaks = self._peaks.get(expr)
        if peaks is None:
            peaks = self._peaks[expr] = [run.peak(expr) for run in self.sampled]
        return peaks

    def splits_on(
        self, getobj: Callable[[str], int]
    ) -> dict[ClauseContent, tuple[tuple[int, ...], int]]:
        """The split memo for the database ``getobj`` reads.  A clause's
        caps follow the database, so configuring through another
        ``getobj`` starts the memo afresh; a round reads one database
        through one ``getobj``, unchanged while it configures."""
        if getobj is not self._getobj:
            self._getobj, self.splits = getobj, {}
        return self.splits


def sample_executions(
    db_snapshot: Mapping[str, int],
    families: Mapping[str, Family],
    model: WorkloadModel,
    lookahead: int,
    cost_factor: int,
    rng: random.Random,
    arrays: Mapping[str, tuple[int, ...]] | None = None,
) -> SampledFutures:
    """Lines 6-8 of Algorithm 1: f sampled executions of length L,
    each replayed once on its own scratch copy of the database."""
    runs: list[SampledRun] = []
    for _ in range(cost_factor):
        run = SampledRun(dict(db_snapshot))
        for name, params in model.sample(rng, lookahead):
            run.replay(families[name], params, arrays)
        runs.append(run)
    return SampledFutures(runs)


def _soft_bounds(
    clauses: Sequence[ClauseTemplate], futures: SampledFutures
) -> dict[ConfigVar, list[int]]:
    """Per configuration variable, one entry per sampled execution:
    the tightest bound ``n - local_sum(D_t)`` over that execution's
    states (the worked example of Appendix C.2 simplifies the same
    way)."""
    return {
        clause.config_var(site): [
            clause.bound - peak for peak in futures.peaks(clause.site_exprs.get(site))
        ]
        for clause in clauses
        for site in clause.sites
    }


def _content(clause: ClauseTemplate) -> ClauseContent:
    return (
        clause.op,
        clause.bound,
        clause.sites,
        tuple(clause.site_exprs.get(site) for site in clause.sites),
    )


def _split(
    clause: ClauseTemplate, getobj: Callable[[str], int], futures: SampledFutures
) -> tuple[tuple[int, ...], int]:
    """One clause's per-site configuration values and the soft bounds
    they satisfy: the Theorem 4.3 default for an ``=``-clause, the
    budget solve for a ``<=``-clause."""
    exprs = [clause.site_exprs.get(site) for site in clause.sites]
    local_sums = [0 if expr is None else expr.value_on(getobj) for expr in exprs]
    if clause.op == "=":
        total = sum(local_sums)
        return tuple(total - local for local in local_sums), 0
    # The Theorem 4.3 frozen defaults of a <=-clause are exactly its H2
    # caps n - local_sum(D).  Sampled demand (cap minus tightest sampled
    # bound) steers the distribution of leftover slack.
    sites = list(range(len(exprs)))
    caps = [clause.bound - local for local in local_sums]
    bounds = [[clause.bound - peak for peak in futures.peaks(expr)] for expr in exprs]
    demand = [max(cap - min(b), 0) if b else 0 for cap, b in zip(caps, bounds)]
    # Laplace-style smoothing: finite samples of a uniform workload
    # should not produce a lopsided split.
    smoothing = max(1, sum(demand) // (2 * len(sites)))
    instance = BudgetInstance(
        sites=sites,
        required_total=(len(sites) - 1) * clause.bound,
        soft_upper=dict(zip(sites, bounds)),
        hard_upper=dict(zip(sites, caps)),
        slack_weights={site: d + smoothing for site, d in zip(sites, demand)},
    )
    solution = solve_budget_allocation(instance)
    return tuple(solution.assignment[site] for site in sites), solution.satisfied


def configure_from_samples(
    templates: TreatyTemplates,
    getobj: Callable[[str], int],
    futures: SampledFutures,
    engine: str = "fast",
) -> tuple[Configuration, OptimizerStats]:
    """Lines 9-13 of Algorithm 1 given pre-sampled executions.

    Split out from :func:`optimize_configuration` so an incremental
    treaty generator can sample the workload once and configure many
    template groups against the same futures.  The ``fast`` engine
    configures each distinct clause once per ``futures`` and database
    (:class:`SampledFutures`); ``fumalik``, the ablation reference,
    solves every template group on its own.
    """
    stats = OptimizerStats(engine=engine)
    opt_clauses = [cl for cl in templates.clauses if cl.op == "<="]
    if not opt_clauses or not futures.runs:
        return default_configuration(templates, getobj), stats

    stats.sampled_states = sum(run.steps for run in futures.runs)
    variables = sum(len(cl.sites) for cl in opt_clauses)
    stats.soft_constraints = variables * len(futures.sampled)

    if engine == "fast":
        values: dict[ConfigVar, int] = {}
        splits = futures.splits_on(getobj)
        for clause in templates.clauses:
            content = _content(clause)
            split = splits.get(content)
            if split is None:
                split = splits[content] = _split(clause, getobj, futures)
            values.update(zip(map(clause.config_var, clause.sites), split[0]))
            stats.satisfied += split[1]
        return Configuration(values=values, strategy="optimized-fast"), stats
    if engine != "fumalik":
        raise ValueError(f"unknown MaxSAT engine {engine!r}")

    base = default_configuration(templates, getobj)
    soft_bounds = _soft_bounds(opt_clauses, futures)
    values = dict(base.values)
    hard = [cl.hard_constraint() for cl in opt_clauses]
    # H2 caps as hard constraints.
    for clause in opt_clauses:
        for site in clause.sites:
            var = clause.config_var(site)
            hard.append(
                LinearConstraint.make(LinearExpr.variable(var), "<=", base.values[var])
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
    return Configuration(values=values, strategy="optimized-fumalik"), stats


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
    futures = sample_executions(
        db_snapshot,
        lower_families(transactions),
        model,
        lookahead,
        cost_factor,
        rng,
        arrays,
    )
    return configure_from_samples(templates, getobj, futures, engine=engine)
