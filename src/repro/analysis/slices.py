"""Local-remote partitions, LR-slices, observational equivalence.

These are the semantic foundations of the protocol (Section 3.2):

- Definition 3.2: a *local-remote partition* marks each database
  object local or remote for a given transaction/site.
- Definition 3.3: two evaluations are *observationally equivalent*
  when they agree on local state and on the printed log.
- Definition 3.4: ``(L, R)`` is an *LR-slice* for ``T`` when the
  observable behaviour of ``T`` is insensitive to which ``r in R``
  the remote objects hold.
- Definition 3.7: a global treaty is *valid* when its projections form
  an LR-slice for every transaction in the workload.

The checkers in this module verify these definitions by enumeration
over explicit (small) value sets; they are the executable
specification the treaty generator is held to: the states its installed
local treaties admit must form a valid global treaty
(``tests/analysis/test_slices.py::TestGeneratedTreatyIsValid``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.lang.ast import Transaction
from repro.lang.interp import EvalResult, evaluate


@dataclass(frozen=True)
class LocalRemotePartition:
    """Definition 3.2: a boolean function over object names.

    ``local_names`` is the extension of the partition's local side;
    every other object is remote.
    """

    local_names: frozenset[str]

    @staticmethod
    def of(names: Iterable[str]) -> "LocalRemotePartition":
        return LocalRemotePartition(frozenset(names))

    def is_local(self, name: str) -> bool:
        return name in self.local_names

    def split(self, db: Mapping[str, int]) -> tuple[dict[str, int], dict[str, int]]:
        """Split a database into its (local, remote) vectors."""
        local = {k: v for k, v in db.items() if self.is_local(k)}
        remote = {k: v for k, v in db.items() if not self.is_local(k)}
        return local, remote


def observationally_equivalent(
    a: EvalResult, b: EvalResult, partition: LocalRemotePartition
) -> bool:
    """Definition 3.3: equality of local vectors and logs.

    Remote objects are ignored: under Assumption 3.1 the transaction
    never writes them, so any difference there was present in the
    inputs, not created by the execution.
    """
    local_a, _ = partition.split(a.db)
    local_b, _ = partition.split(b.db)
    # Objects absent from a mapping read as 0; normalize.
    keys = set(local_a) | set(local_b)
    for key in keys:
        if local_a.get(key, 0) != local_b.get(key, 0):
            return False
    return a.log == b.log


def _assignments(
    names: Sequence[str], vectors: Iterable[Sequence[int]]
) -> list[dict[str, int]]:
    return [dict(zip(names, vec)) for vec in vectors]


def is_lr_slice(
    tx: Transaction,
    local_names: Sequence[str],
    remote_names: Sequence[str],
    local_vectors: Iterable[Sequence[int]],
    remote_vectors: Iterable[Sequence[int]],
    params: Mapping[str, int] | None = None,
) -> bool:
    """Definition 3.4, checked by enumeration.

    ``local_vectors`` / ``remote_vectors`` list the permitted value
    tuples for the named objects.  Returns True iff for every local
    vector ``l`` and all remote vectors ``r, r'``:
    ``Eval(T,(l,r)) == Eval(T,(l,r'))`` observationally.
    """
    partition = LocalRemotePartition.of(local_names)
    locals_ = _assignments(local_names, local_vectors)
    remotes = _assignments(remote_names, remote_vectors)
    for l in locals_:
        results = []
        for r in remotes:
            db = {**l, **r}
            results.append(evaluate(tx, db, params=params))
        for a, b in itertools.combinations(results, 2):
            if not observationally_equivalent(a, b, partition):
                return False
    return True


def is_valid_global_treaty(
    transactions: Sequence[tuple[Transaction, Sequence[str]]],
    treaty_states: Sequence[Mapping[str, int]],
    params: Mapping[str, Mapping[str, int]] | None = None,
) -> bool:
    """Definition 3.7, checked by enumeration over an explicit treaty.

    ``transactions`` pairs each transaction with the names of its
    *local* objects; ``treaty_states`` explicitly lists the databases
    in the treaty set Gamma.  For each transaction the projections
    ``L = {l | (l, r) in Gamma}`` and ``R = {r | (l, r) in Gamma}``
    must form an LR-slice.

    Note the projections are independent: ``(L, R)`` contains *all*
    recombinations ``(l, r')``, not just the pairs occurring in Gamma
    -- this is exactly why treaties factorized into independent local
    treaties (Lemma 4.2) satisfy the definition, while an entangled
    predicate like ``x = y`` does not.
    """
    params = params or {}
    all_names = sorted({name for db in treaty_states for name in db})
    for tx, local_names in transactions:
        local_set = set(local_names)
        remote_names = [n for n in all_names if n not in local_set]
        local_vecs = {tuple(db.get(n, 0) for n in local_names) for db in treaty_states}
        remote_vecs = {tuple(db.get(n, 0) for n in remote_names) for db in treaty_states}
        if not is_lr_slice(
            tx,
            list(local_names),
            remote_names,
            local_vecs,
            remote_vecs,
            params=params.get(tx.name),
        ):
            return False
    return True


def treaty_states_from_predicate(
    names: Sequence[str],
    domains: Mapping[str, Sequence[int]],
    predicate: Callable[[Mapping[str, int]], bool],
) -> list[dict[str, int]]:
    """Enumerate the extension of a treaty predicate over small domains."""
    out: list[dict[str, int]] = []
    for combo in itertools.product(*(domains[n] for n in names)):
        db = dict(zip(names, combo))
        if predicate(db):
            out.append(db)
    return out
