"""Tests for LR-slices and observational equivalence (Section 3.2)."""

from repro.analysis.slices import (
    LocalRemotePartition,
    is_lr_slice,
    is_valid_global_treaty,
    observationally_equivalent,
    treaty_states_from_predicate,
)
from repro.analysis.symbolic import build_symbolic_table
from repro.lang.interp import EvalResult
from repro.lang.parser import parse_transaction
from repro.logic.linear import LinearConstraint
from repro.protocol.config import ClusterSpec, build_cluster
from repro.treaty.table import LocalTreaty

T3_SRC = """
transaction T3() {
  xh := read(x);
  if xh > 0 then { write(y = 1) } else { write(y = -1) }
}
"""

T4_SRC = """
transaction T4() {
  xh := read(x);
  yh := read(y);
  if yh = 1 then { write(z = (xh > 10)) } else { write(z = (xh > 100)) }
}
"""


class TestObservationalEquivalence:
    def test_equal_local_and_log(self):
        p = LocalRemotePartition.of(["y"])
        a = EvalResult(db={"y": 1, "x": 5}, log=(1,))
        b = EvalResult(db={"y": 1, "x": 99}, log=(1,))
        assert observationally_equivalent(a, b, p)  # x is remote; ignored

    def test_local_difference_detected(self):
        p = LocalRemotePartition.of(["y"])
        a = EvalResult(db={"y": 1}, log=())
        b = EvalResult(db={"y": 2}, log=())
        assert not observationally_equivalent(a, b, p)

    def test_log_difference_detected(self):
        p = LocalRemotePartition.of(["y"])
        a = EvalResult(db={"y": 1}, log=(1,))
        b = EvalResult(db={"y": 1}, log=(2,))
        assert not observationally_equivalent(a, b, p)

    def test_zero_default_normalization(self):
        p = LocalRemotePartition.of(["y"])
        a = EvalResult(db={}, log=())
        b = EvalResult(db={"y": 0}, log=())
        assert observationally_equivalent(a, b, p)


class TestT3Slices:
    def test_positive_remote_region_is_slice(self):
        """Section 3.2's motivating example: T3 behaves identically as
        long as x stays positive."""
        tx = parse_transaction(T3_SRC)
        assert is_lr_slice(
            tx,
            local_names=["y"],
            remote_names=["x"],
            local_vectors=[(0,), (1,), (-1,)],
            remote_vectors=[(1,), (5,), (10,), (100,)],
        )

    def test_sign_crossing_region_is_not_slice(self):
        tx = parse_transaction(T3_SRC)
        assert not is_lr_slice(
            tx,
            local_names=["y"],
            remote_names=["x"],
            local_vectors=[(0,)],
            remote_vectors=[(-1,), (1,)],
        )


class TestExample35:
    """The paper's Example 3.5: LR-slices for T4 (y local, x remote)."""

    def _tx(self):
        return parse_transaction(T4_SRC)

    def test_slice_one(self):
        assert is_lr_slice(
            self._tx(), ["y", "z"], ["x"],
            [(1, z) for z in (0, 1)], [(11,), (12,), (13,)],
        )

    def test_slice_two(self):
        assert is_lr_slice(
            self._tx(), ["y", "z"], ["x"],
            [(1, z) for z in (0, 1)], [(11,), (12,), (13,), (14,)],
        )

    def test_slice_three(self):
        assert is_lr_slice(
            self._tx(), ["y", "z"], ["x"],
            [(y, z) for y in (2, 3, 4) for z in (0, 1)],
            [(0,), (1,), (2,), (3,)],
        )

    def test_crossing_ten_is_not_slice_when_y_is_1(self):
        assert not is_lr_slice(
            self._tx(), ["y", "z"], ["x"],
            [(1, 0)], [(10,), (11,)],
        )

    def test_crossing_hundred_ok_when_y_is_1(self):
        """When y = 1 only the 10-boundary matters."""
        assert is_lr_slice(
            self._tx(), ["y", "z"], ["x"],
            [(1, 0)], [(99,), (100,), (101,), (150,)],
        )


class TestValidGlobalTreaty:
    def test_product_form_treaty_is_valid(self):
        """A treaty defined by independent local predicates satisfies
        Definition 3.7 (the essence of Lemma 4.2)."""
        t3 = parse_transaction(T3_SRC)
        states = treaty_states_from_predicate(
            ["x", "y"],
            {"x": range(1, 6), "y": range(-1, 2)},
            lambda db: db["x"] >= 1,  # local-only condition on x's site
        )
        assert is_valid_global_treaty([(t3, ["y"])], states)

    def test_entangled_treaty_is_invalid(self):
        """A non-product treaty like x = y fails: Definition 3.7 takes
        independent projections of L and R, and recombinations leave
        the intended set."""
        tx = parse_transaction(
            """
            transaction E() {
              xh := read(x);
              if xh > 0 then { write(y = 1) } else { write(y = -1) }
            }
            """
        )
        states = [{"x": -1, "y": -1}, {"x": 1, "y": 1}]  # "x = y" treaty
        assert not is_valid_global_treaty([(tx, ["y"])], states)


# The paper's running example (Figure 3), as in examples/quickstart.py.
T1_SRC = """
transaction T1() {
  xh := read(x);
  yh := read(y);
  if xh + yh < 10 then { write(x = xh + 1) } else { write(x = xh - 1) }
}
"""

T2_SRC = """
transaction T2() {
  xh := read(x);
  yh := read(y);
  if xh + yh < 20 then { write(y = yh + 1) } else { write(y = yh - 1) }
}
"""


class TestGeneratedTreatyIsValid:
    """The treaty generator held to Definition 3.7: the states its
    installed local treaties admit form a valid global treaty."""

    BOX = {"x": range(6, 15), "y": range(9, 18)}  # around D = {x: 10, y: 13}

    def _installed(self):
        t1, t2 = parse_transaction(T1_SRC), parse_transaction(T2_SRC)
        tab1, tab2 = build_symbolic_table(t1), build_symbolic_table(t2)
        cluster = build_cluster(
            ClusterSpec(
                sites=(1, 2),
                locate=lambda name: 1 if name == "x" else 2,
                initial_db={"x": 10, "y": 13},
                tables=(tab1, tab2),
                tx_home={"T1": 1, "T2": 2},
                ground_tables=((tab1, 1), (tab2, 2)),
                strategy="equal-split",
            )
        )
        treaties = {sid: site.local_treaty for sid, site in cluster.sites.items()}
        return [(t1, ["x"]), (t2, ["y"])], treaties

    def _admitted(self, treaties):
        return treaty_states_from_predicate(
            ["x", "y"],
            self.BOX,
            lambda db: all(t.holds(db.__getitem__) for t in treaties.values()),
        )

    def test_installed_local_treaties_form_a_valid_global_treaty(self):
        transactions, treaties = self._installed()
        states = self._admitted(treaties)
        assert {"x": 10, "y": 13} in states and len(states) < 81
        assert is_valid_global_treaty(transactions, states)

    def test_bound_loosened_past_h1_is_invalid(self):
        """x >= 9 and y >= 12 imply the matched guard x + y >= 20 (H1);
        x >= 6 does not, and T2 then branches on the remote x."""
        transactions, treaties = self._installed()
        (clause,) = treaties[1].constraints
        loose = LinearConstraint(clause.expr, clause.op, clause.bound + 3)
        treaties[1] = LocalTreaty(site=1, constraints=[loose])
        assert not is_valid_global_treaty(transactions, self._admitted(treaties))
