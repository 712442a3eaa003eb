"""The curated facade: ``repro``'s public surface and its consumers.

Guards the API-redesign satellites: ``repro.__all__`` is explicit and
every name in it resolves; the examples are written against the
facade only (zero deep-module imports); and the console entry point
is wired up.
"""

import ast
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[1]


class TestFacade:
    def test_all_exports_resolve(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert not missing

    def test_core_surface_present(self):
        for name in (
            "ClusterSpec",
            "NegotiationSpec",
            "build_cluster",
            "Outcome",
            "MicroWorkload",
            "GeoMicroWorkload",
            "TpccWorkload",
            "run_simulation",
            "run_experiment",
            "parse_transaction",
        ):
            assert name in repro.__all__, name

    def test_dunder_all_is_sorted_within_sections(self):
        # every export is importable via `from repro import <name>`
        namespace = {}
        exec(
            f"from repro import {', '.join(n for n in repro.__all__ if n != '__version__')}",
            namespace,
        )

    def test_build_cluster_round_trip(self):
        workload = repro.MicroWorkload(num_items=4, refill=4, num_sites=2)
        cluster = repro.build_cluster(
            workload.cluster_spec(strategy="equal-split")
        )
        result = cluster.submit("Buy@s0", {"item": 1})
        assert result.status is repro.Outcome.COMMITTED

    def test_negotiation_spec_threads_through_build_cluster(self):
        workload = repro.MicroWorkload(num_items=4, refill=4, num_sites=3)
        spec = workload.cluster_spec(
            strategy="equal-split",
            negotiation=repro.NegotiationSpec(policy="credit"),
        )
        cluster = repro.build_cluster(spec)
        assert cluster.submit("Buy@s0", {"item": 1}).status is (
            repro.Outcome.COMMITTED
        )
        stats = cluster.fairness_stats()
        assert stats["policy"] == "credit"
        assert stats["elections"] == 0  # sequential driver: unopposed


class TestExamplesUseTheFacade:
    def _imports_of(self, path: Path):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module

    def test_zero_deep_module_imports(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert examples, "examples/ directory missing"
        offenders = []
        for path in examples:
            for module in self._imports_of(path):
                if module.startswith("repro."):
                    offenders.append(f"{path.name}: {module}")
        assert not offenders, offenders


class TestEntryPoint:
    def test_repro_serve_script_declared(self):
        pyproject = (REPO / "pyproject.toml").read_text()
        assert 'repro-serve = "repro.runtime.serve:main"' in pyproject

    def test_serve_main_importable(self):
        from repro.runtime.serve import main

        assert callable(main)
