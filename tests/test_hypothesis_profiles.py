"""A property test that pins its example budget still runs deeper
under the nightly profile, and no deeper under any other."""

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st


@pytest.mark.parametrize(
    ("profile", "runs"), [("default", 20), ("fuzz-smoke", 20), ("nightly", 500)]
)
def test_a_pinned_budget_yields_only_to_the_nightly_profile(profile, runs):
    loaded = settings.get_current_profile_name()
    settings.load_profile(profile)
    try:
        calls = []

        @settings(max_examples=examples(20), database=None)
        @given(st.integers())
        def pinned(n):
            calls.append(n)

        pinned()
    finally:
        settings.load_profile(loaded)
    assert len(calls) == runs
