"""Test-suite configuration: hypothesis profiles.

The default profile keeps the property suites fast on the PR critical
path; the nightly workflow selects the deeper budget with
``pytest --hypothesis-profile=nightly``, and the CI fuzz-smoke job
selects the time-boxed budget with
``pytest --hypothesis-profile=fuzz-smoke``.

An explicit ``@settings(max_examples=N)`` overrides whatever profile is
loaded, so a property test that pins its budget pins it through
:func:`examples`, which lets the deep profile through.
"""

from hypothesis import settings

settings.register_profile("nightly", max_examples=500, deadline=None)
settings.register_profile("fuzz-smoke", max_examples=25, deadline=None)


def examples(pinned: int) -> int:
    """A property test's example budget under the loaded profile.

    A profile that raises the budget past hypothesis' default
    (``nightly``) lifts ``pinned`` to at least its own count; under
    every other profile (the default, ``fuzz-smoke``) the test runs
    ``pinned`` examples.  Evaluated where the decorator is, at
    collection, after ``--hypothesis-profile`` has been loaded.
    """
    loaded = settings().max_examples
    if loaded > settings.get_profile("default").max_examples:
        return max(pinned, loaded)
    return pinned
