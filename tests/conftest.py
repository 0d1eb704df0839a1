"""Test-suite settings: property tests run a fixed, bounded set of examples.

``derandomize`` draws the same examples on every run and ``database=None``
keeps no example store, so a property test passes or fails the same way each
time; ``deadline=None`` because one example's time depends on the machine.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "juxtaspec", derandomize=True, database=None, deadline=None, max_examples=60
    )
    settings.load_profile("juxtaspec")
