"""The benchmark's tracer patches functions by name, in the module where
their callers look them up; every such name must exist, and uninstalling the
tracer must put the original back."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_tracer_patches_names_that_exist_and_restores_them():
    targets = [(owner, attr) for owner, attr, *_ in spans.SPANS + spans.LEAVES]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not hasattr(owner, attr)]
    assert not missing
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(targets, originals))
