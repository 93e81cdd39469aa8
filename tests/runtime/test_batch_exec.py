"""The retired batch tier's remaining surface.

The batch lane interpreter is gone: the loops it ran now run on codegen
(see ``test_codegen.py``).  What is left is its name: ``"batch"`` is no
longer an engine, and asking for it — from the executor or from a
service job spec — fails with the error that lists the valid engines.
"""

import pytest

from repro.minic.parser import parse
from repro.runtime.executor import Executor, Machine
from repro.service.jobs import JobSpec


def test_engine_validation():
    with pytest.raises(ValueError):
        Executor(parse("void main() {}"), Machine(), engine="warp")
    with pytest.raises(ValueError, match="valid engines are auto, codegen, tree"):
        Executor(parse("void main() {}"), Machine(), engine="batch")
    with pytest.raises(ValueError, match="valid engines are auto, codegen, tree"):
        JobSpec(kind="bench", workload="kmeans", engine="batch").validate()
