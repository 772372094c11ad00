"""Package metadata for ``pip install -e .``.

The project has no ``pyproject.toml``: this file is the whole build
configuration.  It ships only ``src/repro``; the benchmarks, the smoke
gates (``benchmarks/perf/``) and the frozen test oracles
(``tests/oracle/``) stay in the source tree.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Access pattern-based code compression for memory-constrained "
        "embedded systems (DATE 2005 reproduction)"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)
