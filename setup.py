"""Packaging for the WedgeChain reproduction (``repro``, under ``src/``).

All project metadata is declared here — there is no ``pyproject.toml`` — so
``pip install -e .`` works offline with any setuptools.  The package is
pure Python and has no runtime dependencies; the tests need ``pytest``,
``pytest-benchmark`` and ``hypothesis``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # keep equal to repro.__version__
    description="WedgeChain: a trusted edge-cloud store with lazy certification",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
