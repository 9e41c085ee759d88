"""Package metadata; this file is the only place it lives.

The environment's setuptools predates full PEP 660 editable-install support, so
``pip install -e .`` runs this file in legacy develop mode
(``--no-use-pep517``).  ``pip install -e .[test]`` adds what the test suite
imports beyond the runtime dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "The Laplacian Paradigm in the Broadcast Congested Clique "
        "(Forster & de Vos, PODC 2022) - reference implementation"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "scipy>=1.7", "networkx>=2.6"],
    extras_require={
        "test": ["pytest", "pytest-cov", "hypothesis"],
    },
)
