"""Packaging for ``repro``, a reproduction of DISTAL (the distributed
tensor algebra compiler).

The package lives under ``src/``. ``pip install .`` installs it, with
``numpy``; the ``test`` extra adds ``pytest`` and ``hypothesis``, which
the tier-1 suite imports (``pip install .[test]``). An editable
``pip install -e .`` needs the ``wheel`` package; without it,
``python setup.py develop`` is the equivalent editable install. All
metadata lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="DISTAL reproduction: distributed tensor algebra "
    "scheduling, simulation and tuning",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "hypothesis"]},
)
