"""Setuptools shim.

The environment this reproduction targets has no ``wheel`` package available
(offline), so editable installs go through the legacy ``setup.py develop``
path.  The core engines run on numpy/scipy alone; there are no optional
dependency groups.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
