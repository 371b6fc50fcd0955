"""Setup shim so legacy editable installs work without the wheel package.

The environment has setuptools but no `wheel`, which breaks PEP 660
editable installs; `python setup.py develop` (or `pip install -e .` with
older tooling) goes through this shim. Metadata is kept minimal — the
project is normally used straight from the tree via ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.7",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)
