"""Setuptools shim.

The project is fully described by ``pyproject.toml``.  This file exists for
offline environments without the ``wheel`` package, where pip's editable
build fails on setuptools < 70: there ``python setup.py develop --no-deps``
reads the same ``pyproject.toml`` metadata and installs the ``abe-repro``
command.
"""

from setuptools import setup

setup()
