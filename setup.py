"""Setup shim so `pip install -e .` works in offline environments.

The environment this project targets has no network access and no `wheel`
package, so PEP 517 editable installs (which build a wheel) fail.  Keeping
a setup.py and omitting [build-system] from pyproject.toml makes pip fall
back to the legacy `setup.py develop` path, which works offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Tolerating Dependences Between Large "
        "Speculative Threads Via Sub-Threads' (ISCA 2006)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
)
