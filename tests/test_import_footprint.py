"""What importing the package loads.

`import ordep.cli` must not load `dataclasses` (which pulls in
`inspect`, `ast`, `dis` and `tokenize`), `hashlib` (which loads
OpenSSL's binding, for one fingerprint per call), nor the brute-force
reference `ordep.oracle`, whose names the package serves on first use.
Each check runs in a fresh, isolated interpreter (`-I`), so neither
modules this test run already loaded nor the environment can hide an
import.
"""

import os
import subprocess
import sys

import pytest

import ordep

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ordep.__file__)))


def run_isolated(code: str) -> str:
    prelude = f"import sys; sys.path.insert(0, {SRC!r}); "
    proc = subprocess.run(
        [sys.executable, "-I", "-c", prelude + code], capture_output=True, text=True, check=True
    )
    return proc.stdout


def test_cli_import_leaves_dataclasses_and_oracle_out():
    out = run_isolated(
        "import ordep.cli; print(sorted({'dataclasses', 'hashlib', 'ordep.oracle'} & set(sys.modules)))"
    )
    assert out.strip() == "[]"


def test_oracle_names_load_on_first_use():
    out = run_isolated(
        "import ordep; before = 'ordep.oracle' in sys.modules; "
        "from ordep import OracleConfig, brute_discover, lex_leq; "
        "print(before, 'ordep.oracle' in sys.modules, OracleConfig.__module__, brute_discover.__module__, "
        "lex_leq.__module__)"
    )
    assert out.split() == ["False", "True", "ordep.oracle", "ordep.oracle", "ordep.oracle"]


def test_star_import_binds_every_public_name():
    out = run_isolated(
        "import ordep; space = {}; exec('from ordep import *', space); "
        "print(sorted(n for n in ordep.__all__ if space.get(n) is not getattr(ordep, n)))"
    )
    assert out.strip() == "[]"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ordep.no_such_name
    assert not hasattr(ordep, "no_such_name")
