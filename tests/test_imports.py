"""Import contract: the scalar layer starts without numpy or mpmath, and
the package's records load no ``dataclasses`` (nor the ``inspect`` that it
pulls in).

Each check runs in a fresh interpreter, since this test process has long
since imported all of them.  numpy imports ``inspect`` itself, so the
commands that load numpy are checked for numpy and mpmath only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ARRAYS = ("numpy", "mpmath")
HEAVY = ARRAYS + ("dataclasses", "inspect")


def loaded_after(code: str, modules=HEAVY) -> str:
    """Run code in a fresh interpreter on this checkout's sources; return
    which of ``modules`` it loaded, as the printed sorted list."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    loaded = f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
    out = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + loaded],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def cli_code(*argv: str) -> str:
    return (
        "from revpinsker.cli import main\n"
        f"assert main({list(argv)!r}) == 0\n"
    )


def test_import_loads_neither():
    assert loaded_after("import revpinsker\n") == "[]"


@pytest.mark.parametrize("argv", [
    ("bound", "--div", "kl", "--formula", "thm1", "--delta", "0.25", "--m", "0.5", "--M", "2"),
    ("bound", "--div", "renyi:3", "--formula", "cor1", "--m", "0.1", "--M", "1e300"),
    ("extremal", "--delta", "0.25", "--m", "0.5", "--M", "2", "--format", "csv"),
    ("compare", "--comparator", "sason-renyi", "--alpha", "0.5"),
    ("compare", "--comparator", "verdu"),
], ids=lambda argv: "-".join(argv[:3]))
def test_scalar_commands_load_neither(argv):
    assert loaded_after(cli_code(*argv)) == "[]"


def test_oracle_names_resolve_on_first_use():
    # the oracle imports numpy only inside its array functions, so resolving
    # its names loads nothing
    code = (
        "import revpinsker\n"
        "from revpinsker import SearchConfig, search_sup\n"
        "from revpinsker import cli, oracle\n"
        "assert search_sup is oracle.search_sup is cli.search_sup\n"
        "assert SearchConfig is oracle.SearchConfig is cli.SearchConfig\n"
        "assert all(hasattr(revpinsker, name) for name in revpinsker.__all__)\n"
    )
    assert loaded_after(code) == "[]"


def test_unknown_names_still_raise():
    code = (
        "import revpinsker, revpinsker.cli\n"
        "for module in (revpinsker, revpinsker.cli):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(1)\n"
    )
    assert loaded_after(code) == "[]"


def test_fuzz_loads_numpy_but_not_mpmath():
    argv = ("fuzz", "--div", "kl", "--delta", "0.25", "--m", "0.5", "--M", "2",
            "--trials", "50")
    assert loaded_after(cli_code(*argv), ARRAYS) == "['numpy']"
