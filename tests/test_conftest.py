"""The suite's own guard: a test whose call, or a fixture whose setup or
teardown, outlasts conftest.TEST_TIMEOUT_S ends the run, with a nonzero exit
and the stacks on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import horocount

_TESTS = Path(__file__).resolve().parent
_PACKAGE_ROOT = Path(horocount.__file__).resolve().parents[1]

# pytest in a fresh interpreter, with this suite's conftest as its one plugin
# and the timeout cut to one second
_RUN = (
    "import sys\n"
    "import conftest, pytest\n"
    "conftest.TEST_TIMEOUT_S = 1\n"
    "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', sys.argv[1]], plugins=[conftest]))\n"
)


def _run_guarded(tmp_path, source):
    (tmp_path / "test_sleeps.py").write_text(source)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (_TESTS, _PACKAGE_ROOT))))
    return subprocess.run([sys.executable, "-c", _RUN, str(tmp_path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=25)


def test_a_test_past_the_timeout_ends_the_run(tmp_path):
    done = _run_guarded(tmp_path, "import time\n\n\ndef test_sleeps():\n    time.sleep(30)\n")
    assert done.returncode != 0
    assert "Timeout" in done.stderr and "test_sleeps" in done.stderr


@pytest.mark.parametrize("where", ["setup", "teardown"])
def test_a_fixture_past_the_timeout_ends_the_run(tmp_path, where):
    sleep_before, sleep_after = ("time.sleep(30)", "pass") if where == "setup" else ("pass", "time.sleep(30)")
    done = _run_guarded(tmp_path, (
        "import time\n\nimport pytest\n\n\n@pytest.fixture\ndef sleeps():\n"
        f"    {sleep_before}\n    yield\n    {sleep_after}\n\n\n"
        "def test_uses_a_fixture(sleeps):\n    pass\n"
    ))
    assert done.returncode != 0
    assert "Timeout" in done.stderr and "in sleeps" in done.stderr  # the fixture's frame
