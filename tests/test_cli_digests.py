"""The CLI's bytes, pinned: stdout, stderr and exit code of 26 commands.

`tests/data/cli_digests.json` holds, per command, the sha256 of stdout and
of stderr and the exit code.  A change that is meant to keep every output
the same must leave all 26 entries as they are.  A change that alters output
on purpose re-records the file with

    PYTHONPATH=src python3 tests/test_cli_digests.py

and says in its description which commands changed and why.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fliess import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"


def commands() -> list[list[str]]:
    """`table lc|gc`, then `run`, `bounds` and `trajectory --resolution
    2|7|200|333` on every shipped config."""
    cmds = [["table", "lc"], ["table", "gc"]]
    for cfg in sorted((ROOT / "configs").glob("*.json")):
        path = f"configs/{cfg.name}"
        cmds += [["run", path], ["bounds", path]]
        cmds += [["trajectory", path, "--resolution", r] for r in ("2", "7", "200", "333")]
    return cmds


def digest(argv: list[str]) -> dict:
    """Run ``fliess argv`` in-process from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    argv = [str(ROOT / a) if a.startswith("configs/") else a for a in argv]
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


def test_cli_outputs_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    cmds = commands()
    assert sorted(recorded) == sorted(" ".join(c) for c in cmds)
    changed = [" ".join(c) for c in cmds if digest(c) != recorded[" ".join(c)]]
    assert not changed, f"output differs from tests/data/cli_digests.json: {changed}"


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({" ".join(c): digest(c) for c in commands()}, indent=1) + "\n",
                       encoding="utf-8")
