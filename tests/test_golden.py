"""Golden-output corpus: the CLI must print the bytes saved in tests/golden/.

Each ``tests/golden/<name>.json`` instance has its ``bound`` stdout and
stderr saved next to it, and, for n <= 8, the ``verify --trials 4 --seed 3``
stdout.  The ``figure1`` panels live in ``tests/golden/figure1/`` and are
compared in ``test_cli.py``, which already generates them once.

Regenerate only for an intended output change, and give the reason in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tailbound.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
VERIFY_ARGS = ("--trials", "4", "--seed", "3")
INSTANCES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def golden_outputs(name: str) -> dict[str, str]:
    """File suffix -> text the CLI prints for one corpus instance."""
    path = GOLDEN / f"{name}.json"
    code, out, err = _run("bound", str(path))
    assert code == 0, err
    outputs = {"bound.stdout": out, "bound.stderr": err}
    if json.loads(path.read_text(encoding="utf-8"))["n"] <= 8:
        code, out, err = _run("verify", str(path), *VERIFY_ARGS)
        assert code == 0, err
        outputs["verify.stdout"] = out
    return outputs


@pytest.mark.parametrize("name", INSTANCES)
def test_golden_output(name):
    for suffix, text in golden_outputs(name).items():
        assert text.encode("utf-8") == (GOLDEN / f"{name}.{suffix}").read_bytes(), suffix


def regenerate() -> None:
    for name in INSTANCES:
        for suffix, text in golden_outputs(name).items():
            (GOLDEN / f"{name}.{suffix}").write_bytes(text.encode("utf-8"))
    assert main(["figure1", "--out", str(GOLDEN / "figure1")]) == 0


if __name__ == "__main__":
    regenerate()
