"""Every malformed input to the CLI ends in a documented exit code.

One or two tokens of a small graph text, minor text, run trace or
experiment spec are replaced by a hostile value, and every subcommand that
reads that input runs in process through ``cli.main``.  Each must return
0-4 (see the ``cli`` module docstring) and raise nothing but
``SystemExit``.  Inputs that ``verify`` rejects (1), ``analyze`` must
refuse (2) without writing its output.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sprkit.cli import main
from sprkit.generators import grid_graph
from sprkit.graph import format_graph_text

HUGE = "99999999999999999999"
PAST_FLOAT = "1" + "0" * 400  # an integer no double holds
TEXT_VALUES = ["0", "-1", HUGE, PAST_FLOAT, "1e308", "NaN", "Infinity", "-Infinity", "null",
               "x", "[]"]
JSON_VALUES = ["0", "-1", HUGE, PAST_FLOAT, "1e308", "NaN", "Infinity", "-Infinity", "null",
               '"x"', "[]", "[1, 2]", "{}"]
# a JSON number, string or literal
JSON_TOKEN = re.compile(r'-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|"(?:[^"\\]|\\.)*"|true|false|null')
# a case that runs this long has hung
CASE_SECONDS = 20


class Hung(BaseException):
    """Raised by the alarm; no handler in the package catches it."""


def _alarm(signum, frame):
    raise Hung(f"a case ran for {CASE_SECONDS} s")


@pytest.fixture(scope="module")
def inputs():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # a 3 x 3 grid, corner terminals 0, 2, 6 and 8
        (root / "g.txt").write_text(format_graph_text(grid_graph(3, 3)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--graph", str(root / "g.txt"), "--seed", "1",
                         "--out", str(root / "t.json")]) == 0
        spec = {"configs": [{"family": "grid", "width": 3, "height": 3,
                             "terminals": "random", "k": 2}],
                "seeds_per_config": 2, "base_seed": 0, "delta": 0.05, "max_rounds": None,
                "analyze": True}
        (root / "spec.json").write_text(json.dumps(spec))
        texts = {
            "graph": (root / "g.txt").read_text(),
            "minor": (root / "t.minor.txt").read_text(),
            "trace": (root / "t.json").read_text(),
            "spec": (root / "spec.json").read_text(),
        }
        yield root, texts


def _commands(kind: str, path: Path, root: Path) -> list[list[str]]:
    graph = str(path if kind == "graph" else root / "g.txt")
    trace = str(path if kind == "trace" else root / "t.json")
    minor = str(path if kind == "minor" else root / "t.minor.txt")
    out = str(root / "out" / "x.json")
    if kind == "spec":
        return [["experiment", "--spec", str(path), "--out", str(root / "out")]]
    if kind == "minor":
        return [["distort", "--graph", graph, "--minor", minor, "--out", out]]
    commands = [["verify", "--graph", graph, "--trace", trace],
                ["analyze", "--graph", graph, "--pair", "0", "8", "--traces", trace,
                 "--out", out]]
    if kind == "graph":
        commands += [["run", "--graph", graph, "--seed", "3", "--out", out],
                     ["distort", "--graph", graph, "--minor", minor, "--out", out],
                     ["oracle", "--graph", graph, "--out", out]]
    return commands


@st.composite
def mutations(draw, texts):
    kind = draw(st.sampled_from(sorted(texts)))
    text = texts[kind]
    if kind in ("graph", "minor"):
        spans = [m.span() for m in re.finditer(r"\S+", text)]
        values = TEXT_VALUES
    else:
        spans = [m.span() for m in JSON_TOKEN.finditer(text)]
        values = JSON_VALUES
    picks = draw(st.lists(st.sampled_from(spans), min_size=1, max_size=2, unique=True))
    for start, stop in sorted(picks, reverse=True):
        text = text[:start] + draw(st.sampled_from(values)) + text[stop:]
    return kind, text


def test_mutated_inputs_end_in_a_documented_exit_code(inputs):
    root, texts = inputs

    @settings(max_examples=600, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutations(texts))
    def case(mutation):
        kind, text = mutation
        path = root / f"mutated-{kind}"
        path.write_text(text)
        (root / "out").mkdir(exist_ok=True)
        out = root / "out" / "x.json"
        codes = {}
        for argv in _commands(kind, path, root):
            out.unlink(missing_ok=True)
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.alarm(CASE_SECONDS)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            assert code in (0, 1, 2, 3, 4), (argv[0], text)
            codes[argv[0]] = code
            if argv[0] == "analyze" and codes["verify"] == 1:
                assert code == 2, text
                assert not out.exists(), text

    case()
