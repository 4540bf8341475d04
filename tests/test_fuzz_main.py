"""The CLI's promise on every input: exit 0/2/3/4, and one error line or none.

``main`` is fuzzed with well-formed argv over complex and game files on up
to 8 vertices.  Most documents are valid; the rest carry a flaw: a wrong
type, an id out of range, a missing, duplicate or garbage key, a bad
rational, or text that is not JSON at all.  On exit 2 or 3 stderr is
exactly one ``error[...]`` line and stdout is empty; on exit 0 or 4 stderr
is empty.  A malformed argv over valid files exits 2 with one
``error[ParseError]`` line and nothing on stdout.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplicial_games.cli import main

COMMANDS = ["info", "shapley", "symmetry", "psystem", "decompose", "efficiency", "verify"]
MAX_N = 8

junk = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=True), st.text(max_size=4),
    st.integers(-3, 12), st.just(10**30), st.lists(st.integers(-1, 9), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
bad_rationals = ["1/0", "1.5", "abc", "", "-", "3/", "/2", "1e3", "0x10", "½", "9" * 5000]


def corrupt(draw, text: str) -> str:
    """The text, or now and then a cut of it with a few characters more."""
    if draw(st.integers(0, 19)) == 7:  # 0 is drawn often, and shrinks to no cut
        return text[: draw(st.integers(0, len(text)))] + draw(st.text(max_size=3))
    return text


@st.composite
def complex_docs(draw):
    """(document, facets): a complex document with at most one flaw."""
    n = draw(st.integers(1, MAX_N))
    facet = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
    facets = draw(st.lists(facet, min_size=1, max_size=5))
    doc = {"n": n, "facets": facets}
    flaw = draw(st.integers(0, 15))
    if flaw == 1:
        doc["n"] = draw(st.one_of(st.integers(-2, 70), junk))
    elif flaw == 2:  # ids out of range or of the wrong type
        bad = st.lists(st.one_of(st.integers(-1, 12), junk), max_size=3)
        doc["facets"] = facets + [draw(bad)]
    elif flaw == 3:
        doc["facets"] = draw(junk)
    elif flaw == 4:
        del doc[draw(st.sampled_from(["n", "facets"]))]
    elif flaw == 5:  # a garbage key, or a key replaced
        doc[draw(st.sampled_from(["n", "facets", "x", ""]))] = draw(junk)
    elif flaw == 6:
        doc = draw(junk)
    return doc, facets


@st.composite
def game_docs(draw, facets):
    """A game document on faces of the facets, with at most one flaw."""
    face = st.sampled_from(facets).flatmap(
        lambda f: st.lists(st.sampled_from(f), min_size=1, max_size=len(f), unique=True)
    )
    keys = {",".join(map(str, sorted(ids))) for ids in draw(st.lists(face, max_size=6))}
    worth = st.fractions(max_denominator=30).map(str)
    values = {key: draw(worth) for key in keys}
    flaw = draw(st.integers(0, 14))
    if flaw == 1:  # outside the complex, or not a vertex id
        values[draw(st.sampled_from(["0", "9", "1,99", "2,2", str(10**9)]))] = "1"
    elif flaw == 2:
        values[draw(st.sampled_from(["", "a", "1,,2", " 1", "1,2,", "१"]))] = "1"
    elif flaw == 3 and keys:  # one coalition spelled twice
        key = sorted(keys)[0]
        values[",".join(reversed(key.split(","))) if "," in key else "0" + key] = "1"
    elif flaw == 4 and keys:
        values[sorted(keys)[0]] = draw(st.sampled_from(bad_rationals))
    elif flaw == 5 and keys:
        values[sorted(keys)[0]] = draw(junk)
    elif flaw == 6:
        return {"values": draw(junk)}
    elif flaw == 7:
        return draw(junk)
    return {"values": values}


@st.composite
def cases(draw):
    """(command, complex text, game text or None, options)."""
    command = draw(st.sampled_from(COMMANDS))
    doc, facets = draw(complex_docs())
    game = draw(game_docs(facets))
    with_game = command == "shapley" or (
        command in ("efficiency", "verify") and draw(st.booleans())
    )
    options = [f"--format={draw(st.sampled_from(['table', 'json']))}"]
    options.append(f"--seed={draw(st.one_of(st.integers(0, 9), st.integers(-5, 2**70)))}")
    if command == "decompose":
        player = st.one_of(st.integers(1, MAX_N), st.integers(-2, 12), st.just(10**9))
        options.append(f"--player={draw(player)}")
    complex_text = corrupt(draw, json.dumps(doc))
    game_text = corrupt(draw, json.dumps(game)) if with_game else None
    return command, complex_text, game_text, options


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, deadline=None)
@given(cases())
@example(("info", '{"n": 3, "facets": [[1, 2]]}', None, ["--seed=0"]))
@example(("shapley", '{"n": 2, "facets": [[1, 2]]}', '{"values": {"1,2": "1/0"}}', []))
@example(("decompose", '{"n": 2, "facets": [[1, 2]]}', None, ["--player=3"]))
def test_main_keeps_its_exit_and_error_promise(workdir, case):
    command, complex_text, game_text, options = case
    (workdir / "complex.json").write_text(complex_text, encoding="utf-8")
    argv = [command, "--complex", str(workdir / "complex.json"), *options]
    if game_text is not None:
        (workdir / "game.json").write_text(game_text, encoding="utf-8")
        argv += ["--game", str(workdir / "game.json")]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    if code in (2, 3):
        assert out.getvalue() == ""
        assert re.fullmatch(r"error\[\w+\]: [^\n]*\n", err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""
        if "--format=json" in options:  # one line in json.dumps's default layout
            assert out.getvalue() == json.dumps(json.loads(out.getvalue())) + "\n"


FLAGS = ["--complex", "--game", "--player", "--format", "--seed"]
# no dash and no newline, so never a flag, never --help and one line in a message
word = st.text("abcdefghijklmnopqrstuvwxyz0123456789._/:", max_size=8)
not_int = word.filter(lambda w: not w.replace("_", "").isdigit())  # int() takes "1_0"


@st.composite
def malformed_argv(draw):
    """An argv with one flaw in its words; "C" and "G" stand for valid files."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--complex", "C"]
    if command == "shapley":
        argv += ["--game", "G"]
    if command == "decompose":
        argv += ["--player", "1"]
    flaw = draw(st.integers(0, 8))
    if flaw == 0:
        return []
    if flaw == 1:  # an unknown command
        return [draw(word.filter(lambda w: not any(c.startswith(w) for c in COMMANDS)))]
    if flaw == 2:  # no --complex
        return [command] + argv[3:]
    if flaw == 3:  # a flag with no value
        return argv + [draw(st.sampled_from(FLAGS))]
    if flaw == 4:  # an unknown flag or word
        return argv + [draw(st.sampled_from(["--bogus", "--complexity", "-x", "extra", "a\nb"]))]
    if flaw == 5:
        return argv + ["--format", draw(word.filter(lambda w: w not in ("table", "json")))]
    if flaw == 6:
        return argv + ["--seed", draw(not_int)]
    if flaw == 7:
        return ["decompose", "--complex", "C", "--player", draw(not_int)]
    return ["shapley", "--complex", "C"]  # no --game


@settings(max_examples=100, deadline=None)
@given(malformed_argv())
@example([])
@example(["frobnicate"])
@example(["info"])
@example(["info", "--complex"])
@example(["info", "--complex", "C", "--bogus"])
@example(["info", "--complex", "C", "--bo\ngus"])
@example(["info", "--complex", "C", "--format", "xml"])
@example(["decompose", "--complex", "C", "--player", "x"])
@example(["shapley", "--complex", "C"])
@example(["verify", "--complex", "C", "--seed", "1.5"])
def test_malformed_argv_is_one_parse_error(workdir, argv):
    (workdir / "argv_complex.json").write_text('{"n": 2, "facets": [[1, 2]]}', encoding="utf-8")
    (workdir / "argv_game.json").write_text('{"values": {"1,2": "1"}}', encoding="utf-8")
    files = {"C": str(workdir / "argv_complex.json"), "G": str(workdir / "argv_game.json")}
    argv = [files.get(w, w) for w in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 2, argv
    assert out.getvalue() == ""
    assert re.fullmatch(r"error\[ParseError\]: [^\n]*\n", err.getvalue()), err.getvalue()
