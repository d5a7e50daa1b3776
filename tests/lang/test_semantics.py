"""Unit tests for command semantics and validation."""

import pytest

from repro.lang import (
    ACECmdLine,
    ArgSpec,
    ArgType,
    CommandSemantics,
    SemanticError,
    infer_type,
    parse_command,
)
from repro.lang.semantics import reply_semantics


def ptz_semantics():
    sem = CommandSemantics()
    sem.define(
        "setPosition",
        ArgSpec("x", ArgType.FLOAT),
        ArgSpec("y", ArgType.FLOAT),
        ArgSpec("z", ArgType.FLOAT, required=False, default=0.0),
        description="aim the camera at a 3D point",
    )
    sem.define("power", ArgSpec("state", ArgType.WORD))
    return sem


def test_infer_type():
    assert infer_type(3) is ArgType.INTEGER
    assert infer_type(3.0) is ArgType.FLOAT
    assert infer_type("word_1") is ArgType.WORD
    assert infer_type("two words") is ArgType.STRING
    assert infer_type((1, 2)) is ArgType.VECTOR
    assert infer_type(((1,), (2,))) is ArgType.ARRAY


def test_validate_accepts_good_command():
    sem = ptz_semantics()
    cmd = ACECmdLine("setPosition", x=1.0, y=2.0)
    validated = sem.validate(cmd)
    assert validated["z"] == 0.0  # default filled


def test_validate_rejects_unknown_command():
    sem = ptz_semantics()
    with pytest.raises(SemanticError, match="unknown command"):
        sem.validate(ACECmdLine("selfDestruct"))


def test_validate_rejects_missing_required():
    sem = ptz_semantics()
    with pytest.raises(SemanticError, match="missing required"):
        sem.validate(ACECmdLine("setPosition", x=1.0))


def test_validate_rejects_wrong_type():
    sem = ptz_semantics()
    with pytest.raises(SemanticError, match="expects float"):
        sem.validate(ACECmdLine("setPosition", x="left", y=2.0))


def test_validate_int_widens_to_float():
    sem = ptz_semantics()
    sem.validate(ACECmdLine("setPosition", x=1, y=2))


def test_validate_rejects_unknown_args_in_strict_mode():
    sem = ptz_semantics()
    with pytest.raises(SemanticError, match="unknown argument"):
        sem.validate(ACECmdLine("power", state="on", extra=1))


def test_non_strict_passes_unknowns():
    sem = CommandSemantics(strict=False)
    sem.define("known")
    sem.validate(ACECmdLine("unknownCmd", anything="goes"))


def test_inheritance_extends_vocabulary():
    base = ptz_semantics()
    child = base.extend()
    child.define("zoom", ArgSpec("factor", ArgType.NUMBER))
    # Child knows both its own and the parent's commands.
    child.validate(ACECmdLine("zoom", factor=2))
    child.validate(ACECmdLine("setPosition", x=0.0, y=0.0))
    # Parent does not learn the child's commands (Fig. 6 directionality).
    with pytest.raises(SemanticError):
        base.validate(ACECmdLine("zoom", factor=2))
    assert "setPosition" in child
    assert "zoom" in child.commands()


def test_redefinition_rejected():
    sem = ptz_semantics()
    with pytest.raises(SemanticError, match="already defined"):
        sem.define("power")


def test_number_type_accepts_both():
    sem = CommandSemantics()
    sem.define("speed", ArgSpec("v", ArgType.NUMBER))
    sem.validate(ACECmdLine("speed", v=3))
    sem.validate(ACECmdLine("speed", v=3.5))
    with pytest.raises(SemanticError):
        sem.validate(ACECmdLine("speed", v="fast"))


def test_string_type_accepts_words():
    sem = CommandSemantics()
    sem.define("label", ArgSpec("text", ArgType.STRING))
    sem.validate(ACECmdLine("label", text="word"))
    sem.validate(ACECmdLine("label", text="two words"))


def test_parser_bound_to_semantics():
    """What a receiving daemon does: parse, then check against its
    semantics (Fig. 5's CmdParser)."""
    semantics = ptz_semantics()
    cmd = semantics.validate(parse_command("setPosition x=1.0 y=2.0;"))
    assert cmd["z"] == 0.0
    with pytest.raises(SemanticError):
        semantics.validate(parse_command("badCmd;"))


def test_reply_semantics_standard_vocabulary():
    sem = reply_semantics()
    sem.validate(ACECmdLine("cmdOk", cmd="setPosition"))
    sem.validate(ACECmdLine("cmdFailed", cmd="setPosition", reason="denied"))


# -- checks that decide by exact type ----------------------------------------

#: what ``ArgSpec.check`` accepted when every value went through
#: ``infer_type``; the exact-type shortcut must agree with it everywhere
_INFERRED_OK = {
    ArgType.INTEGER: {ArgType.INTEGER},
    ArgType.FLOAT: {ArgType.FLOAT, ArgType.INTEGER},
    ArgType.NUMBER: {ArgType.INTEGER, ArgType.FLOAT},
    ArgType.WORD: {ArgType.WORD},
    ArgType.STRING: {ArgType.WORD, ArgType.STRING},
    ArgType.VECTOR: {ArgType.VECTOR},
    ArgType.ARRAY: {ArgType.ARRAY},
}

VALUES = {
    "int": 7,
    "float": 2.5,
    "word": "on",
    "numeric-looking": "42",
    "string": "two words",
    "vector": (1, 2),
    "array": ((1.0,), (2.0,)),
    "bool": True,
}


def _oracle(expected, value):
    """The error text the infer_type-based check raised, or None."""
    if expected is ArgType.ANY:
        return None
    try:
        actual = infer_type(value)
    except SemanticError as exc:
        return str(exc)
    if actual in _INFERRED_OK[expected]:
        return None
    return (
        f"probe: argument 'v' expects {expected.value}, "
        f"got {actual.value} ({value!r})"
    )


def _outcome(run):
    try:
        run()
    except SemanticError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("expected", list(ArgType), ids=lambda t: t.value)
@pytest.mark.parametrize("kind", list(VALUES))
def test_check_matches_the_inferred_type_oracle(expected, kind):
    value = VALUES[kind]
    want = _oracle(expected, value)
    assert _outcome(lambda: ArgSpec("v", expected).check("probe", value)) == want
    if kind != "bool":  # a command cannot carry a bool
        sem = CommandSemantics()
        sem.define("probe", ArgSpec("v", expected))
        got = _outcome(lambda: sem.validate(ACECmdLine("probe", v=value)))
        assert got == want


def test_strict_command_whose_only_extras_are_reserved():
    sem = ptz_semantics()
    cmd = ACECmdLine("power", state="on", o_tc="t1_s2", o_cid="c1", o_cseq=4)
    assert sem.validate(cmd) is cmd


def test_strict_command_with_an_unknown_argument_names_only_it():
    sem = ptz_semantics()
    with pytest.raises(SemanticError) as info:
        sem.validate(ACECmdLine("power", state="on", o_tc="t1_s2", zz=1, extra=2))
    assert str(info.value) == "power: unknown argument(s) extra, zz"
    # a reserved name in a spec slot counts as absent, never as a match
    sem.define("echo", ArgSpec("o_cid", ArgType.STRING, required=False), ArgSpec("x"))
    assert sem.validate(ACECmdLine("echo", x=1, o_cid="c2"))["o_cid"] == "c2"
    with pytest.raises(SemanticError, match=r"unknown argument\(s\) y$"):
        sem.validate(ACECmdLine("echo", x=1, o_cid="c2", y=3))


# -- defaults are checked where they are defined ----------------------------------

def test_a_bool_default_fails_its_definition():
    """Once, at definition, not as a ``cmdFailed cmd=parse`` on every
    request that omits the argument."""
    with pytest.raises(SemanticError, match="'verbose': bad default"):
        ArgSpec("verbose", ArgType.ANY, required=False, default=True)


def test_a_default_of_the_wrong_type_fails_its_definition():
    """A float default on an INTEGER slot used to be filled in silently as
    the wrong type."""
    with pytest.raises(SemanticError, match="'offset' expects integer, got float"):
        ArgSpec("offset", ArgType.INTEGER, required=False, default=1.5)
    # ints widen to FLOAT, as a request's own value does
    assert ArgSpec("z", ArgType.FLOAT, required=False, default=0).default == 0


def test_a_list_default_is_a_tuple_once_and_fills_as_it_is():
    spec = ArgSpec("at", ArgType.VECTOR, required=False, default=[1, 2])
    assert spec.default == (1, 2) and type(spec.default) is tuple
    sem = CommandSemantics()
    sem.define("aim", ArgSpec("who", ArgType.WORD), spec)
    filled = sem.validate(ACECmdLine("aim", who="cam1"))
    assert filled["at"] is spec.default
    assert filled == ACECmdLine("aim", who="cam1", at=(1, 2))
    assert filled.to_string() == "aim who=cam1 at={1,2};"


def test_a_define_up_the_chain_reaches_every_descendant():
    base = CommandSemantics()
    child = base.extend()
    grandchild = child.extend()
    grandchild.define("pan", ArgSpec("deg", ArgType.NUMBER))
    assert grandchild.lookup("tilt") is None
    spec = base.define("tilt", ArgSpec("deg", ArgType.NUMBER))
    assert child.lookup("tilt") is spec and grandchild.lookup("tilt") is spec
    # a descendant's own definition shadows its ancestor's
    own = child.define("tilt", ArgSpec("deg", ArgType.INTEGER))
    assert grandchild.lookup("tilt") is own and base.lookup("tilt") is spec
    assert grandchild.lookup("pan") is not None and child.lookup("pan") is None
