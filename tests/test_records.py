"""Value semantics of the package's records: constructor defaults, ==, hash and
repr, including the fields that take no part in them.

The reprs and the integer hashes were taken from the records' earlier
dataclass form; those of `EncodingTrace` and `SrEncoded` from their
hand-written form before the shared `Record` base.  `ParseResult`,
`JointParseResult` and `BlockEmpirics` were re-pinned when they lost their
unread fields (`parents`, `phrases` and `joint_dist`): the hash of the
remaining field tuple, which is what the dataclass form hashed.
Hashes of records holding None or str vary between interpreter runs, so
those are checked against the hash of their fields.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import srlz
from srlz.cond_lz import joint_parse
from srlz.container import Bitstream, Record, Segment
from srlz.empirics import block_empirics
from srlz.fsm import LosslessnessReport, onestate_binary_encoder, run
from srlz.lz_core import Alphabet, Sequence, lz_encode, parse
from srlz.regions import HalfPlaneRegion, RatePoint, RegionUnion, SearchBudget
from srlz.sr_codec import DistortionSpec, PerLetterDistortion, hamming_spec, sr_encode

X = Sequence.from_text("abracadabra")
Y = Sequence.from_text("abbacadabba", Alphabet(["a", "b", "c", "d", "r"]))
BITS = Sequence.from_text("0110")


def copy(record):
    """A field-for-field copy through the constructor's keywords."""
    return type(record)(**{name: getattr(record, name) for name in type(record).__slots__})


# (record, repr, hash or None when it varies between runs)
HASHABLE = [
    (parse(X),
     "ParseResult(phrases=((0, 1), (1, 1), (2, 1), (3, 2), (5, 2), (7, 2), (9, 2)), c=7, "
     "is_last_incomplete=False, rho_lz=1.7864985867639298, "
     "code_len_bound=24554.01263880125)",
     5718920104505205460),
    (parse(Sequence(Alphabet(["0"]), [])),
     "ParseResult(phrases=(), c=0, is_last_incomplete=False, rho_lz=0.0, "
     "code_len_bound=0.0)",
     -1951278548029427079),
    (joint_parse(X, Y),
     "JointParseResult(c_joint=7, c_prime=7, c_l=(1, 1, 1, 1, 1, 1, 1), rho_cond=0.0, "
     "rho_joint=1.7864985867639298, is_last_incomplete=False)",
     4960700494453600548),
    (block_empirics(Sequence.from_text("0110"), Sequence.from_text("0011"), 2),
     "BlockEmpirics(block_len=2, count=2, h_joint=1.0, h_primary=1.0, h_cond=0.0)",
     -4227305474900857119),
    (RatePoint(0.5, 1.25), "RatePoint(r1=0.5, r2=1.25)", 7022765735290115226),
    (HalfPlaneRegion(0.25, 1.0, 0.5, True, False, True, meta={"n": 4},
                     exact_corner=RatePoint(0.25, 0.75)),
     "HalfPlaneRegion(a=0.25, b=1.0, c=0.5, clamped_a=True, clamped_b=False, "
     "clamped_c=True, meta={'n': 4})",
     8770964529759162947),
    (HalfPlaneRegion(0.1, 0.3),
     "HalfPlaneRegion(a=0.1, b=0.3, c=None, clamped_a=False, clamped_b=False, "
     "clamped_c=False, meta={})",
     None),
    (RegionUnion((HalfPlaneRegion(0.1, 0.3),), (RatePoint(0.1, 0.2),), meta={"k": 1}),
     "RegionUnion(members=(HalfPlaneRegion(a=0.1, b=0.3, c=None, clamped_a=False, "
     "clamped_b=False, clamped_c=False, meta={}),), frontier=(RatePoint(r1=0.1, r2=0.2),), "
     "meta={'k': 1})",
     None),
    (SearchBudget(),
     "SearchBudget(mode='auto', exhaustive_limit=16777216, evaluations=4096, restarts=3, "
     "seed=0, weight=0.5)",
     None),
    (SearchBudget("greedy", 16, 100, 1, 7, 0.25),
     "SearchBudget(mode='greedy', exhaustive_limit=16, evaluations=100, restarts=1, "
     "seed=7, weight=0.25)",
     None),
    (hamming_spec(0.25, 0.0),
     "DistortionSpec(d1=PerLetterDistortion(kind='hamming', table=None, reproduction=None), "
     "d2=PerLetterDistortion(kind='hamming', table=None, reproduction=None), "
     "level1=0.25, level2=0.0)",
     None),
    (LosslessnessReport(True, 8, True),
     "LosslessnessReport(passed=True, depth_certified=8, from_all_states=True, "
     "counterexample=None)",
     None),
    (run(onestate_binary_encoder(["0", "1"], [["0", "1"], ["0", "1"]]), BITS,
         Sequence.from_text("0011")),
     "EncodingTrace(outputs_u=('0', '1', '1', '0'), outputs_v=('0', '0', '1', '1'), "
     "states_s=(0, 0, 0, 0, 0), states_z=(0, 0, 0, 0, 0), bits_u=4, bits_v=4, rho1=1.0, "
     "rho12=2.0)",
     None),
]

# (record, repr, message of the TypeError that hash raises)
UNHASHABLE = [
    (lz_encode(Sequence.from_text("0110")),
     "Bitstream(mode=0, n=4, alphabet=('0', '1'), phrase_count=3, last_incomplete=False, "
     "payload=b'0', payload_bits=6, side_checksum=None)",
     "unhashable type: 'Bitstream'"),
    (Bitstream(2, 3, ("a", "b"), 2, True, b"\x01", 9, 77),
     "Bitstream(mode=2, n=3, alphabet=('a', 'b'), phrase_count=2, last_incomplete=True, "
     "payload=b'\\x01', payload_bits=9, side_checksum=77)",
     "unhashable type: 'Bitstream'"),
    (Segment(1, 10, b"ab"), "Segment(role=1, bit_length=10)", "unhashable type: 'Segment'"),
    (DistortionSpec(PerLetterDistortion("absdiff"),
                    PerLetterDistortion("table", {("0", "1"): 2.0}, Alphabet(["0", "1"])),
                    1.0, 0.5),
     "DistortionSpec(d1=PerLetterDistortion(kind='absdiff', table=None, reproduction=None), "
     "d2=PerLetterDistortion(kind='table', table={('0', '1'): 2.0}, "
     "reproduction=Alphabet(['0', '1'])), level1=1.0, level2=0.5)",
     "unhashable type: 'dict'"),
    (LosslessnessReport(False, 3, False, {"k": 2}),
     "LosslessnessReport(passed=False, depth_certified=3, from_all_states=False, "
     "counterexample={'k': 2})",
     "unhashable type: 'dict'"),
    (sr_encode(BITS, BITS, BITS),
     "SrEncoded(stage1=Bitstream(mode=0, n=4, alphabet=('0', '1'), phrase_count=3, "
     "last_incomplete=False, payload=b'0', payload_bits=6, side_checksum=None), "
     "stage2=Bitstream(mode=1, n=4, alphabet=('0', '1'), phrase_count=3, "
     "last_incomplete=False, payload=b'@', payload_bits=4, "
     "side_checksum=2604026403950270131), n=4, r1=1.5, r2=1.0)",
     "unhashable type: 'Bitstream'"),
]


@pytest.mark.parametrize("record, text, pinned", HASHABLE,
                         ids=[type(r).__name__ for r, _, _ in HASHABLE])
def test_hashable_record(record, text, pinned):
    assert repr(record) == text
    twin = copy(record)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    if pinned is not None:
        assert hash(record) == pinned
    assert record != object() and record != tuple(getattr(record, f) for f in record.__slots__)


@pytest.mark.parametrize("record, text, message", UNHASHABLE,
                         ids=[type(r).__name__ for r, _, _ in UNHASHABLE])
def test_unhashable_record(record, text, message):
    assert repr(record) == text
    assert copy(record) == record
    with pytest.raises(TypeError, match=message):
        hash(record)


def test_a_field_change_breaks_equality():
    base = RatePoint(0.5, 1.25)
    assert base != RatePoint(0.5, 1.5)
    assert Segment(1, 10, b"ab") != Segment(1, 10, b"ac")
    assert SearchBudget() != SearchBudget(seed=1)
    assert HalfPlaneRegion(0.1, 0.3) != HalfPlaneRegion(0.1, 0.3, clamped_a=True)


def test_region_meta_and_exact_corner_are_not_compared():
    plain = HalfPlaneRegion(0.25, 1.0)
    other = HalfPlaneRegion(0.25, 1.0, meta={"n": 9}, exact_corner=RatePoint(0.3, 0.7))
    assert plain == other and hash(plain) == hash(other)
    assert other.corner() == RatePoint(0.3, 0.7) != plain.corner()
    assert "exact_corner" not in repr(other)
    u1 = RegionUnion((plain,), (RatePoint(0.25, 0.75),), meta={"a": 1})
    u2 = RegionUnion((other,), (RatePoint(0.25, 0.75),))
    assert u1 == u2 and hash(u1) == hash(u2)
    assert u2.meta == {}


def test_defaults():
    region = HalfPlaneRegion(1.0, 2.0)
    assert (region.c, region.clamped_a, region.clamped_b, region.clamped_c,
            region.meta, region.exact_corner) == (None, False, False, False, {}, None)
    assert HalfPlaneRegion(1.0, 2.0).meta is not region.meta
    stream = Bitstream(0, 0, ("0",), 0, False, b"")
    assert (stream.payload_bits, stream.side_checksum) == (None, None)
    assert PerLetterDistortion() == PerLetterDistortion("hamming", None, None)
    assert LosslessnessReport(True, 1, True).counterexample is None


def test_fsm_encoder_compares_by_identity():
    first = onestate_binary_encoder(["0", "1"], [["0", "1"], ["0", "1"]])
    second = onestate_binary_encoder(["0", "1"], [["0", "1"], ["0", "1"]])
    twin = copy(first)
    assert first == first and twin != first and second != first
    assert len({first, twin, second}) == 3
    assert repr(first) == (
        "FsmEncoder(primary_alphabet=Alphabet(['0', '1']), "
        "secondary_alphabet=Alphabet(['0', '1']), states_s=('s0',), states_z=('z0',), "
        "f1={(0, 0): '0', (0, 1): '1'}, g1={(0, 0): 0, (0, 1): 0}, "
        "f2={(0, 0, 0): '0', (0, 0, 1): '1', (0, 1, 0): '0', (0, 1, 1): '1'}, "
        "g2={(0, 0, 0): 0, (0, 0, 1): 0, (0, 1, 0): 0, (0, 1, 1): 0}, s1=0, z1=0, q=1)")


def test_fsm_encoder_validates_on_construction():
    enc = onestate_binary_encoder(["0", "1"], [["0", "1"], ["0", "1"]])
    fields = {name: getattr(enc, name) for name in type(enc).__slots__}
    with pytest.raises(ValueError, match="initial state out of range"):
        type(enc)(**dict(fields, s1=1))
    with pytest.raises(ValueError, match="state sets must be nonempty"):
        type(enc)(**dict(fields, states_s=()))
    with pytest.raises(ValueError, match="f1 outputs must be binary strings"):
        type(enc)(**dict(fields, f1={k: "2" for k in enc.f1}))
    assert type(enc)(**dict(fields, q=0)).q == 1


RECORDS = Record.__subclasses__()


def test_every_record_class_is_covered():
    # PerLetterDistortion is pinned inside the DistortionSpec rows
    names = {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) == len(names) == 15
    assert names == {type(r).__name__ for r, _, _ in HASHABLE + UNHASHABLE} | {
        "PerLetterDistortion", "FsmEncoder"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_slots_match_the_constructor(cls):
    # the generic ==, hash and repr and copy() above read the fields from __slots__
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    assert list(cls.__slots__) == params


# str(inspect.signature(cls)) without annotations, captured from the
# hand-written constructors: names, order and defaults are the record API
SIGNATURES = {
    "Bitstream": "(mode, n, alphabet, phrase_count, last_incomplete, payload, "
                 "payload_bits=None, side_checksum=None)",
    "BlockEmpirics": "(block_len, count, h_joint, h_primary, h_cond)",
    "DistortionSpec": "(d1, d2, level1, level2)",
    "EncodingTrace": "(outputs_u, outputs_v, states_s, states_z, bits_u, bits_v, rho1, rho12)",
    "FsmEncoder": "(primary_alphabet, secondary_alphabet, states_s, states_z, f1, g1, f2, g2, "
                  "s1=0, z1=0, q=0)",
    "HalfPlaneRegion": "(a, b, c=None, clamped_a=False, clamped_b=False, clamped_c=False, "
                       "meta=None, exact_corner=None)",
    "JointParseResult": "(c_joint, c_prime, c_l, rho_cond, rho_joint, is_last_incomplete)",
    "LosslessnessReport": "(passed, depth_certified, from_all_states, counterexample=None)",
    "ParseResult": "(phrases, c, is_last_incomplete, rho_lz, code_len_bound)",
    "PerLetterDistortion": "(kind='hamming', table=None, reproduction=None)",
    "RatePoint": "(r1, r2)",
    "RegionUnion": "(members, frontier, meta=None)",
    "SearchBudget": "(mode='auto', exhaustive_limit=16777216, evaluations=4096, restarts=3, "
                    "seed=0, weight=0.5)",
    "Segment": "(role, bit_length, data)",
    "SrEncoded": "(stage1, stage2, n, r1, r2)",
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_constructor_signature_is_pinned(cls):
    sig = inspect.signature(cls)
    bare = sig.replace(parameters=[p.replace(annotation=p.empty)
                                   for p in sig.parameters.values()],
                       return_annotation=sig.empty)
    assert str(bare) == SIGNATURES[cls.__name__]


def test_generated_constructor_binds_positionally_and_by_keyword():
    assert Bitstream(0, 3, ("a",), 2, True, b"p", 7) == Bitstream(
        payload=b"p", payload_bits=7, last_incomplete=True, phrase_count=2,
        alphabet=("a",), n=3, mode=0)
    assert RatePoint.__init__.__qualname__ == "RatePoint.__init__"
    with pytest.raises(TypeError):
        RatePoint(1.0)
    with pytest.raises(TypeError):
        RatePoint(1.0, 2.0, r3=3.0)


def _copies_its_arguments(init: ast.FunctionDef) -> bool:
    """True when every statement of init is `self.<name> = <parameter>`."""
    params = {a.arg for a in init.args.args + init.args.kwonlyargs}
    self_name = init.args.args[0].arg if init.args.args else None
    return all(isinstance(st, ast.Assign) and len(st.targets) == 1
               and isinstance(st.targets[0], ast.Attribute)
               and isinstance(st.targets[0].value, ast.Name)
               and st.targets[0].value.id == self_name
               and isinstance(st.value, ast.Name) and st.value.id in params
               for st in init.body)


@pytest.mark.parametrize("path", sorted(Path(srlz.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_record_writes_a_copy_only_constructor(path):
    # Record builds __init__ from __slots__ and _defaults; a hand-written one
    # must do more than copy its arguments
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"{path.name}:{init.lineno} {node.name}.__init__"
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             and any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases)
             for init in node.body
             if isinstance(init, ast.FunctionDef) and init.name == "__init__"
             and _copies_its_arguments(init)]
    assert not found
