"""The nine public records: built by position or keyword, immutable, equal and
hashed by value, with a `Name(field=value, ...)` repr; the three validated
ones reject bad values at construction."""

import pickle

import pytest

from wordrep import (
    Certificate,
    ChordDiagram,
    CombinedRepNumbers,
    CombineMode,
    LinearOrderFamily,
    RepNumberCertificate,
    RepNumberInput,
    ShortcutWitness,
    UniformityProfile,
    Word,
)

# record: (positional args, the same as keywords, repr)
RECORDS = {
    UniformityProfile: (
        ((("1", 2), ("2", 2)), 2),
        {"counts": (("1", 2), ("2", 2)), "k": 2},
        "UniformityProfile(counts=(('1', 2), ('2', 2)), k=2)",
    ),
    ShortcutWitness: (
        (("a", "b", "c", "d"), ("a", "c")),
        {"path": ("a", "b", "c", "d"), "missing_pair": ("a", "c")},
        "ShortcutWitness(path=('a', 'b', 'c', 'd'), missing_pair=('a', 'c'))",
    ),
    ChordDiagram: (
        ((("1", (0, 2)), ("2", (1, 3))),),
        {"chords": (("1", (0, 2)), ("2", (1, 3)))},
        "ChordDiagram(chords=(('1', (0, 2)), ('2', (1, 3))))",
    ),
    CombinedRepNumbers: (
        (2, 3),
        {"connect_edge": 2, "glue_vertex": 3},
        "CombinedRepNumbers(connect_edge=2, glue_vertex=3)",
    ),
    Certificate: (
        ("q", "witness-found", Word("1 2".split()), 4, 1.5),
        {
            "query": "q", "status": "witness-found", "witness": Word("1 2".split()),
            "nodes_explored": 4, "elapsed_ms": 1.5,
        },
        "Certificate(query='q', status='witness-found', witness=Word('1 2'), "
        "nodes_explored=4, elapsed_ms=1.5)",
    ),
    RepNumberCertificate: (
        ("q", "aborted", None, None, (), 0, 0.0),
        {
            "query": "q", "status": "aborted", "rep_number": None, "witness": None,
            "per_k": (), "nodes_explored": 0, "elapsed_ms": 0.0,
        },
        "RepNumberCertificate(query='q', status='aborted', rep_number=None, "
        "witness=None, per_k=(), nodes_explored=0, elapsed_ms=0.0, orientation=None)",
    ),
    CombineMode: (
        ("glue-vertex", "z"),
        {"kind": "glue-vertex", "merged_label": "z"},
        "CombineMode(kind='glue-vertex', merged_label='z')",
    ),
    RepNumberInput: (
        (2, 3, 4, 5),
        {"k1": 2, "k2": 3, "n1": 4, "n2": 5},
        "RepNumberInput(k1=2, k2=3, n1=4, n2=5)",
    ),
    LinearOrderFamily: (
        ((("1", "2"), ("2", "1")),),
        {"orders": (("1", "2"), ("2", "1"))},
        "LinearOrderFamily(orders=(('1', '2'), ('2', '1')))",
    ),
}

CASES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


@CASES
def test_position_and_keyword_build_the_same_record(cls):
    args, kwargs, _ = RECORDS[cls]
    a, b = cls(*args), cls(**kwargs)
    assert a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


@CASES
def test_repr(cls):
    args, _, text = RECORDS[cls]
    assert repr(cls(*args)) == text


@CASES
def test_immutable(cls):
    args, kwargs, _ = RECORDS[cls]
    rec = cls(*args)
    with pytest.raises(AttributeError):
        setattr(rec, next(iter(kwargs)), None)
    with pytest.raises(AttributeError):
        rec.extra = 1


@CASES
def test_different_values_differ(cls):
    args, _, _ = RECORDS[cls]
    other = list(args)
    other[0] = {
        UniformityProfile: (("1", 3), ("2", 3)),
        ShortcutWitness: ("d", "c", "b", "a"),
        ChordDiagram: (("1", (0, 1)), ("2", (2, 3))),
        CombinedRepNumbers: 3,
        Certificate: "r",
        RepNumberCertificate: "r",
        CombineMode: "connect-edge",
        RepNumberInput: 1,
        LinearOrderFamily: (("1", "2"),),
    }[cls]
    if cls is CombineMode:
        other[1] = None
    assert cls(*other) != cls(*args)


def test_defaults():
    assert CombineMode("connect-edge").merged_label is None
    cert = RepNumberCertificate("q", "aborted", None, None, (), 0, 0.0)
    assert cert.orientation is None
    with pytest.raises(TypeError):
        RepNumberInput(1, 1, 1, 1, mode=CombineMode("connect-edge"))


def test_methods_and_properties():
    prof = UniformityProfile((("1", 2), ("2", 2)), 2)
    assert prof.is_uniform and prof.as_dict() == {"1": 2, "2": 2}
    assert not UniformityProfile((("1", 1), ("2", 2)), None).is_uniform
    assert ChordDiagram((("1", (0, 2)), ("2", (1, 3)))).point_count == 4
    fam = LinearOrderFamily((("1", "2"), ("2", "1")))
    assert fam.word() == Word("1 2 2 1".split())


@pytest.mark.parametrize("orders", [
    (),
    (("1", "2"), ("1", "3")),
    (("1", "2"), ("1",)),
    (("1", "1"),),
])
def test_linear_order_family_rejects(orders):
    with pytest.raises(ValueError):
        LinearOrderFamily(orders)
    with pytest.raises(ValueError):
        LinearOrderFamily(orders=orders)


@pytest.mark.parametrize("kind,label,message", [
    ("bogus", None, "unknown combine mode"),
    ("glue-vertex", None, "needs a merged_label"),
    ("connect-edge", "z", "takes no merged_label"),
])
def test_combine_mode_rejects(kind, label, message):
    with pytest.raises(ValueError, match=message):
        CombineMode(kind, label)
    with pytest.raises(ValueError, match=message):
        CombineMode(kind=kind, merged_label=label)


@pytest.mark.parametrize("values,message", [
    ((0, 1, 2, 2), "k1 must be at least 1, got 0"),
    ((1, 0, 2, 2), "k2 must be at least 1, got 0"),
    ((1, 1, 0, 2), "n1 must be at least 1, got 0"),
    ((1, 1, 2, -1), "n2 must be at least 1, got -1"),
    ((2, 1, 1, 2), "single-vertex graph"),
    ((1, 2, 2, 1), "single-vertex graph"),
    ((True, 1, 2, 2), "k1 must be an integer, got True"),
    ((1, 1, 2.0, 2), "n1 must be an integer, got 2.0"),
])
def test_rep_number_input_rejects(values, message):
    with pytest.raises(ValueError, match=message):
        RepNumberInput(*values)
    with pytest.raises(ValueError, match=message):
        RepNumberInput(**dict(zip(("k1", "k2", "n1", "n2"), values)))


def test_linear_order_family_still_importable_from_search():
    from wordrep.search import LinearOrderFamily as FromSearch

    assert FromSearch is LinearOrderFamily
