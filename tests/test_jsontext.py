import json

from hypothesis import example, given
from hypothesis import strategies as st

from twistor_spectra._jsontext import IndentedEncoder


class Wrapped:
    """An object the encoder reaches through ``default``."""

    def __init__(self, value):
        self.value = value

    def to_json(self):
        return self.value


def reference(obj, **kw):
    return json.dumps(obj, default=lambda o: o.to_json(), **kw)


TEXT = st.text(st.one_of(st.sampled_from(',:{}[]"\\ '), st.characters(max_codepoint=0x1f),
                         st.characters()), max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
           | st.floats() | TEXT)
TREES = st.recursive(
    SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(TEXT, kids, max_size=4) | kids.map(Wrapped)),
    max_leaves=25)
NESTED = {"": [[], {}, [[]], [{}], {"a": [[[], []]]}], "b": {"c": {}, "d": [[1, [2]], []]}}


class TestEquivalence:
    @given(TREES)
    @example(NESTED)
    @example(Wrapped([Wrapped({}), Wrapped(1), Wrapped(Wrapped({"k": [-1, True]}))]))
    def test_matches_stdlib_indent_2_sorted(self, obj):
        expected = reference(obj, indent=2, sort_keys=True)
        assert json.dumps(obj, indent=2, sort_keys=True, cls=IndentedEncoder) == expected

    @given(TREES, st.sampled_from([0, 4, "\t"]), st.booleans(), st.booleans())
    @example(NESTED, 0, False, False)
    def test_matches_stdlib_other_settings(self, obj, indent, sort_keys, ensure_ascii):
        kw = dict(indent=indent, sort_keys=sort_keys, ensure_ascii=ensure_ascii)
        assert json.dumps(obj, cls=IndentedEncoder, **kw) == reference(obj, **kw)


class RecordingFile:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def edge(i):
    label = {"xi": 1, "f": f"{i}/2", "j": "3/2", "q": 0, "eps": -1}
    return {"case": "mult2", "from": label, "to": dict(label, f=f"{i + 2}/2"),
            "direction": [1, -1], "verdict": "pass", "quantities": {"rho": f"-{i}/7"}}


class TestStreaming:
    def test_large_payload_is_written_in_bounded_chunks(self):
        fh = RecordingFile()
        writes_at = []

        class Suite:
            def to_json(self):
                writes_at.append(len(fh.writes))
                return {"edges": [edge(i) for i in range(4000)], "ok": True}

        payload = {"suites": {"a": Suite(), "b": Suite()}}
        json.dump(payload, fh, indent=2, sort_keys=True, cls=IndentedEncoder)
        # the second suite is converted only after the first one was written
        assert writes_at[0] == 0 and writes_at[1] > 0
        text = "".join(fh.writes)
        assert len(text) > 2_000_000
        assert text == reference(payload, indent=2, sort_keys=True)
        assert len(fh.writes) > 1
        assert max(map(len, fh.writes)) <= 1 << 20
