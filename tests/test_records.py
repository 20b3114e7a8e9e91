"""The library's record types: what each one promises to callers.

Plain field bags are ``NamedTuple``s; types that validate, normalise, write
themselves to JSON or are mutable are ``__slots__`` classes, which take their
equality, repr, hashing, pickling and immutability from one base
(``exact.Record``, ``exact.Frozen``).  Either way a record keeps its field
order, keyword construction, defaults, equality, hashing (for the immutable
ones), immutability and repr text, and the package imports without
``dataclasses``.
"""
import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from twistor_spectra.exact import Frozen, GammaQuotient, Record, Tagged
from twistor_spectra.ktypes import BadDimensionError, Direction, KType, Params
from twistor_spectra.operators import Case1Data, Case2Data, Case3Data, det2, relation_matrices
from twistor_spectra.spectra import Block, CalibrationResult, QuotientEntry
from twistor_spectra.verify import EdgeCheck, SuiteReport

KT = KType(1, Q(1, 2), Q(3, 2), 0, 1)
KT2 = KType(-1, Q(3, 2), Q(5, 2), 1, -1)
GQ = GammaQuotient(Q(1, 2), ((Q(1, 2), -1), (Q(3, 2), 1)))

# (type, field names, two samples of field values that differ in the last
# field, immutable?); the values are already in canonical form
RECORDS = [
    (Params, ("n", "r", "f_lattice", "strict_paper"),
     ((4, Q(1, 2), "half", False), (4, Q(1, 2), "half", True)), True),
    (KType, ("xi", "f", "j", "q", "eps"),
     ((1, Q(1, 2), Q(3, 2), 0, 1), (1, Q(1, 2), Q(3, 2), 0, -1)), True),
    (GammaQuotient, ("prefactor", "factors"),
     ((Q(1, 2), ((Q(1, 2), -1), (Q(3, 2), 1))), (Q(1, 2), ((Q(-1, 3), 2),))), True),
    (Tagged, ("order", "num", "den"), ((0, 1, 3), (0, 1, 4)), True),
    (Case1Data, ("a1", "a2", "e_minus", "e_plus"),
     ((Q(1), Q(2), Q(3), Q(4)), (Q(1), Q(2), Q(3), Q(5))), True),
    (Case2Data, ("f1_minus", "f1_plus", "f2_minus", "f2_plus", "g1", "g2", "c_ba"),
     (tuple(map(Q, range(7))), tuple(map(Q, range(6))) + (Q(1, 2),)), True),
    (Case3Data, ("p_minus", "p_plus"), ((Q(1), Q(2)), (Q(1), Q(3))), True),
    (QuotientEntry, ("direction", "neighbor", "num", "den"),
     ((Direction(1, 1), KT2, 3, 4), (Direction(1, 1), KT2, 3, 5)), True),
    (Block, ("ktype", "factor", "coefficients"),
     ((KT, GQ, (Q(1), Q(2), Q(3), Q(4))), (KT, GQ, (Q(1), Q(2), Q(3), Q(5)))), True),
    (EdgeCheck, ("case", "center", "neighbor", "direction", "verdict", "detail",
                 "quantities", "residuals"),
     ((2, KT, KT2, Direction(1, 1), "fail", "d", {"a": "1"}, {"b": "2"}),
      (2, KT, KT2, Direction(1, 1), "fail", "d", {"a": "1"}, None)), True),
    (CalibrationResult, ("table", "difference_edges", "unconstraining_edges", "probe"),
     (({(Q(3, 2), 1): Q(5, 2)}, 3, 1, {"shift": "0"}), ({(Q(3, 2), 1): Q(5, 2)}, 3, 1, None)),
     False),
    (SuiteReport, ("suite", "checks"),
     (("interface", [EdgeCheck(1, KT, None, None, "pass")]), ("interface", [])), False),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, samples, frozen", RECORDS, ids=IDS)
class TestEveryRecord:

    def test_fields_in_order_by_position_or_keyword(self, cls, names, samples, frozen):
        values = samples[0]
        obj = cls(*values)
        assert tuple(getattr(obj, name) for name in names) == values
        assert cls(**dict(zip(names, values))) == obj

    def test_equality_is_by_fields(self, cls, names, samples, frozen):
        assert cls(*samples[0]) == cls(*samples[0])
        assert cls(*samples[0]) != cls(*samples[1])

    def test_immutable_ones_hash_and_refuse_assignment(self, cls, names, samples, frozen):
        obj = cls(*samples[0])
        if not frozen:
            with pytest.raises(TypeError):
                hash(obj)
            setattr(obj, names[-1], samples[1][-1])
            assert obj == cls(*samples[1])
            return
        try:
            hash(samples[0])
        except TypeError:       # a dict among the fields, as an edge's quantities
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == hash(cls(*samples[0]))
            assert len({obj, cls(*samples[0]), cls(*samples[1])}) == 2
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, samples[1][-1])
        with pytest.raises(AttributeError):
            delattr(obj, names[0])
        assert obj == cls(*samples[0])

    def test_repr_names_every_field(self, cls, names, samples, frozen):
        values = samples[0]
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(cls(*values)) == f"{cls.__name__}({body})"

    def test_pickle_and_copy_round_trip(self, cls, names, samples, frozen):
        obj = cls(*samples[0])
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is cls and twin == obj


SLOTS_RECORDS = [(cls, names, frozen) for cls, names, _, frozen in RECORDS
                 if not issubclass(cls, tuple)]


@pytest.mark.parametrize("cls, names, frozen", SLOTS_RECORDS,
                         ids=[cls.__name__ for cls, *_ in SLOTS_RECORDS])
def test_slots_records_take_their_methods_from_the_base(cls, names, frozen):
    # one code path: the base reads the public slots, and no record spells
    # out its own copy of what the base gives
    assert issubclass(cls, Frozen) is frozen and issubclass(cls, Record)
    assert cls._fields == names
    own = {"_astuple", "__eq__", "__hash__", "__repr__", "__reduce__",
           "__setattr__", "__delattr__"} & set(vars(cls))
    assert own == set()


class TestDefaults:

    def test_defaults(self):
        assert Params(4, 1) == Params(4, 1, "half", False)
        assert GammaQuotient() == GammaQuotient(Q(1), ())
        assert Tagged(1) == Tagged(1, 0, 1)
        assert EdgeCheck(1, KT, None, None, "pass") == \
            EdgeCheck(1, KT, None, None, "pass", "", None, None)

    def test_each_report_gets_a_fresh_list(self):
        a, b = SuiteReport("a"), SuiteReport("b")
        a.checks.append(EdgeCheck(1, KT, None, None, "pass"))
        assert b.checks == [] and a.checks is not b.checks


class TestParams:

    def test_repr_is_pinned(self):
        assert repr(Params(6, 3, "int", strict_paper=True)) == \
            "Params(n=6, r=Fraction(3, 1), f_lattice='int', strict_paper=True)"

    def test_r_is_normalised_to_a_fraction(self):
        for r in (Q(1, 2), "1/2", " 2/4 "):
            params = Params(4, r)
            assert params.r == Q(1, 2) and type(params.r) is Q
        assert type(Params(4, 3).r) is Q

    @pytest.mark.parametrize("n", [3, 5, 2, 0, -4])
    def test_a_bad_dimension_is_refused(self, n):
        with pytest.raises(BadDimensionError):
            Params(n, 1)

    def test_a_bad_lattice_is_refused(self):
        with pytest.raises(ValueError, match="f_lattice"):
            Params(4, 1, "quarter")

    def test_a_strict_variant_by_keyword(self):
        params = Params(4, Q(1, 2))
        strict = Params(params.n, params.r, params.f_lattice, strict_paper=True)
        assert strict.strict_paper and strict != params
        assert Params(strict.n, strict.r, strict.f_lattice) == params


class TestGammaQuotient:

    def test_factors_are_canonical(self):
        g = GammaQuotient(Q(2, 4), [(Q(3, 2), 1), (1, 2), ("3/2", -1), (Q(-1, 3), 1),
                                    (Q(-1, 3), 1), (Q(1), -1)])
        assert g.prefactor == Q(1, 2) and type(g.prefactor) is Q
        assert g.factors == ((Q(-1, 3), 2), (Q(1), 1))
        assert all(type(a) is Q for a, _ in g.factors)
        assert g._pq == ((-1, 3, 2), (1, 1, 1))
        assert g == GammaQuotient(Q(1, 2), ((Q(1), 1), (Q(-1, 3), 2)))

    def test_a_zero_prefactor_is_refused(self):
        with pytest.raises(ValueError, match="nonzero"):
            GammaQuotient(0, ((Q(1, 2), 1),))

    def test_pq_is_not_a_field(self):
        with pytest.raises(AttributeError):
            GQ._pq = ()
        assert "_pq" not in repr(GQ)

    def test_pq_survives_pickle_and_copy(self):
        for twin in (pickle.loads(pickle.dumps(GQ)), copy.copy(GQ), copy.deepcopy(GQ)):
            assert twin._pq == GQ._pq == ((1, 2, -1), (3, 2, 1))


class TestTupleHazards:
    """A tuple subclass equals a plain tuple and is written to JSON as an
    array, so the records with ``to_json`` and the configuration are not tuples."""

    def test_labels_and_params_are_not_tuples(self):
        assert KT != (1, Q(1, 2), Q(3, 2), 0, 1)
        assert Params(4, 1) != (4, Q(1), "half", False)
        assert not isinstance(KT, tuple) and not isinstance(Params(4, 1), tuple)

    @pytest.mark.parametrize("obj", [KT, GQ, EdgeCheck(2, KT, KT2, Direction(1, 0), "pass"),
                                     SuiteReport("x", [EdgeCheck(1, KT, None, None, "pass")])],
                             ids=["KType", "GammaQuotient", "EdgeCheck", "SuiteReport"])
    def test_json_writes_to_json(self, obj):
        # the stdlib hands a record to ``default`` (a tuple it would write as
        # an array), as the tests' reference for the report text relies on
        want = json.dumps({"k": obj.to_json()}, indent=2, sort_keys=True)
        assert json.dumps({"k": obj}, indent=2, sort_keys=True,
                          default=lambda o: o.to_json()) == want

    def test_case2_matrices_read_the_fields_in_order(self):
        m1, m2 = relation_matrices(*Case2Data(*map(Q, range(1, 8))))
        assert (m1, m2) == relation_matrices(*(Q(k) for k in range(1, 8)))
        assert det2(m1) == Q(1 * 7 * 3 - 6 * 5)


def test_the_package_imports_without_dataclasses_or_inspect():
    # -S: no site hooks, so only the library's own imports count
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, twistor_spectra.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
