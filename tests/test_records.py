"""The package's records without ``dataclasses``: their contract, and what a fresh run imports.

Plain records are named tuples; the others are slotted ``errors.Record``
classes.  Each keeps its field names and order, its repr, equality and
hash by value, a pickle round trip and, unless it was writable before,
its immutability.  Two message types with equal fields stay unequal.
``LightPath`` is still a frozen dataclass, defined on its first use.
"""

import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from wavebroker import (
    ChannelConfig,
    ConstantElasticityDemand,
    CostCurve,
    CurveSegment,
    Grant,
    LinearDemand,
    Link,
    Network,
    Report,
    ScenarioConfig,
    SupplierConfig,
    TraceEvent,
    UndercutPolicy,
    VirtualChannel,
    Violation,
    make_network,
    run_scenario,
)
from wavebroker import rwa
from wavebroker.cli import load_scenario, report_json
from wavebroker.market import LedgerEntry
from wavebroker.protocol import BROKER_TO_SUPPLIER, Ack, CompetitionTrace, Exc1, Exc2, Nack, Ocl, Offp, Reqc

from conftest import scenario_path

SRC = Path(__file__).resolve().parents[1] / "src"

VC = VirtualChannel("A", "B", "VC1")
NET = make_network("n", ["A", "B"], [Link("A", "B", 4, 10)], 8)
SEGMENT = CurveSegment(1, 3, 125)
POLICY = UndercutPolicy(3, 10)
LINEAR = LinearDemand(10.0, 0.5)


def duel():
    return load_scenario(scenario_path("duel"))


# kind: (fields, a sample, its repr, a sample unequal to it)
NAMED_TUPLES = {
    CurveSegment: (
        ("q_from", "q_to", "mc"), SEGMENT, "CurveSegment(q_from=1, q_to=3, mc=125)", CurveSegment(1, 3, 126)
    ),
    CostCurve: (
        ("vc", "segments", "q_max"),
        CostCurve(VC, (SEGMENT,), 3),
        "CostCurve(vc=VirtualChannel(src='A', dst='B', label='VC1'),"
        " segments=(CurveSegment(q_from=1, q_to=3, mc=125),), q_max=3)",
        CostCurve(VC, (SEGMENT,), 4),
    ),
    Violation: (
        ("code", "detail"),
        Violation("self-loop", "x"),
        "Violation(code='self-loop', detail='x')",
        Violation("self-loop", "y"),
    ),
    SupplierConfig: (
        ("network", "policy", "markup"),
        SupplierConfig(NET, POLICY, 2.0),
        f"SupplierConfig(network={NET!r}, policy=UndercutPolicy(l_min=3, l_max=10), markup=2.0)",
        SupplierConfig(NET, POLICY, 2.5),
    ),
    ChannelConfig: (
        ("vc", "demand"),
        ChannelConfig(VC, LINEAR),
        "ChannelConfig(vc=VirtualChannel(src='A', dst='B', label='VC1'), demand=LinearDemand(a=10.0, b=0.5))",
        ChannelConfig(VC, LinearDemand(10.0, 0.25)),
    ),
    Link: (
        ("a", "b", "capacity", "unit_cost"),
        Link("A", "B", 4, 10),
        "Link(a='A', b='B', capacity=4, unit_cost=10)",
        Link("A", "B", 4, 11),
    ),
}

GRANT = Grant("c1", VC, (((("A", "B"),), 0b101),), 2)

SLOTTED = {
    UndercutPolicy: (("l_min", "l_max"), POLICY, "UndercutPolicy(l_min=3, l_max=10)", UndercutPolicy(3, 11)),
    LinearDemand: (("a", "b"), LINEAR, "LinearDemand(a=10.0, b=0.5)", LinearDemand(10.0, 0.25)),
    ConstantElasticityDemand: (
        ("a", "eps"),
        ConstantElasticityDemand(100.0, 1.5),
        "ConstantElasticityDemand(a=100.0, eps=1.5)",
        ConstantElasticityDemand(100.0, 2.0),
    ),
    VirtualChannel: (
        ("src", "dst", "label"), VC, "VirtualChannel(src='A', dst='B', label='VC1')", VirtualChannel("B", "A", "VC1")
    ),
    Network: (
        ("id", "nodes", "links", "wavelength_count"),
        NET,
        f"Network(id='n', nodes={NET.nodes!r},"
        " links=(Link(a='A', b='B', capacity=4, unit_cost=10),), wavelength_count=8)",
        make_network("n", ["A", "B"], [Link("A", "B", 4, 10)], 9),
    ),
    Grant: (
        ("conn", "vc", "runs", "count"),
        GRANT,
        "Grant(conn='c1', vc=VirtualChannel(src='A', dst='B', label='VC1'), runs=(((('A', 'B'),), 5),), count=2)",
        Grant("c2", VC, (((("A", "B"),), 0b101),), 2),
    ),
    Reqc: (("x", "y"), Reqc("S", "T"), "Reqc(x='S', y='T')", Reqc("S", "U")),
    Offp: (("p", "x", "y"), Offp(725, "S", "T"), "Offp(p=725, x='S', y='T')", Offp(724, "S", "T")),
    Ocl: (("x", "y", "p"), Ocl("S", "T", 900), "Ocl(x='S', y='T', p=900)", Ocl("S", "T", 899)),
    Nack: (("x", "y"), Nack("S", "T"), "Nack(x='S', y='T')", Nack("T", "S")),
    Ack: (("x", "y", "d"), Ack("S", "T", 4), "Ack(x='S', y='T', d=4)", Ack("S", "T", 3)),
    Exc1: (("d", "p", "x", "y"), Exc1(2, 900, "S", "T"), "Exc1(d=2, p=900, x='S', y='T')", Exc1(0, 0, "S", "T")),
    Exc2: (("x", "y", "p"), Exc2("S", "T", 900), "Exc2(x='S', y='T', p=900)", Exc2("S", "T", 901)),
}

# Records added to in place: writable and unhashable, as the mutable dataclasses they were.
WRITABLE = {
    LedgerEntry: (
        ("revenue", "cost", "wavelengths_sold"),
        LedgerEntry(5, 3, 1),
        "LedgerEntry(revenue=5, cost=3, wavelengths_sold=1)",
        LedgerEntry(5, 3, 2),
    ),
}

RECORDS = {**NAMED_TUPLES, **SLOTTED, **WRITABLE}

# A Grant was a writable dataclass hashed by value, and still is: making one costs four plain writes.
WRITES_ALLOWED = {*WRITABLE, Grant}


@pytest.mark.parametrize("kind", list(RECORDS), ids=lambda kind: kind.__name__)
class TestRecordContract:
    def test_fields_keep_their_names_and_order(self, kind):
        fields, record, _, _ = RECORDS[kind]
        assert type(record) is kind and kind._fields == fields
        if kind in SLOTTED or kind in WRITABLE:
            assert all(name in kind.__slots__ for name in fields)

    def test_repr(self, kind):
        _, record, text, _ = RECORDS[kind]
        assert repr(record) == text

    def test_equality_and_hash_are_by_value(self, kind):
        fields, record, _, other = RECORDS[kind]
        values = [getattr(record, name) for name in fields]
        copy = kind(*values)
        assert copy is not record and copy == record and not copy != record
        assert record != other and not record == other
        assert kind(**dict(zip(fields, values))) == record
        if kind in WRITABLE:
            with pytest.raises(TypeError):
                hash(record)
        else:
            # the value a frozen dataclass's hash gave: its fields' tuple's
            assert hash(record) == hash(copy) == hash(tuple(values))
            assert {record: 1}[copy] == 1

    def test_pickle_round_trip(self, kind):
        _, record, _, _ = RECORDS[kind]
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is kind and copy == record

    def test_a_write_raises_unless_written_in_place(self, kind):
        fields, record, _, _ = RECORDS[kind]
        copy = kind(*[getattr(record, name) for name in fields])
        if kind in WRITES_ALLOWED:
            setattr(copy, fields[-1], 7)
            assert getattr(copy, fields[-1]) == 7
            return
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(copy, name, None)
            with pytest.raises(AttributeError):
                delattr(copy, name)
        with pytest.raises(AttributeError):
            copy.extra = 1
        assert copy == record


@pytest.mark.parametrize("kind", list(NAMED_TUPLES), ids=lambda kind: kind.__name__)
def test_a_named_tuple_record_equals_its_plain_tuple(kind):
    fields, record, _, _ = NAMED_TUPLES[kind]
    assert record == tuple(getattr(record, name) for name in fields)
    assert record._replace(**{fields[0]: getattr(record, fields[0])}) == record


@pytest.mark.parametrize("kind", list(SLOTTED), ids=lambda kind: kind.__name__)
def test_a_slotted_record_never_equals_a_tuple(kind):
    fields, record, _, _ = SLOTTED[kind]
    values = tuple(getattr(record, name) for name in fields)
    assert record != values and values != record
    assert not hasattr(record, "__dict__") or not set(fields) & set(vars(record))


def test_messages_of_two_types_with_equal_fields_differ():
    pairs = [(Ocl("S", "T", 5), Exc2("S", "T", 5)), (Reqc("S", "T"), Nack("S", "T"))]
    for a, b in pairs:
        assert a._values() == b._values()
        assert a != b and b != a and not a == b
        for message in (a, b):
            assert message != message._values() and message._values() != message
        events = [TraceEvent(1, BROKER_TO_SUPPLIER, "netA", message) for message in (a, b)]
        assert events[0] != events[1]
        assert CompetitionTrace(events[:1]) != CompetitionTrace(events[1:])


def test_replace_checks_the_changed_copy():
    assert POLICY._replace(l_max=5) == UndercutPolicy(3, 5) and POLICY._replace(l_max=5).step == (3, 3, 2)
    with pytest.raises(ValueError):
        POLICY._replace(l_min=0)
    with pytest.raises(ValueError):
        VC._replace(dst="A")
    with pytest.raises(TypeError):
        VC._replace(source="B")
    with pytest.raises(TypeError):
        Reqc("S")
    with pytest.raises(TypeError):
        Reqc("S", "T", y="U")


def test_a_scenario_config_and_a_report_keep_their_contract():
    config = duel()
    assert ScenarioConfig._fields == (
        "id", "seed", "suppliers", "channels", "schedule", "round_cap", "reject_partial"
    )
    assert repr(config).startswith("ScenarioConfig(id='duel', seed=")
    assert pickle.loads(pickle.dumps(config)) == config and hash(config) == hash(duel())
    with pytest.raises(AttributeError):
        config.seed = 1
    report = run_scenario(config)
    assert Report._fields == (
        "scenario_id", "seed", "network_ids", "vc_labels", "ledger", "records", "traces", "final_states", "networks"
    )
    assert repr(report).startswith(f"Report(scenario_id='duel', seed={config.seed}, network_ids=")
    copy = pickle.loads(pickle.dumps(report))
    assert type(copy) is Report and report_json(copy) == report_json(report)
    with pytest.raises(TypeError):
        hash(report)
    report.seed += 1
    assert report_json(report) != report_json(copy)


def test_a_grant_pickles_as_its_four_fields():
    data = pickle.dumps(GRANT)
    assert pickle.loads(data) == GRANT and len(pickle.loads(data)) == 2
    assert b"conn" not in data and b"runs" not in data and b"count" not in data
    assert GRANT.__getstate__() == ("c1", VC, (((("A", "B"),), 0b101),), 2)


def test_lightpath_is_a_frozen_dataclass_defined_on_first_use():
    from wavebroker import LightPath

    assert rwa.LightPath is LightPath and dataclasses.is_dataclass(LightPath)
    first, second = GRANT.lightpaths()
    assert type(first) is LightPath and (first.wavelength, second.wavelength) == (1, 3)
    assert repr(first) == (
        "LightPath(conn='c1', vc=VirtualChannel(src='A', dst='B', label='VC1'), wavelength=1, hops=(('A', 'B'),))"
    )
    moved = dataclasses.replace(first, wavelength=2)
    assert moved == LightPath("c1", VC, 2, (("A", "B"),)) and moved != first
    assert pickle.loads(pickle.dumps(first)) == first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.wavelength = 2
    with pytest.raises(AttributeError):
        rwa.NotALightPath


def test_grants_build_lightpaths_from_the_module_attribute(monkeypatch):
    # test_rwa's no-lightpath guards patch rwa.LightPath; a grant must build through that name.
    def refuse(*args, **kwargs):
        raise AssertionError("LightPath built")

    monkeypatch.setattr(rwa, "LightPath", refuse)
    with pytest.raises(AssertionError, match="LightPath built"):
        GRANT.lightpaths()


def test_a_fresh_cli_run_imports_none_of_the_modules_it_does_not_need(tmp_path):
    """``dataclasses``, ``inspect`` and ``decimal`` are not imported at all; ``hashlib`` and ``statistics`` only by sweeps."""
    out = tmp_path / "out"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import wavebroker.cli\n"
        f"assert wavebroker.cli.main(['run', {scenario_path('duel')!r}, '--traces', '--out', {str(out)!r}]) == 0\n"
        "print(sorted({'dataclasses', 'decimal', 'inspect', 'hashlib', 'statistics'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (out / "report.json").is_file() and len(list((out / "traces").iterdir())) == 10
