"""FaultPlan: spec parsing, deterministic application, gate semantics."""

import pytest

from repro.faults import DropLines, FaultPlan, FaultSpec, InjectedCorruptionError
from repro.obs import get_registry

SAMPLE = b"\n".join(f"row-{i},value-{i}".encode() for i in range(50))


def test_spec_parse_defaults_to_truncate():
    spec = FaultSpec.parse("cables")
    assert spec.dataset == "cables"
    assert spec.injector.name == "truncate"


def test_spec_parse_with_injector():
    spec = FaultSpec.parse("peeringdb:bitflip")
    assert (spec.dataset, spec.injector.name) == ("peeringdb", "bitflip")


def test_spec_parse_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        FaultSpec.parse(":bitflip")


def test_spec_parse_rejects_unknown_injector():
    with pytest.raises(ValueError, match="unknown injector"):
        FaultSpec.parse("cables:melt")


def test_corrupt_is_deterministic_across_plan_instances():
    one = FaultPlan.single("cables", "bitflip", seed=42)
    two = FaultPlan.single("cables", "bitflip", seed=42)
    assert one.corrupt("cables", SAMPLE) == two.corrupt("cables", SAMPLE)


def test_corrupt_depends_on_seed_and_context():
    plan = FaultPlan.single("cables", "bitflip", seed=1)
    other_seed = FaultPlan.single("cables", "bitflip", seed=2)
    assert plan.corrupt("cables", SAMPLE) != other_seed.corrupt("cables", SAMPLE)
    assert plan.corrupt("cables", SAMPLE, context="a") != plan.corrupt(
        "cables", SAMPLE, context="b"
    )


def test_untargeted_dataset_passes_through_unlogged():
    plan = FaultPlan.single("cables", seed=0)
    assert plan.corrupt("macro", SAMPLE) == SAMPLE
    assert plan.injections == []
    assert get_registry().counter("faults.injected").value == 0


def test_injection_log_and_counter():
    plan = FaultPlan.from_specs(["cables:truncate", "cables:bitflip"], seed=0)
    damaged = plan.corrupt("cables", SAMPLE, context="test")
    assert damaged != SAMPLE
    assert [r.injector for r in plan.injections] == [
        "truncate(keep=0.50)",
        "bitflip(flips=16)",
    ]
    assert all(r.context == "test" for r in plan.injections)
    assert get_registry().counter("faults.injected").value == 2


def test_gate_raises_injected_corruption_for_truncated_pickle():
    plan = FaultPlan.single("cables", "truncate", seed=0)
    with pytest.raises(InjectedCorruptionError, match="dataset 'cables'"):
        plan.gate("cables", {"k": list(range(100))})


def test_gate_passes_untargeted_value_by_identity():
    plan = FaultPlan.single("cables", seed=0)
    value = {"k": 1}
    assert plan.gate("macro", value) is value


def test_gate_survivable_damage_returns_reparsed_value():
    # Dropping zero lines leaves the pickle intact: the gate must return
    # an equal (round-tripped) value rather than raising.
    plan = FaultPlan.single("cables", DropLines(drop_fraction=0.0), seed=0)
    value = {"k": [1, 2, 3]}
    assert plan.gate("cables", value) == value

