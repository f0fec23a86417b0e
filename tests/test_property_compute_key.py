"""Property test: the compute key names exactly what the compute part reads.

Engines cache a layer's compute part
(:data:`~repro.simulation.cycle_sim.LayerCompute`) under
:func:`~repro.engine.cache.compute_fingerprint`, built from
:attr:`~repro.simulation.cycle_sim.LayerSimulator.compute_inputs`.  Each
case mutates one :class:`~repro.core.config.AcceleratorConfig` field, or
``max_groups``, from one of two bases: the unbounded default, and a
bandwidth-limited config whose staging depth (3) exceeds its scratchpad
banks (2), so the staging-refill clamp binds.  On a fixed set of sparse
conv and fc traces:

* soundness: when the key is unchanged the compute part is bit-identical,
  and one memo-sharing engine serving both configs returns exactly what
  a fresh cache-less engine returns for each;
* no dead fields: every entry of the key changes the compute part for
  some mutation;
* no dead settings: every mutation, from at least one base, moves a
  result — the finalized layer results (operations and traffic), the
  energy report, an area or power breakdown, or the Table 2 hierarchy
  the config derives.
"""

from dataclasses import fields, is_dataclass, replace
from functools import lru_cache

import numpy as np
import pytest

from repro.core.config import AcceleratorConfig, MemoryConfig
from repro.energy import AreaModel, PowerModel
from repro.engine import SimulationEngine, compute_fingerprint
from repro.memory.hierarchy import MemoryHierarchy
from repro.simulation.cycle_sim import LayerSimulator
from repro.simulation.runner import ExperimentRunner, ModelResult
from repro.training.tracing import LayerTrace
from tests.test_engine_backends import assert_results_identical

MAX_GROUPS = 6

BASES = {
    "unbounded": AcceleratorConfig(),
    "refill_clamped": AcceleratorConfig(
        memory=MemoryConfig(scratchpad_banks=2),
        hierarchy=MemoryHierarchy(dram_bandwidth_gbps=4.0),
    ),
}

#: A new value for every leaf field of ``AcceleratorConfig`` (by dotted
#: path) and for ``max_groups``, different from both bases' values.
MUTATIONS = {
    "pe.lanes": 8,
    "pe.staging_depth": 2,
    "pe.datatype": "bfloat16",
    "tile.rows": 2,
    "tile.columns": 2,
    "memory.am_kb_per_bank": 128,
    "memory.bm_kb_per_bank": 128,
    "memory.cm_kb_per_bank": 128,
    "memory.banks_per_tile": 2,
    "memory.scratchpad_banks": 1,
    "memory.dram_channels": 2,
    "memory.dram_mts": 1600,
    "memory.compress_offchip": False,
    "hierarchy.dram_bandwidth_gbps": 8.0,
    "hierarchy.sram_bandwidth_gbps": 64.0,
    # Small enough that the test traces spill to DRAM.
    "hierarchy.sram_kb": 1,
    "num_tiles": 4,
    "frequency_mhz": 1000,
    "power_gated": True,
    "max_groups": 2,
}

CASES = [(base, path) for base in BASES for path in MUTATIONS]


def _traces():
    rng = np.random.default_rng(20)

    def mask(shape, zeros):
        return rng.random(shape) >= zeros

    def conv(name, channels, size, stride, zeros):
        out = (size + 2 - 3) // stride + 1
        return LayerTrace(
            layer_name=name, layer_type="conv", kernel=3, stride=stride,
            padding=1, weight_mask=mask((5, channels, 3, 3), 0.3),
            activation_mask=mask((2, channels, size, size), zeros),
            output_gradient_mask=mask((2, 5, out, out), zeros), macs=0,
        )

    fc = LayerTrace(
        layer_name="fc", layer_type="fc", kernel=1, stride=1, padding=0,
        weight_mask=mask((24, 40), 0.3), activation_mask=mask((4, 40), 0.7),
        output_gradient_mask=mask((4, 24), 0.5), macs=0,
    )
    return [conv("conv1", 6, 8, 1, 0.6), conv("conv2", 11, 9, 2, 0.8), fc]


TRACES = _traces()


def leaf_fields(obj, prefix=""):
    """Dotted paths of every non-dataclass field under ``obj``."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaf_fields(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}"


def mutated(config, path, value):
    head, _, rest = path.partition(".")
    if rest:
        value = mutated(getattr(config, head), rest, value)
    return replace(config, **{head: value})


def variant(base_name, path):
    """The ``(config, max_groups)`` pair of one case."""
    base = BASES[base_name]
    if path == "max_groups":
        return base, MUTATIONS[path]
    return mutated(base, path, MUTATIONS[path]), MAX_GROUPS


def test_mutations_cover_every_config_field():
    assert set(MUTATIONS) == {*leaf_fields(AcceleratorConfig()), "max_groups"}
    for base_name, path in CASES:
        assert variant(base_name, path) != (BASES[base_name], MAX_GROUPS), path


def test_refill_clamp_binds_on_the_clamped_base():
    clamped = LayerSimulator(BASES["refill_clamped"], max_groups=MAX_GROUPS)
    unclamped = LayerSimulator(
        replace(BASES["refill_clamped"], hierarchy=MemoryHierarchy()),
        max_groups=MAX_GROUPS,
    )
    assert clamped.accelerator.refill_limit < clamped.config.pe.staging_depth
    assert clamped.compute_layers(TRACES) != unclamped.compute_layers(TRACES)


@pytest.mark.parametrize("base_name, path", CASES, ids=[f"{b}-{p}" for b, p in CASES])
def test_unchanged_key_means_identical_compute(base_name, path):
    pairs = [(BASES[base_name], MAX_GROUPS), variant(base_name, path)]
    before, after = (LayerSimulator(c, max_groups=g) for c, g in pairs)
    shared_key = compute_fingerprint(before) == compute_fingerprint(after)
    if shared_key:
        assert before.compute_layers(TRACES) == after.compute_layers(TRACES)
    engine = SimulationEngine()
    for config, max_groups in pairs:
        served = engine.simulate_layers(TRACES, config=config, max_groups=max_groups)
        fresh = SimulationEngine(config, max_groups=max_groups).simulate_layers(TRACES)
        assert_results_identical(served, fresh)
    assert engine.stats.layers_simulated == len(TRACES) * (1 if shared_key else 2)


def test_every_key_entry_changes_the_compute_part():
    live = set()
    for base_name, path in CASES:
        before = LayerSimulator(BASES[base_name], max_groups=MAX_GROUPS)
        config, max_groups = variant(base_name, path)
        after = LayerSimulator(config, max_groups=max_groups)
        if before.compute_layers(TRACES) != after.compute_layers(TRACES):
            old, new = dict(before.compute_inputs), dict(after.compute_inputs)
            live.update(name for name in old if old[name] != new[name])
    assert live == set(dict(LayerSimulator().compute_inputs))


@lru_cache(maxsize=None)
def observed(config, max_groups):
    """Everything a setting can move, for one ``(config, max_groups)``."""
    layers = LayerSimulator(config, max_groups=max_groups).simulate_layers(TRACES)
    runner = ExperimentRunner(config, max_groups=max_groups)
    energy = runner.energy_report(ModelResult("traces", 0, layers))
    area, power = AreaModel(config), PowerModel(config)
    return (
        [(layer.operations, layer.traffic) for layer in layers],
        energy.as_dict(),
        area.baseline().as_dict(), area.tensordash().as_dict(),
        power.baseline().as_dict(), power.tensordash().as_dict(),
        MemoryHierarchy.table2(config),
    )


@pytest.mark.parametrize("path", list(MUTATIONS))
def test_every_setting_moves_a_result(path):
    moved = [
        base_name for base_name in BASES
        if observed(*variant(base_name, path))
        != observed(BASES[base_name], MAX_GROUPS)
    ]
    assert moved, f"{path} moves no result from either base"
