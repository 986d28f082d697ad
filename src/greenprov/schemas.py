"""Schemas for the CLI's machine-readable outputs.

JSON records are validated against these in the test suite (jsonschema is
a test-only dependency); the CSV header tuples are the single source of
truth for tabular outputs and their readers.  A header derives from the
types that own its record: ``SETTLEMENT_HEADER`` is the ``SettlementEntry``
fields, and ``SWEEP_HEADER`` the ``DemandStats``, ``CostRates`` and
``BalanceResult`` fields then ``error``, so neither can disagree with the
rows written from those types.  ``TRACE_HEADER``, which no type declares,
is literal.  Every JSON object here is closed and requires all of its
properties, except that demand and policy require only their ``kind``.
"""

from __future__ import annotations

from dataclasses import fields

from .balance import BalanceResult, CostRates, DemandStats
from .demand import FAMILIES
from .market import SettlementEntry
from .simulate import POLICY_KINDS

_NUMBER = {"type": "number"}
_NONNEG = {"type": "number", "minimum": 0}
_PROBABILITY = {"type": "number", "minimum": 0, "maximum": 1}
_U64 = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}


def _record(properties: dict, required: list | None = None) -> dict:
    """A closed JSON object of ``properties``, requiring all of them unless
    ``required`` names fewer."""
    return {
        "type": "object",
        "additionalProperties": False,
        "required": list(properties) if required is None else required,
        "properties": properties,
    }


def _names(record_type) -> tuple[str, ...]:
    return tuple(field.name for field in fields(record_type))


_STATS = _record({"mean_demand": _NONNEG, "max_demand": _NONNEG, "r_agreed": _NUMBER})

_RATES = _record({"c_en": _NONNEG, "c_co2": _NONNEG, "c_viol": _NONNEG, "satisfaction": _NONNEG})

_DEMAND = _record(
    {
        "kind": {"type": "string", "enum": list(FAMILIES)},
        "lower": _NUMBER,
        "upper": _NUMBER,
        "mu": _NUMBER,
        "sigma": _NUMBER,
        "mu_log": _NUMBER,
        "sigma_log": _NUMBER,
        "values": {"type": "array", "items": _NUMBER, "minItems": 2},
        "resource_unit": {"type": "string"},
    },
    required=["kind"],
)

_POLICY = _record(
    {
        "kind": {"type": "string", "enum": list(POLICY_KINDS)},
        "x_percent": _NUMBER,
        "level": _NUMBER,
    },
    required=["kind"],
)

_SIMULATION = _record(
    {
        "steps": {"type": "integer", "minimum": 1},
        "replications": {"type": "integer", "minimum": 1},
        "seed": _U64,
        "energy_full": _NONNEG,
        "carbon_intensity": _NONNEG,
        "clamp_demand_to_agreed": {"type": "boolean"},
    }
)

SCENARIO_SCHEMA = _record(
    {
        "demand": _DEMAND,
        "stats": _STATS,
        "rates": _RATES,
        "policy": _POLICY,
        "simulation": _SIMULATION,
    }
)

BALANCE_RECORD_SCHEMA = _record(
    {
        "stats": _STATS,
        "rates": _RATES,
        "result": _record(
            {
                "r_provisioned": _NONNEG,
                "w": _NONNEG,
                "c_wastage": _NONNEG,
                "p_viol": _PROBABILITY,
                "expected_penalty": _NONNEG,
            }
        ),
    }
)

SIMULATION_REPORT_SCHEMA = _record(
    {
        "seed": _U64,
        "scenario": SCENARIO_SCHEMA,
        "aggregate": _record(
            {
                "provision_level": _NONNEG,
                "violation_count": {"type": "integer", "minimum": 0},
                "violation_frequency": _PROBABILITY,
                "total_wastage_cost": _NONNEG,
                "total_penalty_cost": _NONNEG,
                "total_expected_model_cost": _NONNEG,
                "total_energy_kwh": _NONNEG,
                "total_emissions_kg": _NONNEG,
                "total_energy_use_cost": _NONNEG,
                "total_co2_use_cost": _NONNEG,
                "energy_saved_kwh": _NONNEG,
                "model_violation_probability": _PROBABILITY,
                "tail_violation_probability": _PROBABILITY,
            }
        ),
    }
)

TRACE_HEADER = (
    "replication",
    "step",
    "demand",
    "provisioned",
    "violation",
    "wasted",
    "wastage_cost",
    "penalty_cost",
)

SETTLEMENT_HEADER = _names(SettlementEntry)

SWEEP_HEADER = _names(DemandStats) + _names(CostRates) + _names(BalanceResult) + ("error",)
