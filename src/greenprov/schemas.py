"""Schemas for the CLI's machine-readable outputs.

JSON records are validated against these in the test suite (jsonschema is
a test-only dependency); the CSV header tuples are the single source of
truth for tabular outputs and their readers.
"""

from __future__ import annotations

from .demand import FAMILIES
from .simulate import POLICY_KINDS

_NUMBER = {"type": "number"}
_NONNEG = {"type": "number", "minimum": 0}
_U64 = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}

_STATS = {
    "type": "object",
    "additionalProperties": False,
    "required": ["mean_demand", "max_demand", "r_agreed"],
    "properties": {
        "mean_demand": _NONNEG,
        "max_demand": _NONNEG,
        "r_agreed": _NUMBER,
    },
}

_RATES = {
    "type": "object",
    "additionalProperties": False,
    "required": ["c_en", "c_co2", "c_viol", "satisfaction"],
    "properties": {
        "c_en": _NONNEG,
        "c_co2": _NONNEG,
        "c_viol": _NONNEG,
        "satisfaction": _NONNEG,
    },
}

_DEMAND = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
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
}

_POLICY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"type": "string", "enum": list(POLICY_KINDS)},
        "x_percent": _NUMBER,
        "level": _NUMBER,
    },
}

_SIMULATION = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "steps",
        "replications",
        "seed",
        "energy_full",
        "carbon_intensity",
        "clamp_demand_to_agreed",
    ],
    "properties": {
        "steps": {"type": "integer", "minimum": 1},
        "replications": {"type": "integer", "minimum": 1},
        "seed": _U64,
        "energy_full": _NONNEG,
        "carbon_intensity": _NONNEG,
        "clamp_demand_to_agreed": {"type": "boolean"},
    },
}

SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["demand", "stats", "rates", "policy", "simulation"],
    "properties": {
        "demand": _DEMAND,
        "stats": _STATS,
        "rates": _RATES,
        "policy": _POLICY,
        "simulation": _SIMULATION,
    },
}

BALANCE_RECORD_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["stats", "rates", "result"],
    "properties": {
        "stats": _STATS,
        "rates": _RATES,
        "result": {
            "type": "object",
            "additionalProperties": False,
            "required": ["r_provisioned", "w", "c_wastage", "p_viol", "expected_penalty"],
            "properties": {
                "r_provisioned": _NONNEG,
                "w": _NONNEG,
                "c_wastage": _NONNEG,
                "p_viol": {"type": "number", "minimum": 0, "maximum": 1},
                "expected_penalty": _NONNEG,
            },
        },
    },
}

SIMULATION_REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["seed", "scenario", "aggregate"],
    "properties": {
        "seed": _U64,
        "scenario": SCENARIO_SCHEMA,
        "aggregate": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "provision_level",
                "violation_count",
                "violation_frequency",
                "total_wastage_cost",
                "total_penalty_cost",
                "total_expected_model_cost",
                "total_energy_kwh",
                "total_emissions_kg",
                "total_energy_use_cost",
                "total_co2_use_cost",
                "energy_saved_kwh",
                "model_violation_probability",
                "tail_violation_probability",
            ],
            "properties": {
                "provision_level": _NONNEG,
                "violation_count": {"type": "integer", "minimum": 0},
                "violation_frequency": {"type": "number", "minimum": 0, "maximum": 1},
                "total_wastage_cost": _NONNEG,
                "total_penalty_cost": _NONNEG,
                "total_expected_model_cost": _NONNEG,
                "total_energy_kwh": _NONNEG,
                "total_emissions_kg": _NONNEG,
                "total_energy_use_cost": _NONNEG,
                "total_co2_use_cost": _NONNEG,
                "energy_saved_kwh": _NONNEG,
                "model_violation_probability": {"type": "number", "minimum": 0, "maximum": 1},
                "tail_violation_probability": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
    },
}

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

SETTLEMENT_HEADER = ("name", "cap_kg", "emissions_kg", "position_kg", "cash_flow")

SWEEP_HEADER = (
    "mean_demand",
    "max_demand",
    "r_agreed",
    "c_en",
    "c_co2",
    "c_viol",
    "satisfaction",
    "r_provisioned",
    "w",
    "c_wastage",
    "p_viol",
    "expected_penalty",
    "error",
)
