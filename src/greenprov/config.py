"""Strict YAML scenario configs and the scenario echo round trip.

A config document holds up to six top-level sections (demand, stats,
rates, policy, simulation, market) mapping one-to-one onto the library's
domain types. Each section is one table of its keys in reading order, a
key mapping to the reader of its value and a default, or required (demand
and policy have one table per kind). ``_section`` reads every mapping by
its table, so parsing is strict the same way everywhere: unknown keys
raise ConfigError with the offending key path, numbers must be decimal
reals (bools are not numbers), and seeds must fit in an unsigned 64-bit
integer.

Reports echo their effective scenario through scenario_to_dict, built from
the same tables; feeding that dict back through scenario_from_dict
reconstructs an equal Scenario, which is the provenance contract the CLI
tests pin down.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import yaml

from .balance import CostRates, DemandStats
from .demand import (
    DEFAULT_MAX,
    DEFAULT_QUANTILE,
    EMPIRICAL,
    LOGNORMAL,
    MEAN_PLUS_VARIANCE,
    QUANTILE,
    TRUE_UPPER_BOUND,
    TRUNCATED_NORMAL,
    UNIFORM,
    DemandProfile,
    make_profile,
)
from .errors import ConfigError, InvalidScenario
from .market import DataCenterAccount
from .simulate import BALANCE_BAND, FIXED_LEVEL, POLICY_KINDS, Policy, Scenario

MAX_METHODS = (MEAN_PLUS_VARIANCE, TRUE_UPPER_BOUND, QUANTILE)


def _key_path(path: str, key) -> str:
    """``path.key``, or ``key`` at the top, with the key's control
    characters escaped as ``repr`` escapes them, so a message naming it
    stays on one line."""
    key = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(key))
    return f"{path}.{key}" if path else key


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects a mapping key given twice (YAML requires
    unique keys; PyYAML would keep the last value)."""

    def construct_document(self, node):
        self._check_unique_keys(node, "", set())
        return super().construct_document(node)

    def _check_unique_keys(self, node, path: str, visited: set):
        if id(node) in visited:  # aliases can make the node graph cyclic
            return
        visited.add(id(node))
        if isinstance(node, yaml.MappingNode):
            seen = set()
            for key_node, value_node in node.value:
                if not isinstance(key_node, yaml.ScalarNode):
                    continue  # the constructor rejects it as unhashable
                # keys given next to a merge (<<) override the merged ones
                merge = key_node.tag == "tag:yaml.org,2002:merge"
                key = "<<" if merge else self.construct_object(key_node)
                full = _key_path(path, key)
                if not merge:
                    if key in seen:
                        raise ConfigError(f"duplicate key: {full}", full)
                    seen.add(key)
                self._check_unique_keys(value_node, full, visited)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                self._check_unique_keys(item, f"{path}[{i}]", visited)


# -- readers: each takes a value and its key path --------------------------


def _invalid(path: str, problem) -> ConfigError:
    return ConfigError(f"invalid value at {path}: {problem}", path)


def _missing(path: str) -> ConfigError:
    return ConfigError(f"missing key: {path}", path)


def _as_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _invalid(path, "expected a mapping")
    for key in value:
        if not isinstance(key, str):
            raise _invalid(path, f"non-string key {key!r}")
    return value


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(path, "expected a real number")
    out = float(value)
    if not math.isfinite(out):
        raise _invalid(path, "must be finite")
    return out


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(path, "expected an integer")
    return value


def _u64(value, path: str) -> int:
    if not 0 <= _int(value, path) < 2**64:
        raise _invalid(path, "seed must be an unsigned 64-bit integer")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise _invalid(path, "expected true/false")
    return value


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise _invalid(path, "expected a string")
    try:
        value.encode("utf-8")  # the outputs that echo it are UTF-8
    except UnicodeEncodeError as exc:
        raise _invalid(path, "holds a lone surrogate, which UTF-8 cannot encode") from exc
    return value


def _reals(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise _invalid(path, "expected a list")
    return [_real(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _max_method(value, path: str) -> str:
    """A max_estimate method; the empty string means the default one."""
    method = _str(value, path)
    if method and method not in MAX_METHODS:
        raise _invalid(path, f"expected one of {', '.join(MAX_METHODS)}")
    return method or DEFAULT_MAX


def _accounts(value, path: str) -> tuple[DataCenterAccount, ...]:
    if not isinstance(value, list) or not value:
        raise _invalid(path, "expected a nonempty list")
    return tuple(
        _build(DataCenterAccount, entry, f"{path}[{i}]", _ACCOUNT)
        for i, entry in enumerate(value)
    )


# -- tables: key -> (reader, default); _REQUIRED marks a required key -------

_REQUIRED = object()
_REAL = (_real, _REQUIRED)
_KIND = (_str, _REQUIRED)  # checked against the section's kinds before it is read

# In FAMILIES order. resource_unit follows kind, then make_profile's
# parameters in its order; an optional parameter left at None is not passed.
_DEMAND = {
    UNIFORM: {"kind": _KIND, "resource_unit": (_str, ""), "lower": _REAL, "upper": _REAL},
    TRUNCATED_NORMAL: {
        "kind": _KIND, "resource_unit": (_str, ""),
        "mu": _REAL, "sigma": _REAL, "lower": (_real, 0.0), "upper": _REAL,
    },
    LOGNORMAL: {
        "kind": _KIND, "resource_unit": (_str, ""),
        "mu_log": _REAL, "sigma_log": _REAL, "upper": (_real, None),
    },
    EMPIRICAL: {"kind": _KIND, "resource_unit": (_str, ""), "values": (_reals, _REQUIRED)},
}

_STATS = {
    "max_method": (_max_method, DEFAULT_MAX),
    "r_agreed": _REAL,
    "mean_demand": (_real, None),  # None: derived from the demand section
    "max_demand": (_real, None),
    "quantile": (_real, DEFAULT_QUANTILE),
}

_RATES = {"c_en": _REAL, "c_co2": _REAL, "c_viol": _REAL, "satisfaction": (_real, 0.0)}

# In POLICY_KINDS order; the keyword arguments of Policy.
_POLICY = {kind: {"kind": _KIND} for kind in POLICY_KINDS}
_POLICY[BALANCE_BAND]["x_percent"] = _REAL
_POLICY[FIXED_LEVEL]["level"] = _REAL

# Scenario fields; seed None: given by the CLI instead.
_SIMULATION = {
    "steps": (_int, _REQUIRED),
    "replications": (_int, _REQUIRED),
    "energy_full": _REAL,
    "carbon_intensity": _REAL,
    "seed": (_u64, None),
    "clamp_demand_to_agreed": (_bool, False),
}

_ACCOUNT = {"name": (_str, _REQUIRED), "cap_kg": _REAL, "emissions_kg": _REAL}

_MARKET = {"price_per_kg": _REAL, "accounts": (_accounts, _REQUIRED)}


def _section(value, path: str, keys: dict) -> dict:
    """The values of a mapping, read by the table ``keys`` in table order.

    An unknown key is reported first, the first in document order; then
    each key in table order is read, or is missing, or takes its default.
    ``path`` is the mapping's key path, empty for the document itself.
    """
    mapping = _as_map(value, path or "config")
    for key in mapping:
        if key not in keys:
            full = _key_path(path, key)
            raise ConfigError(f"unknown key: {full}", full)
    out = {}
    for key, (read, default) in keys.items():
        full = _key_path(path, key)
        if key in mapping:
            out[key] = read(mapping[key], full)
        elif default is _REQUIRED:
            raise _missing(full)
        else:
            out[key] = default
    return out


def _build(build, value, path: str, keys: dict):
    """``build(**values)`` of a section read by ``keys``; the domain type's
    ValueError is a ConfigError at the section's path."""
    values = _section(value, path, keys)
    try:
        return build(**values)
    except ValueError as exc:
        raise _invalid(path, exc) from exc


def _kind_table(value, path: str, tables: dict, noun: str) -> dict:
    """The table of a section whose keys depend on its kind, read first."""
    mapping = _as_map(value, path)
    full = f"{path}.kind"
    if "kind" not in mapping:
        raise _missing(full)
    kind = _str(mapping["kind"], full)
    if kind not in tables:
        raise _invalid(full, f"unknown {noun} {kind!r} (expected one of {', '.join(tables)})")
    return tables[kind]


def _profile(kind, resource_unit, values=None, **params) -> DemandProfile:
    """make_profile on a demand section's values; a parameter left at None is not passed."""
    if values is None:
        values = [p for p in params.values() if p is not None]
    return make_profile(kind, values, resource_unit=resource_unit)


def parse_demand(section, path: str = "demand") -> DemandProfile:
    return _build(_profile, section, path, _kind_table(section, path, _DEMAND, "family"))


def parse_policy(section, path: str = "policy") -> Policy:
    return _build(Policy, section, path, _kind_table(section, path, _POLICY, "policy"))


@dataclass(frozen=True)
class MarketConfig:
    price_per_kg: float
    accounts: tuple[DataCenterAccount, ...]

    def __post_init__(self):
        if self.price_per_kg < 0.0:
            raise InvalidScenario(f"price_per_kg must be >= 0, got {self.price_per_kg}")


# The top-level sections, parsed in this order; an absent one is None.
_DOCUMENT = {
    "demand": (parse_demand, None),
    "stats": (lambda value, path: _section(value, path, _STATS), None),
    "rates": (lambda value, path: _build(CostRates, value, path, _RATES), None),
    "policy": (parse_policy, None),
    "simulation": (lambda value, path: _section(value, path, _SIMULATION), None),
    "market": (lambda value, path: _build(MarketConfig, value, path, _MARKET), None),
}


@dataclass(frozen=True)
class ParsedConfig:
    """All sections a document carried, each under its section name (absent
    ones are None); ``stats_spec`` and ``simulation`` hold their section's
    values by key, and ``stats()`` turns the former into DemandStats."""

    demand: DemandProfile | None
    stats_spec: dict | None
    rates: CostRates | None
    policy: Policy | None
    simulation: dict | None
    market: MarketConfig | None

    def stats(self) -> DemandStats:
        """The stats section as DemandStats. A mean or max it leaves out is
        derived from the demand profile: of min(demand, r_agreed) when
        simulation.clamp_demand_to_agreed is set."""
        spec = self.stats_spec
        if spec is None:
            raise _missing("stats")
        mean, peak, agreed = spec["mean_demand"], spec["max_demand"], spec["r_agreed"]
        profile = self.demand
        if profile is None and (mean is None or peak is None):
            full = "stats.mean_demand" if mean is None else "stats.max_demand"
            raise ConfigError(f"missing key: {full} (no demand section to derive it from)", full)
        # a nonpositive r_agreed clamps nothing: DemandStats reports it
        clamp = bool(self.simulation and self.simulation["clamp_demand_to_agreed"]) and agreed > 0.0
        if mean is None:
            try:
                mean = profile.clamped_mean(agreed) if clamp else profile.mean()
            except ValueError as exc:
                raise _invalid("demand", exc) from exc
        if peak is None:
            try:
                peak = profile.max_estimate(spec["max_method"], q=spec["quantile"])
            except ValueError as exc:
                raise _invalid("stats.max_method", exc) from exc
            if clamp:
                peak = min(peak, agreed)
        try:
            return DemandStats(mean_demand=mean, max_demand=peak, r_agreed=agreed)
        except ValueError as exc:
            raise _invalid("stats", exc) from exc

    def require(self, section: str):
        """A section other than stats; ConfigError if the document lacks it."""
        value = getattr(self, section)
        if value is None:
            raise _missing(section)
        return value


def parse_document(document) -> ParsedConfig:
    sections = _section(document, "", _DOCUMENT)
    return ParsedConfig(stats_spec=sections.pop("stats"), **sections)


def load_config(path: str) -> ParsedConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = yaml.load(handle, Loader=_StrictLoader)
    except OSError as exc:
        raise ConfigError(str(exc), "") from exc
    except yaml.YAMLError as exc:
        # PyYAML's message spans lines; the error is printed on one
        message = " ".join(str(exc).split())
        raise ConfigError(f"invalid value at config: not parseable ({message})", "") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"invalid value at config: not UTF-8 ({exc})", "") from exc
    except RecursionError as exc:
        # PyYAML composes a node per nesting level, recursively
        raise ConfigError("invalid value at config: nested too deeply", "") from exc
    if document is None:
        raise ConfigError("invalid value at config: empty document", "")
    return parse_document(document)


def build_scenario(
    parsed: ParsedConfig,
    seed_override: int | None = None,
    steps_override: int | None = None,
) -> Scenario:
    """Assemble a Scenario; seed precedence is CLI flag over config."""
    profile = parsed.require("demand")
    rates = parsed.require("rates")
    policy = parsed.require("policy")
    sim = dict(parsed.require("simulation"))
    stats = parsed.stats()
    if seed_override is not None:
        sim["seed"] = seed_override
    if sim["seed"] is None:
        raise ConfigError("missing key: simulation.seed (set it or pass --seed)", "simulation.seed")
    if steps_override is not None:
        sim["steps"] = steps_override
    try:
        return Scenario(profile=profile, stats=stats, rates=rates, policy=policy, **sim)
    except ValueError as exc:
        raise _invalid("simulation", exc) from exc


def profile_to_dict(profile: DemandProfile) -> dict:
    """The demand section of a profile; an absent lognormal upper and an
    empty resource_unit are left out."""
    out = {}
    for key in _DEMAND[profile.kind]:
        value = getattr(profile, key)
        if value is not None and value != "":
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def scenario_to_dict(scenario: Scenario) -> dict:
    """Effective scenario as a config-shaped mapping (the report echo)."""
    policy = scenario.policy
    return {
        "demand": profile_to_dict(scenario.profile),
        "stats": dataclasses.asdict(scenario.stats),
        "rates": dataclasses.asdict(scenario.rates),
        "policy": {key: getattr(policy, key) for key in _POLICY[policy.kind]},
        "simulation": {key: getattr(scenario, key) for key in _SIMULATION},
    }


def scenario_from_dict(document: dict) -> Scenario:
    """Inverse of scenario_to_dict, through the same strict parsers."""
    return build_scenario(parse_document(document))
