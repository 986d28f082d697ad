"""Strict YAML scenario configs and the scenario echo round trip.

A config document holds up to six top-level sections (demand, stats,
rates, policy, simulation, market) mapping one-to-one onto the library's
domain types. Parsing is strict: unknown keys anywhere raise ConfigError
with the offending key path, numbers must be decimal reals (bools are not
numbers), and seeds must fit in an unsigned 64-bit integer.

Reports echo their effective scenario through scenario_to_dict; feeding
that dict back through scenario_from_dict reconstructs an equal Scenario,
which is the provenance contract the CLI tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import yaml

from .balance import CostRates, DemandStats
from .demand import (
    DEFAULT_QUANTILE,
    EMPIRICAL,
    FAMILIES,
    LOGNORMAL,
    MEAN_PLUS_VARIANCE,
    QUANTILE,
    TRUE_UPPER_BOUND,
    TRUNCATED_NORMAL,
    UNIFORM,
    DemandProfile,
    make_profile,
)
from .errors import ConfigError
from .market import DataCenterAccount
from .simulate import (
    BALANCE_BAND,
    FIXED_LEVEL,
    POLICY_KINDS,
    Policy,
    Scenario,
)

TOP_LEVEL_SECTIONS = ("demand", "stats", "rates", "policy", "simulation", "market")

MAX_METHODS = (MEAN_PLUS_VARIANCE, TRUE_UPPER_BOUND, QUANTILE)

_DEMAND_KEYS = {
    UNIFORM: {"kind", "lower", "upper", "resource_unit"},
    TRUNCATED_NORMAL: {"kind", "mu", "sigma", "lower", "upper", "resource_unit"},
    LOGNORMAL: {"kind", "mu_log", "sigma_log", "upper", "resource_unit"},
    EMPIRICAL: {"kind", "values", "resource_unit"},
}

_POLICY_KEYS = {
    BALANCE_BAND: {"kind", "x_percent"},
    FIXED_LEVEL: {"kind", "level"},
}


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
                full = f"{path}.{key}" if path else str(key)
                if not merge:
                    if key in seen:
                        raise ConfigError(f"duplicate key: {full}", full)
                    seen.add(key)
                self._check_unique_keys(value_node, full, visited)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                self._check_unique_keys(item, f"{path}[{i}]", visited)


def _as_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"invalid value at {path}: expected a mapping", path)
    for key in value:
        if not isinstance(key, str):
            raise ConfigError(f"invalid value at {path}: non-string key {key!r}", path)
    return value


def _check_keys(mapping: dict, allowed, path: str):
    for key in mapping:
        if key not in allowed:
            full = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key: {full}", full)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        full = f"{path}.{key}" if path else key
        raise ConfigError(f"missing key: {full}", full)
    return mapping[key]


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"invalid value at {path}: expected a real number", path)
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"invalid value at {path}: must be finite", path)
    return out


def _get_real(mapping: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in mapping:
        if default is not None:
            return default
        return _require(mapping, key, path)
    return _real(mapping[key], f"{path}.{key}")


def _get_int(mapping: dict, key: str, path: str) -> int:
    value = _require(mapping, key, path)
    full = f"{path}.{key}"
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"invalid value at {full}: expected an integer", full)
    return value


def _get_u64(mapping: dict, key: str, path: str) -> int:
    value = _get_int(mapping, key, path)
    if not 0 <= value < 2**64:
        full = f"{path}.{key}"
        raise ConfigError(
            f"invalid value at {full}: seed must be an unsigned 64-bit integer", full
        )
    return value


def _get_bool(mapping: dict, key: str, path: str, default: bool) -> bool:
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, bool):
        full = f"{path}.{key}"
        raise ConfigError(f"invalid value at {full}: expected true/false", full)
    return value


def _get_str(mapping: dict, key: str, path: str, default: str | None = None) -> str:
    if key not in mapping and default is not None:
        return default
    value = _require(mapping, key, path)
    if not isinstance(value, str):
        full = f"{path}.{key}"
        raise ConfigError(f"invalid value at {full}: expected a string", full)
    return value


def parse_demand(section, path: str = "demand") -> DemandProfile:
    mapping = _as_map(section, path)
    kind = _get_str(mapping, "kind", path)
    if kind not in FAMILIES:
        full = f"{path}.kind"
        raise ConfigError(
            f"invalid value at {full}: unknown family {kind!r} "
            f"(expected one of {', '.join(FAMILIES)})",
            full,
        )
    _check_keys(mapping, _DEMAND_KEYS[kind], path)
    unit = _get_str(mapping, "resource_unit", path, default="")
    try:
        if kind == UNIFORM:
            params = [_get_real(mapping, "lower", path), _get_real(mapping, "upper", path)]
        elif kind == TRUNCATED_NORMAL:
            params = [_get_real(mapping, "mu", path), _get_real(mapping, "sigma", path)]
            if "lower" in mapping:
                params.append(_get_real(mapping, "lower", path))
            params.append(_get_real(mapping, "upper", path))
        elif kind == LOGNORMAL:
            params = [
                _get_real(mapping, "mu_log", path),
                _get_real(mapping, "sigma_log", path),
            ]
            if "upper" in mapping:
                params.append(_get_real(mapping, "upper", path))
        else:
            raw = _require(mapping, "values", path)
            full = f"{path}.values"
            if not isinstance(raw, list):
                raise ConfigError(f"invalid value at {full}: expected a list", full)
            params = [_real(v, f"{full}[{i}]") for i, v in enumerate(raw)]
        return make_profile(kind, params, resource_unit=unit)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid value at {path}: {exc}", path) from exc


@dataclass(frozen=True)
class StatsSpec:
    """Raw stats section; mean/max may be deferred to the demand profile."""

    r_agreed: float
    mean_demand: float | None
    max_demand: float | None
    max_method: str
    quantile: float


def parse_stats(section, path: str = "stats") -> StatsSpec:
    mapping = _as_map(section, path)
    _check_keys(
        mapping,
        {"r_agreed", "mean_demand", "max_demand", "max_method", "quantile"},
        path,
    )
    method = _get_str(mapping, "max_method", path, default="")
    if method and method not in MAX_METHODS:
        full = f"{path}.max_method"
        raise ConfigError(
            f"invalid value at {full}: expected one of {', '.join(MAX_METHODS)}", full
        )
    return StatsSpec(
        r_agreed=_get_real(mapping, "r_agreed", path),
        mean_demand=_get_real(mapping, "mean_demand", path) if "mean_demand" in mapping else None,
        max_demand=_get_real(mapping, "max_demand", path) if "max_demand" in mapping else None,
        max_method=method,
        quantile=_get_real(mapping, "quantile", path, default=DEFAULT_QUANTILE),
    )


def resolve_stats(spec: StatsSpec, profile: DemandProfile | None, path: str = "stats") -> DemandStats:
    """Fill deferred mean/max from the profile and build DemandStats."""
    mean = spec.mean_demand
    peak = spec.max_demand
    if mean is None or peak is None:
        if profile is None:
            missing = "mean_demand" if mean is None else "max_demand"
            full = f"{path}.{missing}"
            raise ConfigError(
                f"missing key: {full} (no demand section to derive it from)", full
            )
        if mean is None:
            try:
                mean = profile.mean()
            except ValueError as exc:
                raise ConfigError(f"invalid value at demand: {exc}", "demand") from exc
        if peak is None:
            try:
                if spec.max_method:
                    peak = profile.max_estimate(spec.max_method, q=spec.quantile)
                else:
                    peak = profile.max_estimate(q=spec.quantile)
            except ValueError as exc:
                full = f"{path}.max_method"
                raise ConfigError(f"invalid value at {full}: {exc}", full) from exc
    try:
        return DemandStats(mean_demand=mean, max_demand=peak, r_agreed=spec.r_agreed)
    except ValueError as exc:
        raise ConfigError(f"invalid value at {path}: {exc}", path) from exc


def parse_rates(section, path: str = "rates") -> CostRates:
    mapping = _as_map(section, path)
    _check_keys(mapping, {"c_en", "c_co2", "c_viol", "satisfaction"}, path)
    try:
        return CostRates(
            c_en=_get_real(mapping, "c_en", path),
            c_co2=_get_real(mapping, "c_co2", path),
            c_viol=_get_real(mapping, "c_viol", path),
            satisfaction=_get_real(mapping, "satisfaction", path, default=0.0),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid value at {path}: {exc}", path) from exc


def parse_policy(section, path: str = "policy") -> Policy:
    mapping = _as_map(section, path)
    kind = _get_str(mapping, "kind", path)
    if kind not in POLICY_KINDS:
        full = f"{path}.kind"
        raise ConfigError(
            f"invalid value at {full}: unknown policy {kind!r} "
            f"(expected one of {', '.join(POLICY_KINDS)})",
            full,
        )
    _check_keys(mapping, _POLICY_KEYS.get(kind, {"kind"}), path)
    try:
        if kind == BALANCE_BAND:
            return Policy.balance_band(_get_real(mapping, "x_percent", path))
        if kind == FIXED_LEVEL:
            return Policy.fixed_level(_get_real(mapping, "level", path))
        return Policy(kind)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid value at {path}: {exc}", path) from exc


@dataclass(frozen=True)
class SimSettings:
    """Raw simulation section; seed may come from the CLI instead."""

    steps: int
    replications: int
    energy_full: float
    carbon_intensity: float
    seed: int | None
    clamp_demand_to_agreed: bool


def parse_simulation(section, path: str = "simulation") -> SimSettings:
    mapping = _as_map(section, path)
    _check_keys(
        mapping,
        {
            "steps",
            "replications",
            "energy_full",
            "carbon_intensity",
            "seed",
            "clamp_demand_to_agreed",
        },
        path,
    )
    return SimSettings(
        steps=_get_int(mapping, "steps", path),
        replications=_get_int(mapping, "replications", path),
        energy_full=_get_real(mapping, "energy_full", path),
        carbon_intensity=_get_real(mapping, "carbon_intensity", path),
        seed=_get_u64(mapping, "seed", path) if "seed" in mapping else None,
        clamp_demand_to_agreed=_get_bool(mapping, "clamp_demand_to_agreed", path, False),
    )


@dataclass(frozen=True)
class MarketConfig:
    price_per_kg: float
    accounts: tuple[DataCenterAccount, ...]


def parse_market(section, path: str = "market") -> MarketConfig:
    mapping = _as_map(section, path)
    _check_keys(mapping, {"price_per_kg", "accounts"}, path)
    price = _get_real(mapping, "price_per_kg", path)
    raw = _require(mapping, "accounts", path)
    full = f"{path}.accounts"
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"invalid value at {full}: expected a nonempty list", full)
    accounts = []
    for i, entry in enumerate(raw):
        entry_path = f"{full}[{i}]"
        emap = _as_map(entry, entry_path)
        _check_keys(emap, {"name", "cap_kg", "emissions_kg"}, entry_path)
        try:
            accounts.append(
                DataCenterAccount(
                    name=_get_str(emap, "name", entry_path),
                    cap_kg=_get_real(emap, "cap_kg", entry_path),
                    emissions_kg=_get_real(emap, "emissions_kg", entry_path),
                )
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid value at {entry_path}: {exc}", entry_path) from exc
    return MarketConfig(price_per_kg=price, accounts=tuple(accounts))


@dataclass(frozen=True)
class ParsedConfig:
    """All sections a document carried; absent ones are None."""

    profile: DemandProfile | None
    stats_spec: StatsSpec | None
    rates: CostRates | None
    policy: Policy | None
    sim: SimSettings | None
    market: MarketConfig | None

    def stats(self) -> DemandStats:
        if self.stats_spec is None:
            raise ConfigError("missing key: stats", "stats")
        return resolve_stats(self.stats_spec, self.profile)

    def require(self, section: str):
        value = getattr(
            self, {"demand": "profile", "stats": "stats_spec", "simulation": "sim"}.get(section, section)
        )
        if value is None:
            raise ConfigError(f"missing key: {section}", section)
        return value


def parse_document(document) -> ParsedConfig:
    mapping = _as_map(document, "config")
    _check_keys(mapping, TOP_LEVEL_SECTIONS, "")
    return ParsedConfig(
        profile=parse_demand(mapping["demand"]) if "demand" in mapping else None,
        stats_spec=parse_stats(mapping["stats"]) if "stats" in mapping else None,
        rates=parse_rates(mapping["rates"]) if "rates" in mapping else None,
        policy=parse_policy(mapping["policy"]) if "policy" in mapping else None,
        sim=parse_simulation(mapping["simulation"]) if "simulation" in mapping else None,
        market=parse_market(mapping["market"]) if "market" in mapping else None,
    )


def load_config(path: str) -> ParsedConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = yaml.load(handle, Loader=_StrictLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid value at config: not parseable ({exc})", "") from exc
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
    sim = parsed.require("simulation")
    stats = parsed.stats()
    seed = seed_override if seed_override is not None else sim.seed
    if seed is None:
        raise ConfigError(
            "missing key: simulation.seed (set it or pass --seed)", "simulation.seed"
        )
    steps = steps_override if steps_override is not None else sim.steps
    try:
        return Scenario(
            profile=profile,
            stats=stats,
            rates=rates,
            policy=policy,
            steps=steps,
            replications=sim.replications,
            seed=seed,
            energy_full=sim.energy_full,
            carbon_intensity=sim.carbon_intensity,
            clamp_demand_to_agreed=sim.clamp_demand_to_agreed,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid value at simulation: {exc}", "simulation") from exc


def profile_to_dict(profile: DemandProfile) -> dict:
    out: dict[str, object] = {"kind": profile.kind}
    if profile.kind == UNIFORM:
        out["lower"] = profile.lower
        out["upper"] = profile.upper
    elif profile.kind == TRUNCATED_NORMAL:
        out["mu"] = profile.mu
        out["sigma"] = profile.sigma
        out["lower"] = profile.lower
        out["upper"] = profile.upper
    elif profile.kind == LOGNORMAL:
        out["mu_log"] = profile.mu_log
        out["sigma_log"] = profile.sigma_log
        if profile.upper is not None:
            out["upper"] = profile.upper
    else:
        out["values"] = list(profile.values)
    if profile.resource_unit:
        out["resource_unit"] = profile.resource_unit
    return out


def policy_to_dict(policy: Policy) -> dict:
    out: dict[str, object] = {"kind": policy.kind}
    if policy.kind == BALANCE_BAND:
        out["x_percent"] = policy.x_percent
    elif policy.kind == FIXED_LEVEL:
        out["level"] = policy.level
    return out


def stats_to_dict(stats: DemandStats) -> dict:
    return {
        "mean_demand": stats.mean_demand,
        "max_demand": stats.max_demand,
        "r_agreed": stats.r_agreed,
    }


def rates_to_dict(rates: CostRates) -> dict:
    return {
        "c_en": rates.c_en,
        "c_co2": rates.c_co2,
        "c_viol": rates.c_viol,
        "satisfaction": rates.satisfaction,
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    """Effective scenario as a config-shaped mapping (the report echo)."""
    return {
        "demand": profile_to_dict(scenario.profile),
        "stats": stats_to_dict(scenario.stats),
        "rates": rates_to_dict(scenario.rates),
        "policy": policy_to_dict(scenario.policy),
        "simulation": {
            "steps": scenario.steps,
            "replications": scenario.replications,
            "seed": scenario.seed,
            "energy_full": scenario.energy_full,
            "carbon_intensity": scenario.carbon_intensity,
            "clamp_demand_to_agreed": scenario.clamp_demand_to_agreed,
        },
    }


def scenario_from_dict(document: dict) -> Scenario:
    """Inverse of scenario_to_dict, through the same strict parsers."""
    parsed = parse_document(document)
    return build_scenario(parsed)
