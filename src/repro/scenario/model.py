"""The :class:`Scenario` contract — one validated description of one run.

A scenario unifies the four things every experiment needs — the simulated
system (:class:`~repro.scenario.system.SystemSpec`), the workload
(:class:`~repro.scenario.workload.WorkloadSpec`), the scheme list, and the
run sizing (:class:`~repro.experiments.runner.RunPlan`) — into a single
frozen, serializable value object:

* **Validation-first.**  Construction (and therefore every load) performs
  the full cross-field check: scheme names against the factory registry,
  the resolved geometry's power-of-two constraints, SNUG's Stage I/II epoch
  ratio, per-mix program counts against ``num_cores``, CC probability
  granularity.  Malformed scenarios fail upfront with a
  :class:`~repro.common.errors.ConfigError` carrying the dotted field path.
* **Serializable.**  ``to_dict``/``from_dict`` plus YAML/JSON text and file
  round-trips (``dumps``/``loads``, ``dump``/``load``); unknown keys are
  rejected at every nesting level.
* **Content-hashed.**  :meth:`Scenario.content_hash` digests the *resolved*
  run inputs (full config, concrete mix list, normalized schemes, plan) —
  two scenarios that would simulate the same thing hash identically, however
  they were spelled.  The engine stamps this hash into the result-store
  manifest for provenance and resume safety.

Schema reference: ``docs/scenarios.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from ..common.config import SystemConfig
from ..common.errors import ConfigError
from ..experiments.runner import DEFAULT_SCHEMES, SIM_CORES, RunPlan, normalize_schemes
from ..schemes.factory import SCHEMES
from ..workloads.mixes import WorkloadMix
from .serde import (
    as_bool,
    as_float,
    as_int,
    as_str,
    as_str_list,
    canonical_json,
    detect_format,
    dump_text,
    parse_text,
    reject_unknown,
    require_mapping,
    take,
)
from .system import SystemSpec
from .workload import WorkloadSpec

__all__ = ["Scenario", "SCHEMA_VERSION", "plan_to_dict", "plan_from_dict"]

#: Bumped when the scenario file schema changes incompatibly.
SCHEMA_VERSION = 1

#: Versioned namespace of the content hash (bumped with hash semantics).
_HASH_VERSION = 1

#: Scenario names become store subdirectories and dump file names, so they
#: are restricted to file-safe characters ('=' and ',' admit grid suffixes).
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._,=-]*\Z")


# -- RunPlan serde ----------------------------------------------------------

_PLAN_KEYS = (
    "n_accesses",
    "target_instructions",
    "warmup_instructions",
    "seed",
    "cc_probs",
    "snug_monitor",
    "sim_core",
    "max_events",
)


def plan_to_dict(plan: RunPlan) -> Dict[str, Any]:
    """A :class:`RunPlan` as the JSON-native ``plan:`` mapping.

    ``sim_core``/``max_events`` are emitted only when set away from their
    defaults, so plan dicts (and scenario dumps) written before those knobs
    existed remain byte-for-byte reproducible.
    """
    out = {
        "n_accesses": plan.n_accesses,
        "target_instructions": plan.target_instructions,
        "warmup_instructions": plan.warmup_instructions,
        "seed": plan.seed,
        "cc_probs": [float(p) for p in plan.cc_probs],
        "snug_monitor": bool(plan.snug_monitor),
    }
    if plan.sim_core != "auto":
        out["sim_core"] = plan.sim_core
    if plan.max_events is not None:
        out["max_events"] = plan.max_events
    return out


def plan_from_dict(data: Mapping, path: str = "plan") -> RunPlan:
    """Parse and validate the ``plan:`` section (pathed errors)."""
    require_mapping(data, path)
    reject_unknown(data, _PLAN_KEYS, path)
    defaults = RunPlan()
    probs_raw = take(data, "cc_probs", path, list(defaults.cc_probs))
    if not isinstance(probs_raw, (list, tuple)):
        raise ConfigError(f"{path}.cc_probs: expected a list of probabilities")
    probs = tuple(
        as_float(p, f"{path}.cc_probs[{i}]") for i, p in enumerate(probs_raw)
    )
    for i, p in enumerate(probs):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"{path}.cc_probs[{i}]: must be in [0, 1], got {p}")
    # Task ids encode the probability at whole-percent granularity; two probs
    # that round together would collide in the result store.
    rounded = [int(round(p * 100)) for p in probs]
    if len(set(rounded)) != len(rounded):
        raise ConfigError(
            f"{path}.cc_probs: probabilities must be distinct at 1% "
            "granularity (task ids round to whole percent)"
        )
    sim_core = as_str(take(data, "sim_core", path, defaults.sim_core), f"{path}.sim_core")
    if sim_core not in SIM_CORES:
        raise ConfigError(
            f"{path}.sim_core: must be one of {', '.join(SIM_CORES)}, got {sim_core!r}"
        )
    max_events_raw = take(data, "max_events", path, defaults.max_events)
    max_events = (
        None
        if max_events_raw is None
        else as_int(max_events_raw, f"{path}.max_events", minimum=1)
    )
    try:
        return RunPlan(
            n_accesses=as_int(
                take(data, "n_accesses", path, defaults.n_accesses),
                f"{path}.n_accesses", minimum=1,
            ),
            target_instructions=as_int(
                take(data, "target_instructions", path, defaults.target_instructions),
                f"{path}.target_instructions", minimum=1,
            ),
            warmup_instructions=as_int(
                take(data, "warmup_instructions", path, defaults.warmup_instructions),
                f"{path}.warmup_instructions", minimum=0,
            ),
            seed=as_int(take(data, "seed", path, defaults.seed), f"{path}.seed"),
            cc_probs=probs,
            snug_monitor=as_bool(
                take(data, "snug_monitor", path, defaults.snug_monitor),
                f"{path}.snug_monitor",
            ),
            sim_core=sim_core,
            max_events=max_events,
        )
    except ValueError as exc:  # RunPlan's own __post_init__
        raise ConfigError(f"{path}: {exc}") from None


# -- the contract -----------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One complete, validated experiment description."""

    name: str
    workload: WorkloadSpec
    system: SystemSpec = field(default_factory=SystemSpec)
    schemes: Tuple[str, ...] = DEFAULT_SCHEMES
    plan: RunPlan = field(default_factory=RunPlan)
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(self.schemes))
        self._validate()

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ConfigError(
                f"name: {self.name!r} must be a file-safe identifier "
                "(letters, digits, '.', '_', '-', ',', '=')"
            )
        known = set(SCHEMES) | {"cc_best"}
        for i, scheme in enumerate(self.schemes):
            if scheme not in known:
                raise ConfigError(
                    f"schemes[{i}]: unknown scheme {scheme!r}; "
                    f"known: {', '.join(sorted(known))}"
                )
        if not self.schemes:
            raise ConfigError("schemes: at least one scheme is required")
        if "cc_best" in self.schemes and not self.plan.cc_probs:
            raise ConfigError(
                "plan.cc_probs: cc_best is requested but the CC probability "
                "sweep is empty"
            )
        config = self.build_config()
        if config.snug.identify_cycles > config.snug.group_cycles:
            raise ConfigError(
                "system.snug: identify_cycles (Stage I) must not exceed "
                "group_cycles (Stage II) — the paper's epochs are 5M vs 100M "
                f"cycles, got {config.snug.identify_cycles} vs "
                f"{config.snug.group_cycles}"
            )
        for mix in self.build_mixes():
            if len(mix.programs) != config.num_cores:
                raise ConfigError(
                    f"workload: mix {mix.mix_id!r} schedules "
                    f"{len(mix.programs)} program(s) but system.num_cores is "
                    f"{config.num_cores}"
                )

    # -- resolution --------------------------------------------------------

    def build_config(self) -> SystemConfig:
        """The fully-resolved frozen system configuration.

        Memoized on the instance (validation, hashing and execution all
        resolve; the spec is frozen, so one resolution serves them all).
        """
        cached = self.__dict__.get("_config_memo")
        if cached is None:
            cached = self.system.build()
            object.__setattr__(self, "_config_memo", cached)
        return cached

    def build_mixes(self) -> List[WorkloadMix]:
        """The concrete workload mixes, in declaration order (memoized —
        generated-mix draws are deterministic, so resolving once is both a
        correctness statement and a saving)."""
        cached = self.__dict__.get("_mixes_memo")
        if cached is None:
            try:
                cached = tuple(self.workload.resolve())
            except ConfigError as exc:
                msg = str(exc)
                raise ConfigError(
                    msg if msg.startswith("workload") else f"workload: {msg}"
                ) from None
            object.__setattr__(self, "_mixes_memo", cached)
        return list(cached)

    # -- provenance --------------------------------------------------------

    def content_hash(self) -> str:
        """SHA-256 over the *resolved* run inputs (hex digest).

        Hashes what the engine actually consumes — full config, concrete mix
        list, normalized scheme order, plan — not the declarative spelling,
        so ``scale: tiny`` and the equivalent explicit overrides coincide,
        as do a registered mix id and its expanded program list.  ``name``
        and ``description`` are cosmetic and excluded.
        """
        # The stepping loop (plan.sim_core) is held bit-identical across
        # cores by the conformance suites, so it cannot change what a
        # scenario simulates — two runs differing only in sim_core must
        # hash (and therefore store) identically.
        plan_payload = plan_to_dict(self.plan)
        plan_payload.pop("sim_core", None)
        payload = {
            "hash_version": _HASH_VERSION,
            "config": dataclasses.asdict(self.build_config()),
            "mixes": [
                {
                    "mix_id": m.mix_id,
                    "mix_class": m.mix_class,
                    "programs": list(m.programs),
                }
                for m in self.build_mixes()
            ],
            "schemes": normalize_schemes(list(self.schemes)),
            "plan": plan_payload,
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    # -- serde -------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"scenario": SCHEMA_VERSION, "name": self.name}
        if self.description:
            out["description"] = self.description
        out["system"] = self.system.to_dict()
        out["workload"] = self.workload.to_dict()
        out["schemes"] = list(self.schemes)
        out["plan"] = plan_to_dict(self.plan)
        return out

    @classmethod
    def from_dict(cls, data: Mapping, path: str = "scenario") -> "Scenario":
        require_mapping(data, path)
        reject_unknown(
            data,
            ("scenario", "name", "description", "system", "workload", "schemes", "plan"),
            path,
        )
        version = as_int(take(data, "scenario", path), f"{path}.scenario")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"{path}.scenario: unsupported schema version {version} "
                f"(this toolkit reads version {SCHEMA_VERSION})"
            )
        name = as_str(take(data, "name", path), f"{path}.name")
        description = take(data, "description", path, "")
        if not isinstance(description, str):
            raise ConfigError(f"{path}.description: expected a string")
        system = SystemSpec.from_dict(
            take(data, "system", path, {}), f"{path}.system" if path != "scenario" else "system"
        )
        workload = WorkloadSpec.from_dict(
            take(data, "workload", path),
            f"{path}.workload" if path != "scenario" else "workload",
        )
        schemes = as_str_list(
            take(data, "schemes", path, list(DEFAULT_SCHEMES)),
            f"{path}.schemes" if path != "scenario" else "schemes",
        )
        plan = plan_from_dict(
            take(data, "plan", path, {}),
            f"{path}.plan" if path != "scenario" else "plan",
        )
        return cls(
            name=name,
            description=description,
            system=system,
            workload=workload,
            schemes=tuple(schemes),
            plan=plan,
        )

    # -- text / file round-trips -------------------------------------------

    def dumps(self, fmt: str = "yaml") -> str:
        """Serialize to YAML (default) or JSON text."""
        return dump_text(self.to_dict(), fmt)

    @classmethod
    def loads(cls, text: str, fmt: str = "yaml") -> "Scenario":
        return cls.from_dict(parse_text(text, fmt))

    def dump(self, path: str | os.PathLike) -> None:
        """Write to *path*; the extension picks the format (.json else YAML)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps(detect_format(path)))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Scenario":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
        return cls.loads(text, detect_format(path))
