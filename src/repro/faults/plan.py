"""Declarative, seeded fault plans.

A :class:`FaultPlan` describes *which* failures to inject and *where*,
as plain data: it round-trips through JSON so the same chaos scenario
can live in a test, on the command line, or in the ``REPRO_FAULTS``
environment variable (which is how worker processes forked by the
parallel executor inherit the plan).  Injection itself — matching,
occurrence counting, and the actual raise/sleep/exit/corrupt effects —
lives in :mod:`repro.faults.runtime`.

Determinism: rules fire on the first ``times`` matching occurrences at
their site (per process), and probabilistic rules (``rate``) hash the
plan seed with the site, key, and occurrence index, so the same plan
against the same sweep injects the same faults every run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Optional, Sequence

#: Environment variable carrying a fault plan into every process that
#: imports the injection hooks (the chaos opt-in).  The value is either
#: inline JSON (starts with ``{``) or a path to a JSON file.
FAULTS_ENV = "REPRO_FAULTS"

#: Recognised fault kinds (the effect a firing rule has).
KINDS = ("transient", "hang", "crash", "corrupt", "torn")

#: Recognised injection sites (where hooks call into the harness).
SITES = ("cell", "cas.read", "cas.write")


class FaultPlanError(ValueError):
    """Raised for malformed fault plans (unknown kinds/sites/shapes)."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule.

    ``kind`` is the effect; ``site`` the hook it applies to; ``match``
    a substring filter on the site key (cell keys look like
    ``"<workload>:<label>"``, CAS keys are digests/ref names; ``""``
    matches everything).  The rule fires on the first ``times`` matching
    occurrences (``None`` = every occurrence); an optional ``rate`` in
    (0, 1] additionally gates each firing on a deterministic hash of the
    plan seed.  ``seconds`` is the sleep length of a ``hang``.
    """

    kind: str
    site: str = "cell"
    match: str = ""
    times: Optional[int] = 1
    rate: Optional[float] = None
    seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind '{self.kind}'; available: {KINDS}"
            )
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site '{self.site}'; available: {SITES}"
            )
        if self.times is not None and self.times < 1:
            raise FaultPlanError(
                f"times must be >= 1 or null (always), got {self.times}"
            )
        if self.rate is not None and not (0.0 < self.rate <= 1.0):
            raise FaultPlanError(
                f"rate must be in (0, 1], got {self.rate}"
            )
        if self.seconds < 0:
            raise FaultPlanError(
                f"seconds must be >= 0, got {self.seconds}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded list of :class:`FaultRule`, JSON round-trippable."""

    rules: Sequence[FaultRule] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rules": [asdict(rule) for rule in self.rules],
            },
            sort_keys=True,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", "rules"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan keys: {sorted(unknown)}"
            )
        rules = []
        for entry in data.get("rules", ()):
            if not isinstance(entry, Mapping):
                raise FaultPlanError(
                    f"fault rule must be a JSON object, got {entry!r}"
                )
            try:
                rules.append(FaultRule(**dict(entry)))
            except TypeError as exc:
                raise FaultPlanError(f"bad fault rule {entry!r}: {exc}") \
                    from None
        return cls(rules=rules, seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(f"invalid fault plan JSON: {exc}") \
                from None
        return cls.from_dict(data)

    def fraction(self, rule_index: int, site: str, key: str,
                 occurrence: int) -> float:
        """Deterministic pseudo-random fraction in [0, 1) for ``rate``
        gating: same plan + same sweep => same firing pattern."""
        digest = hashlib.sha256(
            f"{self.seed}:{rule_index}:{site}:{key}:{occurrence}"
            .encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64


def plan_from_env(environ: Optional[Mapping[str, str]] = None,
                  ) -> Optional[FaultPlan]:
    """The plan named by ``$REPRO_FAULTS``, or None when unset.

    Inline JSON and file paths are both accepted; a malformed value is
    an error (silently ignoring a chaos request would un-test exactly
    what the harness exists to test).
    """
    raw = (environ if environ is not None else os.environ).get(
        FAULTS_ENV, ""
    )
    if not raw:
        return None
    if not raw.lstrip().startswith("{"):
        with open(raw, "r", encoding="utf-8") as handle:
            raw = handle.read()
    return FaultPlan.from_json(raw)
