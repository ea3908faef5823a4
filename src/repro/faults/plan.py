"""Composable, seeded fault-injection plans.

A :class:`FaultPlan` maps dataset names to :class:`~repro.faults.injectors.Injector`
instances and applies them *deterministically*: the RNG for every
application is derived from ``sha256(seed, dataset, injector index,
context)``, so the same plan and seed always produce byte-identical
corrupted output — across runs, machines, and thread schedules.

A plan can be pointed at two surfaces:

* **Raw bytes** — :meth:`FaultPlan.corrupt` (tests, the ingestion drill).
* **Live builds** — :meth:`FaultPlan.gate` round-trips a freshly built
  dataset through its pickled wire bytes, corrupts them, and re-parses;
  a corruption the codec cannot survive surfaces as
  :class:`InjectedCorruptionError`, which the Scenario build machinery
  degrades on (see ``docs/RELIABILITY.md``).

Every application is logged into :attr:`FaultPlan.injections` so the
chaos report can state exactly what was damaged and how.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import threading
from dataclasses import dataclass
from typing import Iterable

from repro.faults.injectors import Injector, injector_by_name
from repro.obs import get_registry


class InjectedCorruptionError(RuntimeError):
    """A fault-gated dataset build produced unparseable bytes."""

    def __init__(self, dataset: str, injector: str, detail: str):
        self.dataset = dataset
        self.injector = injector
        super().__init__(
            f"injected corruption in dataset {dataset!r} ({injector}): {detail}"
        )


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One (dataset, injector) pairing inside a plan."""

    dataset: str
    injector: Injector

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a CLI spec: ``dataset`` or ``dataset:injector``.

        Raises:
            ValueError: on an unknown injector name or empty dataset.
        """
        dataset, _, injector_name = text.partition(":")
        dataset = dataset.strip()
        if not dataset:
            raise ValueError(f"bad fault spec {text!r}: empty dataset")
        injector = injector_by_name(injector_name.strip() or "truncate")
        return cls(dataset, injector)


@dataclass(frozen=True, slots=True)
class InjectionRecord:
    """One logged injector application (deterministic, no wall clock)."""

    dataset: str
    injector: str
    context: str
    bytes_before: int
    bytes_after: int
    sha256_before: str
    sha256_after: str

    def to_dict(self) -> dict[str, object]:
        return {
            "dataset": self.dataset,
            "injector": self.injector,
            "context": self.context,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "sha256_before": self.sha256_before,
            "sha256_after": self.sha256_after,
        }


class FaultPlan:
    """A seeded set of dataset corruptions, applied on demand."""

    def __init__(self, seed: int = 0, specs: Iterable[FaultSpec] = ()):
        self.seed = seed
        self.specs = tuple(specs)
        self.injections: list[InjectionRecord] = []
        self._log_lock = threading.Lock()

    # -- construction --------------------------------------------------------

    @classmethod
    def single(
        cls, dataset: str, injector: Injector | str = "truncate", seed: int = 0
    ) -> "FaultPlan":
        """A plan corrupting exactly one dataset (the common test shape)."""
        if isinstance(injector, str):
            injector = injector_by_name(injector)
        return cls(seed=seed, specs=[FaultSpec(dataset, injector)])

    @classmethod
    def from_specs(cls, texts: Iterable[str], seed: int = 0) -> "FaultPlan":
        """A plan from CLI ``dataset[:injector]`` spec strings."""
        return cls(seed=seed, specs=[FaultSpec.parse(t) for t in texts])

    # -- introspection -------------------------------------------------------

    def specs_for(self, dataset: str) -> list[FaultSpec]:
        """The specs targeting *dataset*, in declaration order."""
        return [s for s in self.specs if s.dataset == dataset]

    def describe(self) -> dict[str, object]:
        """Deterministic JSON description (the resilience report header)."""
        return {
            "seed": self.seed,
            "faults": [
                {"dataset": s.dataset, "injector": s.injector.describe()}
                for s in self.specs
            ],
        }

    # -- application ---------------------------------------------------------

    def rng_for(self, dataset: str, index: int, context: str = "") -> random.Random:
        """The derived RNG for one injector application.

        Seeded from a SHA-256 of (plan seed, dataset, spec index,
        context), so applications are independent of each other and of
        call order — the determinism contract.
        """
        material = f"{self.seed}|{dataset}|{index}|{context}".encode()
        digest = hashlib.sha256(material).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def corrupt(self, dataset: str, data: bytes, context: str = "") -> bytes:
        """Apply every spec targeting *dataset* to *data*, in order.

        Untargeted datasets pass through unchanged.  Each application is
        appended to :attr:`injections`.
        """
        for index, spec in enumerate(self.specs):
            if spec.dataset != dataset:
                continue
            before = data
            data = spec.injector.apply(data, self.rng_for(dataset, index, context))
            record = InjectionRecord(
                dataset=dataset,
                injector=spec.injector.describe(),
                context=context,
                bytes_before=len(before),
                bytes_after=len(data),
                sha256_before=hashlib.sha256(before).hexdigest(),
                sha256_after=hashlib.sha256(data).hexdigest(),
            )
            with self._log_lock:
                self.injections.append(record)
            get_registry().counter("faults.injected").inc()
        return data

    def gate(self, dataset: str, value: object) -> object:
        """Round-trip a built dataset through corrupted pickle bytes.

        Pickles *value*, corrupts the bytes per this plan, and unpickles
        them.  That is the gate's own wire form: the dataset cache
        stores columnar values as raw column buffers, not pickles (a
        columnar value pickles as its meta and column arrays).
        Corruption mild enough to survive the round trip returns the
        damaged-but-parseable value; anything else raises
        :class:`InjectedCorruptionError` for the build machinery to
        degrade on.  Untargeted datasets pass through.
        """
        specs = self.specs_for(dataset)
        if not specs:
            return value
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        damaged = self.corrupt(dataset, payload, context="build-gate")
        if damaged == payload:
            return value
        injector_names = "+".join(s.injector.describe() for s in specs)
        try:
            return pickle.loads(damaged)
        except Exception as exc:
            raise InjectedCorruptionError(
                dataset, injector_names, f"{type(exc).__name__}: {exc}"
            ) from None
