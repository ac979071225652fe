"""Canonical experiment settings (Sec. 5.1 of the paper).

Every figure harness consumes an :class:`ExperimentSetting`; the
defaults below are the paper's parameters where stated, and the
documented calibration choices of DESIGN.md where not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.session.capacity import (
    CapacityModel,
    HeterogeneousCapacityModel,
    UniformCapacityModel,
)
from repro.workload.coverage import CoverageWorkloadModel

#: Default number of workload samples per setting (the paper uses 200).
DEFAULT_SAMPLES = 200

#: Default one-way latency bound for interactivity (DESIGN.md calibration).
DEFAULT_LATENCY_BOUND_MS = 120.0

#: Default root seed for all harnesses.
DEFAULT_SEED = 42


@dataclass
class ExperimentSetting:
    """One experiment configuration cell."""

    workload: str = "random"  # "zipf" | "random"
    nodes: str = "uniform"  # "uniform" | "heterogeneous"
    backbone: str = "tier1"
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    latency_bound_ms: float = DEFAULT_LATENCY_BOUND_MS
    #: Mean probability that a remote site subscribes to a given stream
    #: (the coverage workload's density knob; see DESIGN.md calibration).
    interest: float = 0.10
    #: Site-level FOV skew of the coverage workload (a viewer focuses on
    #: one or two remote participants); widens the u_{i->j} spread.
    focus_skew: float = 1.0
    #: Every stream keeps >= 1 subscriber when True (Sec. 5.1's "streams
    #: each site has to send"); Figs. 10/11 disable it (see DESIGN.md).
    guarantee_coverage: bool = True
    #: Fig. 10 calibration: hold the mean subscriber count per stream
    #: constant across N instead of using ``interest`` directly.
    mean_subscribers: float | None = None
    displays_per_site: int = 4
    fov_size: int = 8
    zipf_exponent: float = 1.0
    #: Audit every constructed overlay with the runtime
    #: :class:`~repro.sim.invariants.InvariantAuditor`, aborting the
    #: sweep on the first structural violation.
    audit: bool = False

    def __post_init__(self) -> None:
        if self.workload not in ("zipf", "random"):
            raise ConfigurationError(
                f"workload must be 'zipf' or 'random', got {self.workload!r}"
            )
        if self.nodes not in ("uniform", "heterogeneous"):
            raise ConfigurationError(
                f"nodes must be 'uniform' or 'heterogeneous', got {self.nodes!r}"
            )
        if self.samples < 1:
            raise ConfigurationError(f"samples must be >= 1, got {self.samples}")
        if self.latency_bound_ms <= 0:
            raise ConfigurationError(
                f"latency_bound_ms must be positive, got {self.latency_bound_ms}"
            )

    def capacity_model(self) -> CapacityModel:
        """The paper's node-resource distribution for this setting."""
        if self.nodes == "uniform":
            return UniformCapacityModel()
        return HeterogeneousCapacityModel()

    def workload_model(self) -> CoverageWorkloadModel:
        """The stream-centric coverage workload used by the figure sweeps.

        Sec. 5.1 fixes "the number of streams each site has to send",
        i.e. every published stream has at least one subscriber; the
        coverage model samples exactly that (see
        :mod:`repro.workload.coverage`).
        """
        popularity = "zipf" if self.workload == "zipf" else "uniform"
        return CoverageWorkloadModel(
            interest=self.interest,
            popularity=popularity,
            zipf_exponent=self.zipf_exponent,
            focus_skew=self.focus_skew,
            guarantee_coverage=self.guarantee_coverage,
            mean_subscribers=self.mean_subscribers,
        )

    def label(self) -> str:
        """Short identifier used in seeds and report headers."""
        return f"{self.workload}-{self.nodes}"
