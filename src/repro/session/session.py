"""Session assembly: topology + sites + streams + capacities.

:func:`build_session` reproduces the paper's experimental setup in one
call: select PoPs on a backbone for the N sites, draw per-site capacities
from a :class:`~repro.session.capacity.CapacityModel`, create one camera
(hence one published stream) per capacity-assigned stream slot, and a
fixed display array per site.  The resulting :class:`TISession` exposes
the pairwise RP latency matrix the overlay layer consumes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import SessionError
from repro.fov.camera import camera_ring
from repro.fov.geometry import Pose
from repro.session.capacity import CapacityAssignment, CapacityModel
from repro.session.entities import Camera3D, Display3D, RendezvousPoint, Site
from repro.session.streams import StreamDescriptor, StreamId, StreamRegistry
from repro.topology.dense import DenseCostMatrix
from repro.topology.graph import Topology
from repro.topology.placement import place_sites
from repro.util.rng import RngStream


@dataclass
class SessionConfig:
    """Knobs of :func:`build_session`."""

    n_sites: int = 4
    displays_per_site: int = 4
    placement: str = "random"
    camera_ring_radius: float = 3.0

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise SessionError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.displays_per_site < 1:
            raise SessionError(
                f"displays_per_site must be >= 1, got {self.displays_per_site}"
            )


@dataclass
class TISession:
    """A fully-assembled multi-site 3DTI session.

    Attributes
    ----------
    topology:
        The WAN backbone the RPs sit on.
    sites:
        Site objects indexed 0..N-1 (site ``i`` is the paper's ``H_i``).
    registry:
        Namespace of every published stream ``s_j^q``.
    """

    topology: Topology
    sites: list[Site]
    registry: StreamRegistry

    def __post_init__(self) -> None:
        seen_pops: set[str] = set()
        for expected, site in enumerate(self.sites):
            if site.index != expected:
                raise SessionError(
                    f"site list must be indexed contiguously; position {expected} "
                    f"holds site {site.index}"
                )
            if site.pop_id in seen_pops:
                raise SessionError(f"two sites share PoP {site.pop_id!r}")
            seen_pops.add(site.pop_id)
        # The dense matrix is the only latency store; ``cost_matrix()``
        # derives the O(N²) dict form on demand.
        self._dense_costs = DenseCostMatrix(
            self.topology.dense_cost_matrix([s.pop_id for s in self.sites]).rows()
        )

    # -- accessors ---------------------------------------------------------------

    @property
    def n_sites(self) -> int:
        """Number of sites (the paper's N)."""
        return len(self.sites)

    def site(self, index: int) -> Site:
        """Site ``H_index``."""
        try:
            return self.sites[index]
        except IndexError:
            raise SessionError(f"no site with index {index}") from None

    @property
    def array_backend(self):
        """The array backend bound to this session's dense cost matrix."""
        return self._dense_costs.array_backend

    def cost_ms(self, a: int, b: int) -> float:
        """One-way RP-to-RP latency between sites ``a`` and ``b``."""
        n = len(self.sites)
        if (
            not isinstance(a, int)
            or not isinstance(b, int)
            or not (0 <= a < n and 0 <= b < n)
        ):
            raise SessionError(f"no cost entry for sites {a}->{b}")
        return self._dense_costs.edge_cost(a, b)

    def dense_cost_matrix(self) -> DenseCostMatrix:
        """The shared site-indexed dense latency matrix (read-only)."""
        return self._dense_costs

    def inbound_limit(self, site: int) -> int:
        """``I_site`` in stream units."""
        return self.site(site).rp.inbound_limit

    def outbound_limit(self, site: int) -> int:
        """``O_site`` in stream units."""
        return self.site(site).rp.outbound_limit

    def total_streams(self) -> int:
        """Total number of published streams across all sites."""
        return len(self.registry)

    def __str__(self) -> str:
        return (
            f"TISession(N={self.n_sites}, streams={self.total_streams()}, "
            f"topology={self.topology.name})"
        )


def build_session(
    topology: Topology,
    capacity_model: CapacityModel,
    rng: RngStream,
    config: SessionConfig | None = None,
) -> TISession:
    """Assemble a session on ``topology`` per the paper's setup.

    The RNG is split into independent sub-streams for placement and
    capacity draws so the two are not entangled across settings.
    """
    config = config or SessionConfig()
    placement_rng = rng.spawn("placement")
    capacity_rng = rng.spawn("capacity")
    pops = place_sites(
        topology, config.n_sites, rng=placement_rng, strategy=config.placement
    )
    assignments = capacity_model.assign(config.n_sites, capacity_rng)
    registry = StreamRegistry()
    # One camera ring per stream count, shared by the sites that have it
    # (poses are frozen values) and dropped with this call.
    ring = functools.cache(
        lambda n: tuple(camera_ring(n, radius=config.camera_ring_radius))
    )
    sites = []
    for index, (pop_id, assignment) in enumerate(zip(pops, assignments)):
        poses = ring(assignment.n_streams)
        sites.append(
            _build_site(index, pop_id, assignment, poses, registry, config)
        )
    return TISession(topology=topology, sites=sites, registry=registry)


def _build_site(
    index: int,
    pop_id: str,
    assignment: CapacityAssignment,
    poses: tuple[Pose, ...],
    registry: StreamRegistry,
    config: SessionConfig,
) -> Site:
    """Create one site: RP, a camera per ring pose (one stream each), display array."""
    rp = RendezvousPoint(
        site=index,
        pop_id=pop_id,
        inbound_limit=assignment.inbound_limit,
        outbound_limit=assignment.outbound_limit,
    )
    cameras = []
    for q, pose in enumerate(poses):
        stream_id = StreamId(site=index, index=q)
        camera_id = f"cam-{index}-{q}"
        registry.register(StreamDescriptor(stream_id=stream_id, camera_id=camera_id))
        cameras.append(Camera3D(camera_id=camera_id, stream_id=stream_id, pose=pose))
    displays = [
        Display3D(display_id=f"disp-{index}-{d}", site=index)
        for d in range(config.displays_per_site)
    ]
    return Site(index=index, pop_id=pop_id, rp=rp, cameras=cameras, displays=displays)
