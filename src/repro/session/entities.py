"""Entities of a 3DTI site: cameras, displays, the RP, and the site itself.

Within a site the RP forms a star network to the local cameras and
displays (Sec. 3.1); across sites the RPs join the WAN overlay.  The
overlay algorithms operate on RPs only ("we use the terms nodes and RPs
interchangeably"), so these entities carry identity, placement and
capacity, while the media/data-plane layers attach behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import SessionError
from repro.fov.geometry import Pose
from repro.session.streams import StreamId


@dataclass(frozen=True)
class Camera3D:
    """A 3D camera: one publisher producing one continuous stream."""

    camera_id: str
    stream_id: StreamId
    pose: Pose | None = None


@dataclass(frozen=True)
class Display3D:
    """A 3D display: one subscriber rendering an aggregated cyber-space."""

    display_id: str
    site: int

    def __post_init__(self) -> None:
        if self.site < 0:
            raise SessionError(f"display {self.display_id!r} has negative site index")


@dataclass
class RendezvousPoint:
    """The per-site proxy server joining the WAN overlay.

    ``inbound_limit`` / ``outbound_limit`` are the paper's ``I_i`` / ``O_i``
    in stream units.
    """

    site: int
    pop_id: str
    inbound_limit: int
    outbound_limit: int

    def __post_init__(self) -> None:
        if self.inbound_limit < 0 or self.outbound_limit < 0:
            raise SessionError(
                f"RP of site {self.site} has negative capacity "
                f"(I={self.inbound_limit}, O={self.outbound_limit})"
            )


@dataclass
class Site:
    """One 3DTI site ``H_i``: camera array, display array, and its RP."""

    index: int
    pop_id: str
    rp: RendezvousPoint
    cameras: list[Camera3D] = field(default_factory=list)
    displays: list[Display3D] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise SessionError(f"negative site index: {self.index}")
        if self.rp.site != self.index:
            raise SessionError(
                f"RP belongs to site {self.rp.site}, not {self.index}"
            )

    @property
    def name(self) -> str:
        """Human-readable site identifier ``H_i``."""
        return f"H{self.index}"

    @cached_property
    def stream_ids(self) -> list[StreamId]:
        """Ids of the streams published by this site's cameras.

        Cached after the first call — the scenario runtime's FOV
        machinery re-enumerates every active site's streams per event,
        which used to rebuild this list thousands of times per run.
        The camera array is fixed at session assembly, so the cache
        never goes stale; callers must treat the list as read-only.
        """
        return [camera.stream_id for camera in self.cameras]

    def __str__(self) -> str:
        return (
            f"{self.name}@{self.pop_id} (cameras={len(self.cameras)}, "
            f"displays={len(self.displays)}, I={self.rp.inbound_limit}, "
            f"O={self.rp.outbound_limit})"
        )
