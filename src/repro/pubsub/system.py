"""End-to-end pub-sub façade: displays -> RPs -> server -> forwarding tables.

:class:`PubSubSystem` wires one :class:`~repro.pubsub.rp.RPAgent` per
site to a :class:`~repro.pubsub.membership.MembershipServer` and runs
complete control rounds.  Display subscriptions can be given either as
explicit stream sets or as geometric FOVs resolved through the ViewCast
selector — the two subscription forms of Sec. 3.2.

Rounds are synchronous here (the paper's model);
:meth:`PubSubSystem.async_service` lifts the same server and RPs onto a
simulator as an event-driven :class:`~repro.pubsub.service.MembershipService`
when control latency, debouncing and overlapping rounds matter.
Registration is dirty-tracked server-side, so the per-round full
re-report below only costs on sites whose state actually changed
(see ``MembershipServer.registrations_applied`` / ``_skipped``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.core.base import BuildResult, OverlayBuilder
from repro.fov.viewcast import ViewCastSelector
from repro.fov.viewpoint import FieldOfView
from repro.pubsub.membership import MembershipServer
from repro.pubsub.messages import DisplaySubscription, OverlayDirective
from repro.pubsub.rp import RPAgent
from repro.session.session import TISession
from repro.session.streams import StreamId
from repro.util.rng import RngStream


@dataclass
class PubSubSystem:
    """One control-plane instance over a session."""

    session: TISession
    builder: OverlayBuilder
    latency_bound_ms: float = 120.0
    #: Overlay maintenance policy ("always" | "incremental").
    rebuild_policy: str = "always"
    rps: dict[int, RPAgent] = field(default_factory=dict)
    server: MembershipServer = field(init=False)

    def __post_init__(self) -> None:
        if not self.rps:
            self.rps = {
                site.index: RPAgent(site) for site in self.session.sites
            }
        self.server = MembershipServer(
            session=self.session,
            builder=self.builder,
            latency_bound_ms=self.latency_bound_ms,
            rebuild_policy=self.rebuild_policy,
        )

    # -- subscription entry points --------------------------------------------------

    def subscribe_display(
        self, site: int, display_id: str, streams: list[StreamId]
    ) -> None:
        """Explicit-subset subscription for one display."""
        rp = self._rp(site)
        rp.submit_display_subscription(
            DisplaySubscription(
                display_id=display_id, site=site, streams=tuple(sorted(streams))
            )
        )

    def subscribe_display_fov(
        self,
        site: int,
        display_id: str,
        fov: FieldOfView,
        target_site: int,
        max_streams: int = 4,
    ) -> list[StreamId]:
        """FOV subscription: resolve ``fov`` against ``target_site``'s cameras.

        Returns the resolved stream subset (also installed at the RP).
        """
        target = self.session.site(target_site)
        if target_site == site:
            raise ProtocolError(f"site {site} cannot aim an FOV at itself")
        poses = {
            camera.stream_id: camera.pose
            for camera in target.cameras
            if camera.pose is not None
        }
        if not poses:
            raise ProtocolError(f"site {target_site} has no camera poses")
        selector = ViewCastSelector(camera_poses=poses, max_streams=max_streams)
        streams = selector.select(fov)
        self.subscribe_display(site, display_id, streams)
        return streams

    # -- control round ---------------------------------------------------------------

    def run_control_round(self, rng: RngStream) -> OverlayDirective:
        """One full round: advertise, aggregate, build, install."""
        for rp in self.rps.values():
            self.server.register_advertisement(rp.advertisement())
            self.server.register_subscription(rp.aggregate_subscription())
        directive = self.server.build_overlay(rng)
        for rp in self.rps.values():
            rp.apply_directive(directive)
        return directive

    # -- event-driven control ----------------------------------------------------------

    def async_service(self, sim, build_rng: RngStream, **options):
        """Attach this system's server and RPs to an event-driven service.

        Returns a :class:`~repro.pubsub.service.MembershipService` on
        ``sim``.  ``options`` are the service's own keyword parameters
        (delay/debounce, fault model, heartbeat detection,
        retransmission, ...); an option left out or passed as ``None``
        takes the service's default.  The synchronous
        :meth:`run_control_round` and the service share one server, so
        don't interleave the two control styles in one run.
        """
        from repro.pubsub.service import MembershipService

        given = {
            name: value for name, value in options.items() if value is not None
        }
        return MembershipService(
            sim=sim,
            server=self.server,
            rps=self.rps,
            build_rng=build_rng,
            **given,
        )

    # -- inspection --------------------------------------------------------------------

    def _rp(self, site: int) -> RPAgent:
        try:
            return self.rps[site]
        except KeyError:
            raise ProtocolError(f"unknown site {site}") from None

    @property
    def last_result(self) -> BuildResult | None:
        """The build result behind the most recent directive."""
        return self.server.last_result

    def satisfaction_report(self) -> dict[int, float]:
        """Per-site fraction of the aggregated subscription being received."""
        return {
            site: rp.satisfied_fraction() for site, rp in sorted(self.rps.items())
        }
