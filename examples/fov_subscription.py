#!/usr/bin/env python3
"""The FOV subscription pipeline of Fig. 4, end to end.

A user at one site chooses a preferred field of view onto a remote
participant; the ViewCast-style selector scores every remote camera by
its contribution to that FOV and picks the top-k.  The example prints
the full ranking so the Fig. 4 semantics ("streams from cameras 1, 2,
7, 8 are the four most contributing") are visible, then shows how the
selection changes as the user orbits the subject.

Run:  python examples/fov_subscription.py
"""

import math

from repro.fov.camera import camera_ring
from repro.fov.contribution import rank_streams
from repro.fov.geometry import Vec3
from repro.fov.viewcast import ViewCastSelector
from repro.fov.viewpoint import FieldOfView
from repro.session.streams import StreamId
from repro.util import Table


def main() -> None:
    # A remote site's capture stage: eight cameras on a ring (Fig. 4).
    poses = camera_ring(8)
    catalogue = {StreamId(1, q): pose for q, pose in enumerate(poses)}

    # The user looks at the stage from the +x side.
    fov = FieldOfView(eye=Vec3(6.0, 0.0, 1.6), target=Vec3(0.0, 0.0, 1.0))

    table = Table(
        ["camera", "position", "contribution"],
        title="Contribution ranking for the frontal FOV (cf. Fig. 4)",
    )
    pairs = list(catalogue.items())
    for stream, score in rank_streams(fov, pairs):
        pose = catalogue[stream]
        position = f"({pose.position.x:+.1f}, {pose.position.y:+.1f})"
        table.add_row([str(stream), position, score])
    print(table.render())

    selector = ViewCastSelector(camera_poses=catalogue, max_streams=4)
    selected = selector.select(fov)
    print(
        "\nTop-4 subscription for the frontal FOV: "
        + ", ".join(str(s) for s in selected)
    )

    # Orbit the subject: the subscription tracks the viewpoint.
    print("\nOrbiting the subject (subscription per viewing angle):")
    for deg in range(0, 360, 45):
        theta = math.radians(deg)
        eye = Vec3(6.0 * math.cos(theta), 6.0 * math.sin(theta), 1.6)
        orbit_fov = FieldOfView(eye=eye, target=Vec3(0.0, 0.0, 1.0))
        streams = selector.select(orbit_fov)
        print(
            f"  {deg:3d} deg: " + ", ".join(str(s) for s in streams)
        )
    print(
        "\nOnly the contributing subset is ever transmitted — this is the"
        "\nbandwidth lever of the publish-subscribe model (Sec. 3.2)."
    )


if __name__ == "__main__":
    main()
