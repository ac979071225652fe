"""Tests for site entities."""

from __future__ import annotations

import pytest

from repro.errors import SessionError
from repro.session.entities import Camera3D, Display3D, RendezvousPoint, Site
from repro.session.streams import StreamId


def make_site(index: int = 0) -> Site:
    rp = RendezvousPoint(site=index, pop_id="new-york", inbound_limit=10,
                         outbound_limit=12)
    cameras = [
        Camera3D(camera_id=f"c{q}", stream_id=StreamId(index, q))
        for q in range(3)
    ]
    displays = [Display3D(display_id="d0", site=index)]
    return Site(index=index, pop_id="new-york", rp=rp, cameras=cameras,
                displays=displays)


class TestRendezvousPoint:
    def test_negative_capacity_rejected(self):
        with pytest.raises(SessionError):
            RendezvousPoint(site=0, pop_id="x", inbound_limit=-1, outbound_limit=1)


class TestDisplay:
    def test_negative_site_rejected(self):
        with pytest.raises(SessionError):
            Display3D(display_id="d", site=-2)


class TestSite:
    def test_name_and_streams(self):
        site = make_site(2)
        assert site.name == "H2"
        assert site.stream_ids == [StreamId(2, 0), StreamId(2, 1), StreamId(2, 2)]

    def test_rp_site_mismatch_rejected(self):
        rp = RendezvousPoint(site=1, pop_id="x", inbound_limit=1, outbound_limit=1)
        with pytest.raises(SessionError):
            Site(index=0, pop_id="x", rp=rp)

    def test_negative_index_rejected(self):
        rp = RendezvousPoint(site=-1, pop_id="x", inbound_limit=1, outbound_limit=1)
        with pytest.raises(SessionError):
            Site(index=-1, pop_id="x", rp=rp)

    def test_str_mentions_capacities(self):
        text = str(make_site())
        assert "I=10" in text and "O=12" in text
