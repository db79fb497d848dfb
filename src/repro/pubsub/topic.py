"""Topics: named publication channels with optional retained state."""

from __future__ import annotations

from repro.events import Event


class Topic:
    """One publication channel.

    ``retain`` keeps the last published event so late subscribers can
    receive current state immediately (the "initial value" pattern of
    monitoring dashboards).
    """

    def __init__(self, name: str, *, retain: bool = False) -> None:
        self.name = name.lower()
        self.retain = retain
        self.retained: Event | None = None
        self.published = 0

    def __repr__(self) -> str:
        return f"Topic({self.name!r}, published={self.published})"

    def record(self, event: Event) -> None:
        self.published += 1
        if self.retain:
            self.retained = event
