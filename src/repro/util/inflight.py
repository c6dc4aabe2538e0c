"""Single-flight: a caller *leads* the fetch of the keys nobody is
fetching and *follows* the rest, waiting for the leader's result.  Each
chunk engine keeps a table (settled with decoded chunks), the dataset
server one (with blobs); no lock is held across a fetch."""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Optional, Tuple


class Flight:
    """One fetch in flight: the leader sets ``value`` or ``exc``; a write
    that lands meanwhile sets ``stale`` (the fetched bytes predate it)."""

    __slots__ = ("event", "value", "exc", "stale")

    def __init__(self):
        self.event = threading.Event()
        self.value = None
        self.exc: Optional[BaseException] = None
        self.stale = False

    def wait(self):
        """The leader's value, or its error raised here."""
        self.event.wait()
        if self.exc is not None:
            raise self.exc
        return self.value


class InFlight:
    """The fetches in flight, by storage key (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: Dict[str, Flight] = {}

    def claim(self, keys: Iterable[str]
              ) -> Tuple[Dict[str, Flight], Dict[str, Flight]]:
        """``(led, followed)``: a new flight for each key nobody fetches,
        to settle inside :meth:`leading`, and the flight of every other."""
        led, followed = {}, {}
        with self._lock:
            for key in keys:
                flight = self._flights.get(key)
                if flight is None:
                    led[key] = self._flights[key] = Flight()
                else:
                    followed[key] = flight
        return led, followed

    @contextmanager
    def leading(self, led: Dict[str, Flight],
                on_stale: Optional[Callable[[str], object]] = None):
        """The leader's fetch of *led*.  An error settles every unsettled
        flight with it and propagates; then the flights leave the table,
        ``on_stale(key)`` runs for each a write made stale, followers wake."""
        try:
            yield
        except BaseException as e:  # noqa: BLE001 - handed on, re-raised
            for flight in led.values():
                if flight.value is None and flight.exc is None:
                    flight.exc = e
            raise
        finally:
            with self._lock:
                for key in led:
                    del self._flights[key]
            for key, flight in led.items():
                if flight.stale and on_stale is not None:
                    on_stale(key)
                flight.event.set()

    def mark_stale(self, key: str) -> None:
        """A write to *key* landed: a fetch of it in flight is stale."""
        with self._lock:
            if key in self._flights:
                self._flights[key].stale = True
