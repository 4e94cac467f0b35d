"""``owl serve``'s front door: HTTP/JSON on a unix socket or on TCP.

One asyncio event loop multiplexes every connected client against one
:class:`~repro.service.scheduler.CampaignScheduler`.  The service has
one wire protocol, HTTP/JSON (:class:`~repro.service.http.HttpFrontEnd`,
routes into a :class:`~repro.service.api.ServiceAPI`), and two address
kinds that carry it: a unix-domain socket (``unix://PATH``, the CLI's
default ``<queue>/owl.sock``) and TCP (``http://HOST:PORT``).

Scheduling runs on a background task that calls ``scheduler.tick()``
between awaits, so submissions return immediately and clients poll
``status`` — the CLI's ``owl submit --wait`` does exactly that, and
``owl results --watch`` holds a ``watch`` stream instead.  The task
ticks when a unit result rings the scheduler's doorbell, and at least
every ``tick_seconds``.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Dict, Optional

from repro.service.address import Address
from repro.service.api import ServiceAPI
from repro.service.http import HttpFrontEnd
from repro.service.queue import SCHEDULER_BELL
from repro.service.scheduler import CampaignScheduler


class ServiceServer:
    """Asyncio front end over one scheduler."""

    def __init__(self, scheduler: CampaignScheduler, address: Address,
                 tick_seconds: float = 0.05,
                 tokens: Optional[Dict[str, str]] = None,
                 api: Optional[ServiceAPI] = None) -> None:
        self.scheduler = scheduler
        self.address = address
        self.tick_seconds = tick_seconds
        self.api = api if api is not None else ServiceAPI(
            scheduler, tokens=tokens, poll_seconds=tick_seconds)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------

    async def start(self) -> None:
        kind, target = self.address
        handle = HttpFrontEnd(self.api, self._stopping).handle
        if kind == "unix":
            self._server = await asyncio.start_unix_server(
                handle, path=str(target))
        elif kind == "http":
            host, port = target  # type: ignore[misc]
            self._server = await asyncio.start_server(
                handle, host=host, port=port)
        else:
            raise ValueError(f"unknown address kind {kind!r}")

    async def run(self) -> None:
        """Serve until a client asks for shutdown."""
        if self._server is None:
            await self.start()
        ticker = asyncio.ensure_future(self._tick_loop())
        try:
            await self._stopping.wait()
        finally:
            ticker.cancel()
            self._server.close()
            await self._server.wait_closed()
            kind, target = self.address
            if kind == "unix":
                # closing the listener leaves its socket file behind; a
                # restart probing for the file would connect to nothing
                Path(target).unlink(missing_ok=True)
            if (self.scheduler.fleet is not None
                    or self.scheduler.config.external_workers):
                # the STOP sentinel also reaches workers on other hosts
                self.scheduler.queue.request_stop()
            if self.scheduler.fleet is not None:
                self.scheduler.fleet.stop()

    async def _tick_loop(self) -> None:
        loop = asyncio.get_running_loop()
        rung = asyncio.Event()
        bell = self.scheduler.queue.doorbell(SCHEDULER_BELL)

        def on_ring() -> None:
            bell.drain()
            rung.set()

        if bell is not None:
            loop.add_reader(bell.fileno(), on_ring)
        try:
            while not self._stopping.is_set():
                self.scheduler.tick()
                try:
                    await asyncio.wait_for(rung.wait(), self.tick_seconds)
                except asyncio.TimeoutError:
                    pass
                rung.clear()
        finally:
            if bell is not None:
                loop.remove_reader(bell.fileno())
                bell.close()


def serve_forever(scheduler: CampaignScheduler, address: Address,
                  tick_seconds: float = 0.05,
                  tokens: Optional[Dict[str, str]] = None) -> None:
    """Blocking entry point for ``owl serve`` (either address kind)."""
    server = ServiceServer(scheduler, address, tick_seconds=tick_seconds,
                           tokens=tokens)

    async def _main() -> None:
        await server.start()
        await server.run()

    asyncio.run(_main())
