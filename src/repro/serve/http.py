"""The asyncio HTTP/1.1 shell around :class:`~repro.serve.app.ServeApp`.

Stdlib only: a hand-rolled, deliberately small HTTP server — request
line, headers, ``Content-Length`` body, JSON in/JSON out, keep-alive
until either side asks to close.  Everything interesting happens in
:class:`ServeApp`; this module only moves bytes.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .app import ServeApp

__all__ = ["ServeDaemon", "run_server"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request bodies above this are rejected outright (64 MiB).
MAX_BODY_BYTES = 64 * 1024 * 1024


class _BadFraming(Exception):
    """A request the shell cannot frame (a bad ``Content-Length`` or an
    over-long line): answered 400, then the connection closes (the rest
    of the stream cannot be trusted)."""


class ServeDaemon:
    """One listening server bound to a :class:`ServeApp`."""

    def __init__(self, app: "ServeApp", host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        """Bind and start accepting; resolves ``self.port`` when 0."""
        self._server = await asyncio.start_server(
            self._connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadFraming as exc:
                    await self._write_response(writer, 400, {"error": str(exc)}, False)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                try:
                    status, payload = await self.app.handle(method, path, body)
                except Exception as exc:  # noqa: BLE001 - last-resort boundary
                    status, payload = 500, {"error": f"internal error: {exc}"}
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    @staticmethod
    async def _readline(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # the line outgrew the stream's buffer limit
            raise _BadFraming("request line or header line too long") from None

    @classmethod
    async def _read_request(cls, reader: asyncio.StreamReader):
        line = await cls._readline(reader)
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            raw = await cls._readline(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _BadFraming(
                f"invalid Content-Length {declared!r}: expected a non-negative integer"
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _BadFraming(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, status: int, payload: dict, keep_alive: bool
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


def run_server(app: "ServeApp", host: str = "127.0.0.1", port: int = 8484) -> int:
    """Boot a daemon and serve until interrupted (the CLI entry point)."""

    async def _main() -> None:
        daemon = ServeDaemon(app, host, port)
        await daemon.start()
        print(f"serving on {daemon.url}", flush=True)
        try:
            await daemon.serve_forever()
        finally:
            await daemon.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("shutting down")
    return 0
