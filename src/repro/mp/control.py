"""The orchestrator ↔ node control channel.

One TCP connection per node, newline-delimited JSON, entirely out of
band from the protocol's own authenticated links.  The vocabulary is
deliberately tiny:

node → orchestrator
    ``hello``     the node has bound its protocol listener (it dials no
                  peer before ``go``); carries the ``port`` it bound.
                  A WAL-recovered respawn adds ``recovered: true`` and
                  its ``attempt`` number
    ``done``      the node's stop predicate (decided/halted) holds
    ``result``    the node's :meth:`~repro.outcome.NodeReport.to_dict`
                  readout (plus captured ``events``), in answer to ``stop``
    ``crash``     the node is dying; carries the error text
    ``recovered`` WAL replay finished; carries ``replayed`` (record
                  count) and ``replay_ms``
    ``pong``      liveness probe answer, echoing the ping's ``seq``

orchestrator → node
    ``go``       the start barrier: every node said hello; ``peers``
                 maps every pid to its ``[host, port]``, dial them and
                 propose now (sent again, alone, to a respawn's hello —
                 the re-barrier of one)
    ``peer``     a respawned node bound a new port: ``peers`` maps its
                 pid to its new ``[host, port]``; redial it there
    ``stop``     report your result and exit
    ``ping``     liveness probe; answer with ``pong`` carrying ``seq``

The fork server's pipe uses the same framing (:mod:`repro.mp.zygote`).

The control channel is part of the *harness*, not the protocol: a real
Byzantine node could lie on it, which is why the orchestrator's
verification runs the same outcome checks the other fabrics use over
the reported decisions of correct nodes only.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

from ..errors import ReproError

#: Control messages are small JSON objects; a well-behaved node's
#: ``result`` (events included) stays far under this, and a runaway
#: line must not make the orchestrator buffer unbounded memory.
MAX_CONTROL_LINE = 64 << 20


def encode_msg(message: Dict[str, Any]) -> bytes:
    """One control message as its wire line: compact JSON + newline."""
    line = json.dumps(message, separators=(",", ":"), sort_keys=True)
    return line.encode("utf-8") + b"\n"


async def send_msg(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
    """Write one control message and drain."""
    writer.write(encode_msg(message))
    await writer.drain()


async def read_msg(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one control message; ``None`` on EOF (peer gone)."""
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    if not line:
        return None
    if len(line) > MAX_CONTROL_LINE:
        raise ReproError("control message exceeds the line cap")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReproError(f"malformed control message: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ReproError(f"control message needs a 'type': {message!r}")
    return message


def parse_endpoint(text: str) -> tuple:
    """Parse a ``HOST:PORT`` control endpoint string."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ReproError(f"bad control endpoint {text!r}; use HOST:PORT")
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(f"bad control port in {text!r}") from None
    return host, port


__all__ = ["MAX_CONTROL_LINE", "encode_msg", "parse_endpoint", "read_msg",
           "send_msg"]
