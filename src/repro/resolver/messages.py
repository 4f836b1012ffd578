"""Resolver wire messages.

Three message kinds, as in the JXTA resolver spec: queries, responses
and SRDI messages (index pushes).  Payloads are handler-specific
objects; the resolver treats them opaquely, adding only addressing and
correlation metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

from repro.ids.jxtaid import PeerID

#: XML framing of a resolver message around its payload.
RESOLVER_OVERHEAD_BYTES = 180


def _payload_size(payload: Any) -> int:
    size = getattr(payload, "size_bytes", None)
    if callable(size):
        return int(size())
    if isinstance(payload, (bytes, str)):
        return len(payload)
    return 128


@dataclass
class ResolverQuery:
    """A query addressed to a named handler on some peer(s)."""

    handler_name: str
    query_id: int
    src_peer: PeerID
    #: Route back to the query source (JXTA's ``SrcPeerRoute`` field) —
    #: responders install it so the response can be sent directly.
    src_route: List[str]
    payload: Any
    hop_count: int = 0

    def size_bytes(self) -> int:
        return RESOLVER_OVERHEAD_BYTES + _payload_size(self.payload)

    def hopped(self) -> "ResolverQuery":
        """Copy with the hop counter incremented (for re-propagation).
        The copy shares the payload and the source route: no peer
        mutates either once the query is sent."""
        return ResolverQuery(
            self.handler_name, self.query_id, self.src_peer,
            self.src_route, self.payload, self.hop_count + 1,
        )


@dataclass
class ResolverResponse:
    """A response correlated to a query by (src peer, query id)."""

    handler_name: str
    query_id: int
    payload: Any

    def size_bytes(self) -> int:
        return RESOLVER_OVERHEAD_BYTES + _payload_size(self.payload)


@dataclass
class ResolverSrdiMessage:
    """An SRDI (Shared Resource Distributed Index) push."""

    handler_name: str
    src_peer: PeerID
    payload: Any

    def size_bytes(self) -> int:
        return RESOLVER_OVERHEAD_BYTES + _payload_size(self.payload)
