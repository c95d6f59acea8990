"""Region topology and the round-trip-time matrix of Table I.

Table I of the paper reports average RTTs from California to the other four
datacenters::

            C    O    V    I    M
    C       0   19   61  141  238

The remaining pairs are not reported; we fill them with public AWS
inter-region measurements of the same era so that the experiments that move
the edge or cloud node (Figure 7) have a complete matrix.  The substitution
only affects pairs the paper never exercises with both endpoints away from
California — the figures it reports depend on the California row, which is
reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..common.errors import ConfigurationError
from ..common.regions import PAPER_REGION_ORDER, Region

#: Round-trip times in milliseconds.  The California row is Table I verbatim.
PAPER_RTT_MS: Dict[Tuple[Region, Region], float] = {
    (Region.CALIFORNIA, Region.CALIFORNIA): 0.0,
    (Region.CALIFORNIA, Region.OREGON): 19.0,
    (Region.CALIFORNIA, Region.VIRGINIA): 61.0,
    (Region.CALIFORNIA, Region.IRELAND): 141.0,
    (Region.CALIFORNIA, Region.MUMBAI): 238.0,
    # Pairs below are not in Table I; filled from public measurements.
    (Region.OREGON, Region.OREGON): 0.0,
    (Region.OREGON, Region.VIRGINIA): 70.0,
    (Region.OREGON, Region.IRELAND): 130.0,
    (Region.OREGON, Region.MUMBAI): 222.0,
    (Region.VIRGINIA, Region.VIRGINIA): 0.0,
    (Region.VIRGINIA, Region.IRELAND): 80.0,
    (Region.VIRGINIA, Region.MUMBAI): 190.0,
    (Region.IRELAND, Region.IRELAND): 0.0,
    (Region.IRELAND, Region.MUMBAI): 112.0,
    (Region.MUMBAI, Region.MUMBAI): 0.0,
}

#: Round trip between a client and a *nearby* edge node (same metro area but
#: not the same machine).  Calibrated so that WedgeChain's Phase I commit
#: latency lands in the paper's 15-20 ms band (Figure 4a).
DEFAULT_CLIENT_EDGE_RTT_MS = 12.0

#: Round trip between two co-located services inside one datacenter.
DEFAULT_INTRA_DC_RTT_MS = 0.5


@dataclass(frozen=True)
class Topology:
    """A symmetric RTT matrix over a set of regions.

    The matrix is stored as one-way pairs in milliseconds; lookups symmetrize
    automatically.  ``intra_region_rtt_ms`` is used when both endpoints are
    in the same region but are distinct nodes (e.g. an edge node co-located
    with the cloud node in Figure 7(b)'s last configuration).
    """

    rtt_ms: Dict[Tuple[Region, Region], float] = field(
        default_factory=lambda: dict(PAPER_RTT_MS)
    )
    intra_region_rtt_ms: float = DEFAULT_INTRA_DC_RTT_MS
    client_edge_rtt_ms: float = DEFAULT_CLIENT_EDGE_RTT_MS

    def __post_init__(self) -> None:
        for (a, b), value in self.rtt_ms.items():
            if value < 0:
                raise ConfigurationError(f"negative RTT for {a}->{b}")

    def rtt(self, a: Region, b: Region) -> float:
        """Round-trip time between regions *a* and *b* in milliseconds."""

        if a == b:
            stored = self.rtt_ms.get((a, b))
            if stored is not None and stored > 0:
                return stored
            return self.intra_region_rtt_ms
        if (a, b) in self.rtt_ms:
            return self.rtt_ms[(a, b)]
        if (b, a) in self.rtt_ms:
            return self.rtt_ms[(b, a)]
        raise ConfigurationError(f"no RTT configured between {a} and {b}")

    def one_way_latency_s(self, a: Region, b: Region) -> float:
        """One-way latency in *seconds* (half the RTT)."""

        return self.rtt(a, b) / 2.0 / 1000.0

    def client_edge_latency_s(self) -> float:
        """One-way client-to-nearby-edge latency in seconds."""

        return self.client_edge_rtt_ms / 2.0 / 1000.0

    def table_row(self, origin: Region = Region.CALIFORNIA) -> Dict[str, float]:
        """Return a Table-I style row of RTTs from *origin* to every region."""

        return {
            region.short_code: self.rtt(origin, region) if region != origin else 0.0
            for region in PAPER_REGION_ORDER
        }


def paper_topology() -> Topology:
    """The topology used throughout the paper's evaluation."""

    return Topology()
