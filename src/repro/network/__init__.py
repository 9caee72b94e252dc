"""Logic-network layer: k-LUT networks, cut enumeration, BLIF I/O and
exact-synthesis-based rewriting — the application side of the paper."""

from .network import LogicNetwork, Node
from .cuts import Cut, cut_function, enumerate_cuts
from .rewrite import RewriteResult, rewrite_with_store
from .blif import blif_to_network, network_to_blif, read_blif, write_blif

__all__ = [
    "LogicNetwork",
    "Node",
    "Cut",
    "cut_function",
    "enumerate_cuts",
    "RewriteResult",
    "rewrite_with_store",
    "blif_to_network",
    "network_to_blif",
    "read_blif",
    "write_blif",
]
