"""Boolean chains (multi-level 2-LUT networks) and cost models."""

from .chain import BooleanChain, Gate
from .export import chain_to_expression, chain_to_verilog
from .transform import (
    npn_transform_chain,
    npn_transform_record,
)
from .costs import (
    COST_MODELS,
    DEFAULT_OP_WEIGHTS,
    depth,
    fanout_cost,
    gate_count,
    inverter_free_cost,
    rank_solutions,
    select_best,
    weighted_op_cost,
)

__all__ = [
    "BooleanChain",
    "Gate",
    "chain_to_expression",
    "chain_to_verilog",
    "npn_transform_chain",
    "npn_transform_record",
    "COST_MODELS",
    "DEFAULT_OP_WEIGHTS",
    "depth",
    "fanout_cost",
    "gate_count",
    "inverter_free_cost",
    "rank_solutions",
    "select_best",
    "weighted_op_cost",
]
