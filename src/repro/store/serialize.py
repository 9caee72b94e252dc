"""JSON-safe serialization of Boolean chains.

The chain store persists whole optimal-solution sets; checkpoint logs
and the store both need a representation that is greppable, diffable,
and stable across interpreter versions — so chains are stored as plain
JSON objects rather than pickles.  The format mirrors the chain's
construction API directly: a gate is ``[op, [fanins...]]`` and an
output is ``[signal, complemented]``.

:func:`encode_record` and :func:`decode_record` convert between that
JSON object and the chain's record
(:meth:`~repro.chain.BooleanChain.signature`), which the store checks
and rewrites without building chains.
"""

from __future__ import annotations

from ..chain.chain import BooleanChain

__all__ = [
    "chain_to_record",
    "chain_from_record",
    "decode_record",
    "encode_record",
]

#: Bumped when the record layout changes; readers skip unknown versions.
RECORD_VERSION = 1


def encode_record(record: tuple) -> dict:
    """The JSON-safe object of a chain record."""
    num_inputs, gates, outputs = record
    return {
        "v": RECORD_VERSION,
        "inputs": num_inputs,
        "gates": [[op, list(fanins)] for op, fanins in gates],
        "outputs": [
            [signal, bool(complemented)] for signal, complemented in outputs
        ],
    }


def decode_record(obj: dict) -> tuple:
    """The chain record of an :func:`encode_record` object.

    Checks the layout only -- whether the record is a well-formed chain
    is for :meth:`BooleanChain.from_record` or the set check to say.
    Raises ``ValueError`` on malformed or unknown-version objects so
    callers can treat a corrupt store row as a cache miss.
    """
    if not isinstance(obj, dict):
        raise ValueError("chain record must be a dict")
    if obj.get("v") != RECORD_VERSION:
        raise ValueError(f"unknown chain record version {obj.get('v')!r}")
    try:
        return (
            int(obj["inputs"]),
            tuple(
                (int(op), tuple(map(int, fanins)))
                for op, fanins in obj["gates"]
            ),
            tuple(
                (int(signal), bool(complemented))
                for signal, complemented in obj["outputs"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed chain record: {exc}") from None


def chain_to_record(chain: BooleanChain) -> dict:
    """A plain-data (JSON-safe) representation of ``chain``."""
    return encode_record(chain.signature())


def chain_from_record(record: dict) -> BooleanChain:
    """Rebuild a chain from :func:`chain_to_record` output.

    Raises ``ValueError`` on malformed or unknown-version records.
    """
    chain = BooleanChain.from_record(decode_record(record))
    chain.validate()
    return chain
