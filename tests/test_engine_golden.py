"""Every engine's answers, pinned.

Each of the six registered engines runs on a fixed set of small
functions, and the test compares what it returns against a recorded
table: the gate count, the number of chains, a digest of the ordered
chain signatures and the four search counters.  Three capped runs pin
either the gate count or the exception raised.  A refactor that keeps
the table keeps every engine's answers, down to the order of its
solutions and the SAT instances it solved.

Regenerate the table with ``PYTHONPATH=src python
tests/test_engine_golden.py`` and paste what it prints, but only for a
change that moves an answer by design.
"""

import hashlib
import random

import pytest

from repro.cache import SynthesisCache
from repro.core import SynthesisContext
from repro.engine import run_engine
from repro.truthtable import constant, from_hex, majority, parity, projection

ENGINES = ("bms", "fen", "lutexact", "cegis", "hier", "stp")
KWARGS = {"hier": {"max_solutions": 16}, "stp": {"max_solutions": 16}}
COUNTERS = (
    "fences_examined",
    "candidates_generated",
    "candidates_verified",
    "verification_failures",
)


def _functions():
    named = {
        "and2": from_hex("8", 2),
        "xor2": from_hex("6", 2),
        "maj3": majority(3),
        "xor3": parity(3),
        "8ff8": from_hex("8ff8", 4),
        "1ee1": from_hex("1ee1", 4),
        "0357": from_hex("0357", 4),
        "6996": from_hex("6996", 4),
        "const0": constant(0, 3),
        "proj1": projection(1, 3),
    }
    rng = random.Random(2023)
    for _ in range(12):
        table = from_hex(f"{rng.randrange(256):02x}", 3)
        named[f"r{table.to_hex()}"] = table
    return named


FUNCTIONS = _functions()
CAPS = {"maj3<=2": ("maj3", 2), "xor3<=1": ("xor3", 1), "8ff8<=2": ("8ff8", 2)}


def _run(engine, function, **kwargs):
    ctx = SynthesisContext.create(timeout=120, cache=SynthesisCache())
    kwargs = {**KWARGS.get(engine, {}), **kwargs}
    return run_engine(engine, function, 120, ctx=ctx, **kwargs)


def answer(engine, name):
    """``(gates, chains, signature digest, counters)`` of one run."""
    result = _run(engine, FUNCTIONS[name])
    signatures = repr([chain.signature() for chain in result.chains])
    digest = hashlib.sha256(signatures.encode()).hexdigest()[:16]
    counters = tuple(getattr(result.stats, key) for key in COUNTERS)
    return (result.num_gates, len(result.chains), digest, counters)


def capped(engine, cap):
    """The gate count of a capped run, or the exception it raised."""
    name, max_gates = CAPS[cap]
    try:
        return _run(engine, FUNCTIONS[name], max_gates=max_gates).num_gates
    except Exception as exc:
        return type(exc).__name__


GOLDEN = {
    ('bms', 'and2'): (1, 1, '51c0484a1323d2cf', (0, 1, 0, 0)),
    ('bms', 'xor2'): (1, 1, '6ea9f878736daa4f', (0, 1, 0, 0)),
    ('bms', 'maj3'): (4, 1, '3aaf8e7b784ce4ff', (0, 3, 0, 0)),
    ('bms', 'xor3'): (2, 1, '5339adc034ae9226', (0, 1, 0, 0)),
    ('bms', '8ff8'): (3, 1, '69ca1bc9e5b94b34', (0, 1, 0, 0)),
    ('bms', '1ee1'): (3, 1, 'e7866135e1f4fdcb', (0, 1, 0, 0)),
    ('bms', '0357'): (3, 1, 'dcce2783e06a298b', (0, 1, 0, 0)),
    ('bms', '6996'): (3, 1, '1e91e2f96ac90344', (0, 1, 0, 0)),
    ('bms', 'const0'): (0, 1, 'cd1e471792c1b4a3', (0, 0, 0, 0)),
    ('bms', 'proj1'): (0, 1, 'db81535fc752cb37', (0, 0, 0, 0)),
    ('bms', 'rc4'): (2, 1, '463cc14c375cb9dd', (0, 1, 0, 0)),
    ('bms', 're4'): (3, 1, '8aefc6c31cf005fa', (0, 2, 0, 0)),
    ('bms', 'rc7'): (3, 1, '11856db8844f9c54', (0, 2, 0, 0)),
    ('bms', 'ra3'): (3, 1, '76f941cb5beb1204', (0, 2, 0, 0)),
    ('bms', 'rac'): (3, 1, '249c21eab51bb48f', (0, 2, 0, 0)),
    ('bms', 'r33'): (0, 1, '6fe88621e96b1b48', (0, 0, 0, 0)),
    ('bms', 'r3f'): (1, 1, 'f47d098d0efe5899', (0, 1, 0, 0)),
    ('bms', 'r9b'): (3, 1, '57ee7a4ef3bc3f2c', (0, 2, 0, 0)),
    ('bms', 'r9a'): (2, 1, '11665b83282a065b', (0, 1, 0, 0)),
    ('bms', 'r5b'): (3, 1, '2c6d39c74216f1d3', (0, 2, 0, 0)),
    ('bms', 'r77'): (1, 1, 'e3ac18c36a70ba2d', (0, 1, 0, 0)),
    ('bms', 'r5a'): (1, 1, '5551c2710bc64f59', (0, 1, 0, 0)),
    ('fen', 'and2'): (1, 1, '51c0484a1323d2cf', (1, 1, 0, 0)),
    ('fen', 'xor2'): (1, 1, '6ea9f878736daa4f', (1, 1, 0, 0)),
    ('fen', 'maj3'): (4, 1, '27d9e53da9bc0fb4', (4, 4, 0, 0)),
    ('fen', 'xor3'): (2, 1, '5339adc034ae9226', (1, 1, 0, 0)),
    ('fen', '8ff8'): (3, 1, '69ca1bc9e5b94b34', (1, 1, 0, 0)),
    ('fen', '1ee1'): (3, 1, 'e7866135e1f4fdcb', (1, 1, 0, 0)),
    ('fen', '0357'): (3, 1, 'dcce2783e06a298b', (1, 1, 0, 0)),
    ('fen', '6996'): (3, 1, '8b78b587bcd5ef52', (1, 1, 0, 0)),
    ('fen', 'const0'): (0, 1, 'cd1e471792c1b4a3', (0, 0, 0, 0)),
    ('fen', 'proj1'): (0, 1, 'db81535fc752cb37', (0, 0, 0, 0)),
    ('fen', 'rc4'): (2, 1, '463cc14c375cb9dd', (1, 1, 0, 0)),
    ('fen', 're4'): (3, 1, '7321aa443a0960e6', (2, 2, 0, 0)),
    ('fen', 'rc7'): (3, 1, 'cd5977f72f02b989', (2, 2, 0, 0)),
    ('fen', 'ra3'): (3, 1, '22958bc6fca33e9f', (2, 2, 0, 0)),
    ('fen', 'rac'): (3, 1, '249c21eab51bb48f', (2, 2, 0, 0)),
    ('fen', 'r33'): (0, 1, '6fe88621e96b1b48', (0, 0, 0, 0)),
    ('fen', 'r3f'): (1, 1, 'f47d098d0efe5899', (1, 1, 0, 0)),
    ('fen', 'r9b'): (3, 1, '2ee294529f7080af', (2, 2, 0, 0)),
    ('fen', 'r9a'): (2, 1, '11665b83282a065b', (1, 1, 0, 0)),
    ('fen', 'r5b'): (3, 1, '74ce39ddd71a2e38', (2, 2, 0, 0)),
    ('fen', 'r77'): (1, 1, 'e3ac18c36a70ba2d', (1, 1, 0, 0)),
    ('fen', 'r5a'): (1, 1, '5551c2710bc64f59', (1, 1, 0, 0)),
    ('lutexact', 'and2'): (1, 1, '51c0484a1323d2cf', (0, 1, 0, 0)),
    ('lutexact', 'xor2'): (1, 1, '6ea9f878736daa4f', (0, 1, 0, 0)),
    ('lutexact', 'maj3'): (4, 1, '3aaf8e7b784ce4ff', (0, 15, 0, 0)),
    ('lutexact', 'xor3'): (2, 1, '5339adc034ae9226', (0, 2, 0, 0)),
    ('lutexact', '8ff8'): (3, 1, '69ca1bc9e5b94b34', (0, 6, 0, 0)),
    ('lutexact', '1ee1'): (3, 1, 'e7866135e1f4fdcb', (0, 6, 0, 0)),
    ('lutexact', '0357'): (3, 1, '143c533721c035c0', (0, 6, 0, 0)),
    ('lutexact', '6996'): (3, 1, '1e91e2f96ac90344', (0, 4, 0, 0)),
    ('lutexact', 'const0'): (0, 1, 'cd1e471792c1b4a3', (0, 0, 0, 0)),
    ('lutexact', 'proj1'): (0, 1, 'db81535fc752cb37', (0, 0, 0, 0)),
    ('lutexact', 'rc4'): (2, 1, '463cc14c375cb9dd', (0, 5, 0, 0)),
    ('lutexact', 're4'): (3, 1, '8aefc6c31cf005fa', (0, 10, 0, 0)),
    ('lutexact', 'rc7'): (3, 1, '11856db8844f9c54', (0, 8, 0, 0)),
    ('lutexact', 'ra3'): (3, 1, '76f941cb5beb1204', (0, 11, 0, 0)),
    ('lutexact', 'rac'): (3, 1, '249c21eab51bb48f', (0, 7, 0, 0)),
    ('lutexact', 'r33'): (0, 1, '6fe88621e96b1b48', (0, 0, 0, 0)),
    ('lutexact', 'r3f'): (1, 1, 'f47d098d0efe5899', (0, 1, 0, 0)),
    ('lutexact', 'r9b'): (3, 1, '57ee7a4ef3bc3f2c', (0, 9, 0, 0)),
    ('lutexact', 'r9a'): (2, 1, '11665b83282a065b', (0, 3, 0, 0)),
    ('lutexact', 'r5b'): (3, 1, '74ce39ddd71a2e38', (0, 8, 0, 0)),
    ('lutexact', 'r77'): (1, 1, 'e3ac18c36a70ba2d', (0, 1, 0, 0)),
    ('lutexact', 'r5a'): (1, 1, '5551c2710bc64f59', (0, 1, 0, 0)),
    ('cegis', 'and2'): (1, 1, '51c0484a1323d2cf', (0, 1, 1, 0)),
    ('cegis', 'xor2'): (1, 1, '6ea9f878736daa4f', (0, 1, 1, 0)),
    ('cegis', 'maj3'): (4, 1, '3aaf8e7b784ce4ff', (0, 5, 3, 2)),
    ('cegis', 'xor3'): (2, 1, '5339adc034ae9226', (0, 1, 1, 0)),
    ('cegis', '8ff8'): (3, 1, '69ca1bc9e5b94b34', (0, 3, 3, 2)),
    ('cegis', '1ee1'): (3, 1, 'e7866135e1f4fdcb', (0, 2, 2, 1)),
    ('cegis', '0357'): (3, 1, 'dcce2783e06a298b', (0, 3, 3, 2)),
    ('cegis', '6996'): (3, 1, '1e91e2f96ac90344', (0, 2, 2, 1)),
    ('cegis', 'const0'): (0, 1, 'cd1e471792c1b4a3', (0, 0, 0, 0)),
    ('cegis', 'proj1'): (0, 1, 'db81535fc752cb37', (0, 0, 0, 0)),
    ('cegis', 'rc4'): (2, 1, '463cc14c375cb9dd', (0, 3, 3, 2)),
    ('cegis', 're4'): (3, 1, '8aefc6c31cf005fa', (0, 4, 3, 2)),
    ('cegis', 'rc7'): (3, 1, '11856db8844f9c54', (0, 3, 2, 1)),
    ('cegis', 'ra3'): (3, 1, '76f941cb5beb1204', (0, 4, 3, 2)),
    ('cegis', 'rac'): (3, 1, '249c21eab51bb48f', (0, 4, 3, 2)),
    ('cegis', 'r33'): (0, 1, '6fe88621e96b1b48', (0, 0, 0, 0)),
    ('cegis', 'r3f'): (1, 1, 'f47d098d0efe5899', (0, 1, 1, 0)),
    ('cegis', 'r9b'): (3, 1, '57ee7a4ef3bc3f2c', (0, 5, 4, 3)),
    ('cegis', 'r9a'): (2, 1, '11665b83282a065b', (0, 2, 2, 1)),
    ('cegis', 'r5b'): (3, 1, '2c6d39c74216f1d3', (0, 5, 4, 3)),
    ('cegis', 'r77'): (1, 1, 'e3ac18c36a70ba2d', (0, 1, 1, 0)),
    ('cegis', 'r5a'): (1, 1, '5551c2710bc64f59', (0, 1, 1, 0)),
    ('hier', 'and2'): (1, 1, '51c0484a1323d2cf', (0, 0, 0, 0)),
    ('hier', 'xor2'): (1, 1, '6ea9f878736daa4f', (0, 0, 0, 0)),
    ('hier', 'maj3'): (4, 16, '9fddfb96b4315cee', (4, 8, 8, 0)),
    ('hier', 'xor3'): (2, 2, '5edeb31747cca08a', (0, 0, 0, 0)),
    ('hier', '8ff8'): (3, 4, '2a69783f1f02b876', (0, 0, 0, 0)),
    ('hier', '1ee1'): (3, 4, 'da163d40341e47a1', (0, 0, 0, 0)),
    ('hier', '0357'): (3, 4, '78f722d37ccf7f5c', (0, 0, 0, 0)),
    ('hier', '6996'): (3, 4, '66f942f06c2605fb', (0, 0, 0, 0)),
    ('hier', 'const0'): (0, 1, 'cd1e471792c1b4a3', (0, 0, 0, 0)),
    ('hier', 'proj1'): (0, 1, 'db81535fc752cb37', (0, 0, 0, 0)),
    ('hier', 'rc4'): (2, 2, '7dba9427334b769f', (0, 0, 0, 0)),
    ('hier', 're4'): (3, 16, '52ebbb6d1aabb5fd', (3, 6, 6, 0)),
    ('hier', 'rc7'): (3, 16, '4de0355bd8da52b5', (3, 4, 4, 0)),
    ('hier', 'ra3'): (3, 16, '5199dc6d1235a3b2', (3, 6, 6, 0)),
    ('hier', 'rac'): (3, 16, '461c38ba9f332fbe', (3, 6, 6, 0)),
    ('hier', 'r33'): (0, 1, '6fe88621e96b1b48', (0, 0, 0, 0)),
    ('hier', 'r3f'): (1, 1, 'd881d6a4228dca0a', (0, 0, 0, 0)),
    ('hier', 'r9b'): (3, 16, 'b4280719cd2ac9b3', (3, 4, 4, 0)),
    ('hier', 'r9a'): (2, 2, '2b15714828517859', (0, 0, 0, 0)),
    ('hier', 'r5b'): (3, 16, '0748e2b8305a213e', (3, 4, 4, 0)),
    ('hier', 'r77'): (1, 1, '779a46adecacc675', (0, 0, 0, 0)),
    ('hier', 'r5a'): (1, 1, '5551c2710bc64f59', (0, 0, 0, 0)),
    ('stp', 'and2'): (1, 1, '51c0484a1323d2cf', (1, 1, 1, 0)),
    ('stp', 'xor2'): (1, 1, '6ea9f878736daa4f', (1, 1, 1, 0)),
    ('stp', 'maj3'): (4, 8, 'e72044edd217e145', (4, 2, 2, 0)),
    ('stp', 'xor3'): (2, 6, 'e7ca65e0dbfb7b58', (1, 3, 3, 0)),
    ('stp', '8ff8'): (3, 4, '2a69783f1f02b876', (2, 1, 1, 0)),
    ('stp', '1ee1'): (3, 12, '7524b51caac8f0cb', (2, 3, 3, 0)),
    ('stp', '0357'): (3, 4, '2cb20d16dea1e3a0', (2, 1, 1, 0)),
    ('stp', '6996'): (3, 16, 'a82703259bd448a7', (2, 4, 4, 0)),
    ('stp', 'const0'): (0, 1, 'cd1e471792c1b4a3', (0, 0, 0, 0)),
    ('stp', 'proj1'): (0, 1, 'db81535fc752cb37', (0, 0, 0, 0)),
    ('stp', 'rc4'): (2, 2, 'a961cee2dc14b40a', (1, 1, 1, 0)),
    ('stp', 're4'): (3, 8, '3c9d423a58e08ec6', (2, 4, 4, 0)),
    ('stp', 'rc7'): (3, 16, '4de0355bd8da52b5', (3, 4, 4, 0)),
    ('stp', 'ra3'): (3, 8, 'd8e8cf17c5ccadb8', (2, 4, 4, 0)),
    ('stp', 'rac'): (3, 8, '39a50ee3dad4a9ed', (2, 4, 4, 0)),
    ('stp', 'r33'): (0, 1, '6fe88621e96b1b48', (0, 0, 0, 0)),
    ('stp', 'r3f'): (1, 1, 'd881d6a4228dca0a', (1, 1, 1, 0)),
    ('stp', 'r9b'): (3, 16, 'b4280719cd2ac9b3', (3, 4, 4, 0)),
    ('stp', 'r9a'): (2, 2, '6a66d1bb3c86ae09', (1, 1, 1, 0)),
    ('stp', 'r5b'): (3, 16, '0748e2b8305a213e', (3, 4, 4, 0)),
    ('stp', 'r77'): (1, 1, '779a46adecacc675', (1, 1, 1, 0)),
    ('stp', 'r5a'): (1, 1, '5551c2710bc64f59', (1, 1, 1, 0)),
}

GOLDEN_CAPPED = {
    ('bms', 'maj3<=2'): 'SynthesisInfeasible',
    ('bms', 'xor3<=1'): 'SynthesisInfeasible',
    ('bms', '8ff8<=2'): 'SynthesisInfeasible',
    ('fen', 'maj3<=2'): 'SynthesisInfeasible',
    ('fen', 'xor3<=1'): 'SynthesisInfeasible',
    ('fen', '8ff8<=2'): 'SynthesisInfeasible',
    ('lutexact', 'maj3<=2'): 'SynthesisInfeasible',
    ('lutexact', 'xor3<=1'): 'SynthesisInfeasible',
    ('lutexact', '8ff8<=2'): 'SynthesisInfeasible',
    ('cegis', 'maj3<=2'): 'SynthesisInfeasible',
    ('cegis', 'xor3<=1'): 'SynthesisInfeasible',
    ('cegis', '8ff8<=2'): 'SynthesisInfeasible',
    ('hier', 'maj3<=2'): 'SynthesisInfeasible',
    ('hier', 'xor3<=1'): 'SynthesisInfeasible',
    ('hier', '8ff8<=2'): 'SynthesisInfeasible',
    ('stp', 'maj3<=2'): 'SynthesisInfeasible',
    ('stp', 'xor3<=1'): 'SynthesisInfeasible',
    ('stp', '8ff8<=2'): 'SynthesisInfeasible',
}


@pytest.mark.parametrize("engine", ENGINES)
def test_answers_unchanged(engine):
    got = {name: answer(engine, name) for name in FUNCTIONS}
    want = {name: GOLDEN[engine, name] for name in FUNCTIONS}
    assert got == want


@pytest.mark.parametrize("engine", ENGINES)
def test_capped_answers_unchanged(engine):
    got = {cap: capped(engine, cap) for cap in CAPS}
    want = {cap: GOLDEN_CAPPED[engine, cap] for cap in CAPS}
    assert got == want


if __name__ == "__main__":
    print("GOLDEN = {")
    for engine in ENGINES:
        for name in FUNCTIONS:
            print(f"    ({engine!r}, {name!r}): {answer(engine, name)!r},")
    print("}")
    print()
    print("GOLDEN_CAPPED = {")
    for engine in ENGINES:
        for cap in CAPS:
            print(f"    ({engine!r}, {cap!r}): {capped(engine, cap)!r},")
    print("}")
