"""Shared test helpers."""

from __future__ import annotations

from repro.chain import BooleanChain
from repro.core.circuit_sat import verify_chain
from repro.core.spec import SynthesisSpec
from repro.truthtable import TruthTable


def assert_chain_realizes(spec, chain: BooleanChain) -> None:
    """Oracle: ``chain`` realises the target function, checked through
    two independent code paths.

    ``spec`` may be a :class:`SynthesisSpec` or a bare
    :class:`TruthTable`.  Both the structural simulation
    (:meth:`BooleanChain.simulate_output`, which never touches the
    solvers) and the packed-cube AllSAT verifier must agree the chain
    computes the target — a disagreement between the two is reported
    distinctly because it means the *verifier* is broken, not the
    chain.
    """
    target = spec.function if isinstance(spec, SynthesisSpec) else spec
    assert isinstance(target, TruthTable)
    simulated = chain.simulate_output()
    assert simulated == target, (
        f"chain simulates to 0x{simulated.to_hex()}, "
        f"expected 0x{target.to_hex()}"
    )
    assert verify_chain(chain, target), (
        "simulation accepts the chain but the packed AllSAT verifier "
        f"rejects it for 0x{target.to_hex()} — verifier bug"
    )


def random_chain(rnd, num_inputs: int = 4, num_gates: int = 5) -> BooleanChain:
    """A random (not necessarily meaningful) chain for property tests."""
    chain = BooleanChain(num_inputs)
    for _ in range(num_gates):
        hi = chain.num_signals
        a = rnd.randrange(hi)
        b = rnd.randrange(hi)
        while b == a:
            b = rnd.randrange(hi)
        chain.add_gate(rnd.randrange(16), (a, b))
    chain.set_output(chain.num_signals - 1, bool(rnd.getrandbits(1)))
    return chain


def record_race_lanes(monkeypatch) -> list:
    """Record the :class:`~repro.runtime.worker.WorkerTask` of every
    race lane the executor spawns (the returned list fills in place)."""
    import repro.runtime.executor as executor_mod

    tasks: list = []

    class RecordingHandle(executor_mod.WorkerHandle):
        def __init__(self, task):
            tasks.append(task)
            super().__init__(task)

    monkeypatch.setattr(executor_mod, "WorkerHandle", RecordingHandle)
    return tasks
