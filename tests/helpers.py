"""Shared test helpers."""

from __future__ import annotations

import os

import pytest

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


def stacked_chain(chains) -> BooleanChain:
    """One multi-output chain over the shared inputs of ``chains``:
    each chain's gates appended in turn, its outputs declared after
    them, and no gate shared."""
    n = chains[0].num_inputs
    stacked = BooleanChain(n)
    for chain in chains:
        offset = stacked.num_signals - n

        def moved(signal: int) -> int:
            if signal == BooleanChain.CONST0 or signal < n:
                return signal
            return signal + offset

        for gate in chain.gates:
            stacked.add_gate(gate.op, tuple(moved(f) for f in gate.fanins))
        for signal, complemented in chain.outputs:
            stacked.set_output(moved(signal), complemented)
    return stacked


def record_tasks(monkeypatch) -> list:
    """Record the :class:`~repro.runtime.worker.WorkerTask` of every
    isolated attempt (the returned list fills in place)."""
    from repro.runtime.worker import WorkerHandle

    tasks: list = []
    original = WorkerHandle.__init__

    def init(self, task, pool):
        tasks.append(task)
        original(self, task, pool)

    monkeypatch.setattr(WorkerHandle, "__init__", init)
    return tasks


def record_attempts(monkeypatch) -> list:
    """Record ``(engine, worker pid)`` for every isolated attempt (the
    returned list fills in place)."""
    from repro.runtime.worker import WorkerHandle

    attempts: list = []
    original = WorkerHandle.__init__

    def init(self, task, pool):
        original(self, task, pool)
        attempts.append((task.engine, self.pid))

    monkeypatch.setattr(WorkerHandle, "__init__", init)
    return attempts


def record_worker_forks(monkeypatch) -> list:
    """Record every worker process the runtime forks, by wrapping the
    process start (the returned list fills in place)."""
    import multiprocessing

    process_cls = multiprocessing.get_context("fork").Process
    original = process_cls.start
    forked: list = []

    def start(self):
        original(self)
        forked.append(self)

    monkeypatch.setattr(process_cls, "start", start)
    return forked


def assert_reaped(pid: int) -> None:
    """``pid`` names no process and no zombie: it was killed and reaped."""
    with pytest.raises((ProcessLookupError, ChildProcessError)):
        # Reaped children are gone from the process table; a pid
        # still probe-able here would be an orphan (or a zombie).
        os.kill(pid, 0)
        os.waitpid(pid, os.WNOHANG)

