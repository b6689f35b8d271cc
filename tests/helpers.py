"""Shared test fixtures: tiny networks with controllable loss, and a
thread-pool sweep backend."""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.net.topology import build_star
from repro.runner.backends import ProcessPoolBackend
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig, TcpSink, TcpSource
from repro.tcp.factory import create_source

FAST = dict(min_rto=0.01, initial_rto=0.01)
"""Millisecond-scale RTO so loss tests run in simulated milliseconds."""


def make_pair(
    protocol: str = "reno",
    n_servers: int = 1,
    bandwidth: float = 1e9,
    delay: float = 50e-6,
    buffer_pkts: int = 100,
    config: Optional[TcpConfig] = None,
    ecn_threshold: Optional[int] = None,
    frontend_bandwidth: Optional[float] = None,
    **source_kwargs,
):
    """One server, one front-end, one connection of ``protocol``.

    Pass ``frontend_bandwidth`` below ``bandwidth`` to make the switch
    egress the bottleneck (required when the queue under test must form
    at a marking-capable switch port rather than the host NIC).

    Returns (sim, star, source, sink).
    """
    sim = Simulator()
    star = build_star(
        sim,
        n_servers,
        bandwidth_bps=bandwidth,
        delay_s=delay,
        buffer_pkts=buffer_pkts,
        ecn_threshold_pkts=ecn_threshold,
        frontend_bandwidth_bps=frontend_bandwidth,
    )
    if config is None:
        config = TcpConfig(**FAST)
    source = create_source(
        protocol,
        sim,
        star.servers[0],
        star.frontend.node_id,
        flow_id=1,
        config=config,
        **source_kwargs,
    )
    sink = TcpSink(sim, star.frontend, flow_id=1)
    return sim, star, source, sink


def drop_seqs_once(seqs) -> Callable[[Packet], bool]:
    """Drop the first transmission of each data segment in ``seqs``."""
    pending = set(seqs)

    def should_drop(pkt: Packet) -> bool:
        if pkt.is_data and pkt.seq in pending and not pkt.is_retransmission:
            pending.discard(pkt.seq)
            return True
        return False

    return should_drop


def install_loss(link, should_drop) -> None:
    """Wrap ``link.send`` to silently discard selected packets.

    Intercepting at ``send`` (not the queue) catches packets that would
    bypass the queue straight into transmission on an idle link.
    """
    original = link.send

    def lossy_send(pkt: Packet) -> None:
        if should_drop(pkt):
            link.queue.stats.dropped += 1
            return
        original(pkt)

    link.send = lossy_send


class ThreadPoolBackend(ProcessPoolBackend):
    """A pool backend on threads instead of processes.

    Workers share this process, so an experiment's in-memory state
    (counters, events) is visible to the test, and straggler timing is
    deterministic.  Experiments must still be registered: the pool
    worker resolves them by id, exactly as in a process pool.
    """

    name = "threads"

    def _make_pool(self, max_workers: int) -> concurrent.futures.Executor:
        return concurrent.futures.ThreadPoolExecutor(max_workers)
