"""``python -m repro.serve`` — run the serving layer from a shell."""

from __future__ import annotations

import argparse
import asyncio

from .server import ReproServer, ServeConfig


def _parse_args(argv=None) -> ServeConfig:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="asyncio edge-inference server over the repro engine",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7070)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-delay-ms", type=float, default=2.0)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--tenant-rate", type=float, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--default-deadline-ms", type=float, default=1000.0)
    parser.add_argument(
        "--fog-nodes", type=int, default=None,
        help="dispatch through an N-node fog topology (default: direct engine)",
    )
    parser.add_argument("--fog-replicas", type=int, default=2)
    parser.add_argument(
        "--fog-fabric", action="store_true",
        help="promote the fog to supervised node *processes* behind "
             "sockets, with heartbeat failure detection, circuit breakers "
             "and restart-with-backoff (requires --fog-nodes)",
    )
    parser.add_argument(
        "--fog-heartbeat-ms", type=float, default=100.0,
        help="fabric failure-detector probe interval",
    )
    parser.add_argument(
        "--fog-miss-budget", type=int, default=3,
        help="consecutive missed heartbeats before a node is suspect",
    )
    parser.add_argument(
        "--fog-hedge-ms", type=float, default=None,
        help="hedge fabric interests to a second replica after this "
             "silence (default: no hedging)",
    )
    parser.add_argument(
        "--no-fog-degrade", action="store_true",
        help="fail fabric interests when every owner is unreachable "
             "instead of degrading to counted in-process execution",
    )
    parser.add_argument(
        "--fog-store-policy", choices=("lru", "costaware"), default="lru",
        help="content-store admission policy per fog node: plain LRU, or "
             "frequency-sketch x recompute-cost admission (TinyLFU-style)",
    )
    parser.add_argument(
        "--fog-store-reverify", type=int, default=1,
        help="re-hash cached results against their pinned digest every "
             "Nth hit (1 = every hit, 0 = never)",
    )
    args = parser.parse_args(argv)
    if args.fog_fabric and not args.fog_nodes:
        parser.error("--fog-fabric requires --fog-nodes")
    return ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        queue_limit=args.queue_limit,
        tenant_rate=args.tenant_rate,
        workers=args.workers,
        default_deadline_ms=args.default_deadline_ms,
        fog_nodes=args.fog_nodes,
        fog_replicas=args.fog_replicas,
        fog_fabric=args.fog_fabric,
        fog_heartbeat_ms=args.fog_heartbeat_ms,
        fog_miss_budget=args.fog_miss_budget,
        fog_hedge_ms=args.fog_hedge_ms,
        fog_degrade_local=not args.no_fog_degrade,
        fog_store_policy=args.fog_store_policy,
        fog_store_reverify=args.fog_store_reverify,
    )


async def _main(config: ServeConfig) -> None:
    async with ReproServer(config) as server:
        host, port = server.address
        print(f"repro.serve listening on {host}:{port} "
              f"(NDJSON data plane + HTTP /healthz /metrics /stats)")
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass


if __name__ == "__main__":
    try:
        asyncio.run(_main(_parse_args()))
    except KeyboardInterrupt:
        pass
