"""The asyncio server the serve-static workload measures.

Binds and listens on an ephemeral port first and prints it, so the
benchmark can connect and queue ``/healthz`` while the server pays its
start (warm dataset load, sealing all 59 artifacts, wire compile); the
answer arrives the moment the server is ready.  Runs serially, at the
program defaults, until SIGTERM:

    PYTHONPATH=src python perfbench/serve_child.py CACHE_DIR
"""

from __future__ import annotations

import socket
import sys


def main(cache_dir: str) -> None:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    sock.listen(128)
    print(sock.getsockname()[1], flush=True)

    from repro.exec import DatasetCache
    from repro.serve.aio import create_aio_server, run_aio

    run_aio(create_aio_server(cache=DatasetCache(cache_dir), sock=sock))


if __name__ == "__main__":
    main(sys.argv[1])
