"""Run the provisioning service with every layer traced.

Wraps the layers' public calls (see ``benchlib/tracing.py``), then
calls :func:`repro.service.app.run_service` with the default config
on the given port and cache directory.  The spans stay in memory and
are written to ``--spans`` after SIGTERM's graceful drain returns.

    PYTHONPATH=src python3 perfbench/traced_serve.py \\
        --port 0 --cache-dir /tmp/cache --spans /tmp/spans.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchlib.tracing import Tracer, install_service


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    from repro.service.app import ServiceConfig, run_service

    tracer = Tracer()
    install_service(tracer)
    code = run_service(ServiceConfig(port=args.port, cache_dir=args.cache_dir))
    Path(args.spans).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
