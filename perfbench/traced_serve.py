"""Start ``tools/serve.py`` with span recording around the service's layers.

Usage::

    python3 perfbench/traced_serve.py --spans-out PATH [serve.py arguments]

The launcher installs the span wrappers (:func:`spans.install_service_layers`)
and then calls ``serve.main`` with the remaining arguments.  When the server
stops (SIGINT), every recorded span is written to ``PATH``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.pin_environment()

import serve  # noqa: E402
import spans  # noqa: E402


def main(argv: list[str]) -> int:
    i = argv.index("--spans-out")
    out = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    rec = spans.Recorder()
    spans.install_service_layers(rec, serve)
    try:
        return serve.main(rest)
    finally:
        tmp = out + ".tmp.npz"
        rec.write(tmp)
        os.replace(tmp, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
