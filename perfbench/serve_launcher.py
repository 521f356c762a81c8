"""Start the ``repro serve`` daemon, optionally with layer tracing.

Usage::

    python3 perfbench/serve_launcher.py [--spans-out FILE] serve ARGS...

With ``--spans-out`` the layer wrappers of ``tracing.py`` are installed
before the CLI entry runs, and every recorded span is written to FILE
once the daemon shuts down.  Without it the launcher only calls the CLI
entry, so traced and untraced daemons start the same way.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out, argv = argv[1], argv[2:]
    from repro import cli

    if spans_out is None:
        return cli.main(argv)
    import tracing

    tracing.install()
    tracing.RECORDER.enabled = True
    try:
        return cli.main(argv)
    finally:
        tracing.RECORDER.enabled = False
        with open(spans_out, "w") as fh:
            json.dump({"spans": [s.to_dict() for s in tracing.RECORDER.spans],
                       "retained_pairs": tracing.RECORDER.retained_pairs},
                      fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
