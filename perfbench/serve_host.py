"""Run ``repro-dsm serve`` with an optional profiler the caller toggles.

    python3 perfbench/serve_host.py [--profile FILE] -- serve --jobs 1 ...

Everything after ``--`` goes to the ``repro-dsm`` command line
unchanged.  With ``--profile``, SIGUSR1 starts profiling the server's
main thread (the event loop, where the HTTP, codec and scheduling
layers run) and SIGUSR2 stops it; the profile is written to FILE when
the server exits after SIGTERM.  Pool workers are forked at start-up,
before any profiling, so they are never profiled.
"""

from __future__ import annotations

import cProfile
import signal
import sys


def main(argv) -> int:
    profile_path = None
    if argv[:1] == ["--profile"]:
        profile_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.harness.cli import main as cli_main

    profile = cProfile.Profile()
    if profile_path is not None:
        signal.signal(signal.SIGUSR1, lambda *_: profile.enable())
        signal.signal(signal.SIGUSR2, lambda *_: profile.disable())
    try:
        return cli_main(argv)
    finally:
        if profile_path is not None:
            profile.disable()
            profile.dump_stats(profile_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
