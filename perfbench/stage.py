"""Run one ``emberish`` command in this process, optionally traced.

    python3 perfbench/stage.py --peak FILE [--spans FILE --stage-id ID] -- ARGS...

``ARGS`` go to the package's own CLI entry point unchanged, and the exit
code is the CLI's. On the way out the process writes its peak resident set
(``VmHWM``, in kB) to the ``--peak`` file. With ``--spans`` the layer
functions are wrapped first and their spans are written to that file once
the command returns.
"""

from __future__ import annotations

import sys
from pathlib import Path


def peak_rss_kb() -> int:
    """High-water RSS of this process image. ``wait4``'s ``ru_maxrss`` is no
    substitute: Linux carries the launching process's high-water mark into
    the child across vfork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 1
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    args = argv[split + 1:]

    from emberish.cli import main as cli_main

    recorder = None
    if "--spans" in opts:
        from spans import ROOT_SPAN, Recorder, install

        recorder = Recorder()
        for target in install(recorder):
            print(f"perfbench: not traced, {target} not found", file=sys.stderr)
        cli_main = recorder.wrap(ROOT_SPAN, cli_main)
    try:
        return cli_main(args)
    finally:
        if recorder is not None:
            recorder.write(Path(opts["--spans"]), opts.get("--stage-id", "stage"))
        Path(opts["--peak"]).write_text(f"{peak_rss_kb()}\n", encoding="ascii")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
