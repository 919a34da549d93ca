"""One benchmark command in a fresh interpreter.

    python3 child.py SRC --import-only
    python3 child.py SRC STATS [--trace SPANS] -- CLI-ARGS...

SRC is the checkout's src directory; the package must come from there.  When
the command ends, whether or not it succeeds, the process's peak resident set
goes to STATS, and with --trace the spans of the wrapped layer functions go to
SPANS.  The peak is read here, from VmHWM: the rusage a parent gets back also
counts the parent's own pages, which the child shared until exec.
"""

import os
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    src = os.path.realpath(argv[0])
    sys.path.insert(0, src)
    import horocount.cli

    if not os.path.realpath(horocount.cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"horocount was imported from {horocount.cli.__file__}, not {src}\n")
        return 3
    if argv[1] == "--import-only":
        return 0
    stats, rest = argv[1], argv[2:]
    tracer = None
    if rest[0] == "--trace":
        from spans import Tracer  # the script's own directory is on sys.path

        tracer = Tracer()
        tracer.install()
        spans, rest = rest[1], rest[2:]
    try:
        return horocount.cli.main(rest[1:])
    finally:
        if tracer is not None:
            tracer.dump(spans)
        with open(stats, "w", encoding="ascii") as fh:
            fh.write(f"{peak_rss_kb()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
