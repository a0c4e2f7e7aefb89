"""Run one ``repro`` CLI command with the boundary wrappers installed.

    python3 perfbench/launch.py SPANS_DIR evaluate Xeon-E5462 --seed 7 --json out.json
    python3 perfbench/launch.py SPANS_DIR serve --port 0 --state-dir st --port-file pf

The same as ``python -m repro <args>``, except that after ``repro.cli`` is
imported every boundary in ``spans.BOUNDARIES`` is wrapped, and the
process's spans are written to ``SPANS_DIR`` when the command returns
(for ``serve``, after SIGTERM has drained it).
"""

from __future__ import annotations

import sys


def main() -> int:
    out_dir, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    import spans

    recorder = spans.Recorder()
    spans.install(recorder, out_dir=out_dir)
    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(out_dir)


if __name__ == "__main__":
    sys.exit(main())
