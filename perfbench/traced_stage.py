"""Run one ``miscuq`` CLI stage with span recording installed.

Usage: python3 perfbench/traced_stage.py SPANS_JSON STAGE [miscuq options...]

The stage runs exactly as ``python3 -m miscuq STAGE ...`` would, with
``src`` on PYTHONPATH; the spans are written to SPANS_JSON at exit and the
stage's exit code is passed through.
"""

import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    from miscuq import cli

    try:
        return cli.main(argv)
    finally:
        recorder.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
