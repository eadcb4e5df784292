"""One polariton-lab CLI run in a fresh interpreter, timed at its boundaries.

    python3 perfbench/child.py SPANS.json {plain|traced} -- <CLI arguments>

Runs ``polariton_lab.cli.main`` with the CLI arguments and writes the
package import time and the recorded spans to SPANS.json.  ``plain`` wraps
only the config parse and the run (the two boundaries the end-to-end
metrics need); ``traced`` wraps every public function of the layer modules.
The exit status is the CLI's.
"""

import sys
import time

_t0 = time.perf_counter()
import polariton_lab.cli as cli  # noqa: E402  (the import is what is timed)
_import_s = time.perf_counter() - _t0

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("plain", "traced") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, mode, cli_args = argv[0], argv[1], argv[3:]
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: polariton_lab imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    tracer = spans.Tracer()
    tracer.install(spans.layer_functions() if mode == "traced"
                   else spans.entry_functions())
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    Path(out_path).write_text(
        json.dumps({"import_s": _import_s, "spans": tracer.spans}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
