"""One benchmark job in a fresh process: ``child.py SPEC [TRACE_FILE]``.

SPEC is a JSON file holding either ``{"setup": IFS_PATH}``, which pays only
the set-up every CLI call pays before its first level (import, parse and
validate the IFS, build the natural cylinder function), or ``{"calls": [ARGV,
...]}``, which runs ``selfaffine.cli.main`` once per argument list.  With
TRACE_FILE the library's layer functions are wrapped and the spans written
there when the job ends.  Run with the checkout's ``src`` on PYTHONPATH and
the checkout root as working directory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    import selfaffine

    src = Path.cwd().resolve() / "src"
    if src not in Path(selfaffine.__file__).resolve().parents:
        print(f"selfaffine was imported from {selfaffine.__file__}, not from {src}", file=sys.stderr)
        return 3

    if "setup" in spec:
        ifs = selfaffine.parse_ifs_file(spec["setup"])
        selfaffine.validate_ifs(ifs)
        selfaffine.NaturalCylinderFunction(ifs)
        return 0

    from selfaffine import cli

    tracer = None
    run = cli.main
    if len(argv) > 2:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)
    try:
        for call, args in enumerate(spec["calls"]):
            if tracer is not None:
                tracer.call = call
            code = run(args)
            if code != 0:
                return code
    finally:
        if tracer is not None:
            tracer.dump(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
