"""``pakelab serve`` with the benchmark's span wrappers installed.

    python -m perfbench.serve_traced SPANS.jsonl serve --listen ... --store ...

Installs the same wrappers as the load generator, runs
pakelab.cli.main(["serve", ...]) and, once the service stops on SIGINT,
writes every span it recorded to SPANS.jsonl.
"""

import signal
import sys

from perfbench.tracing import Tracer


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import pakelab.cli
    try:
        return pakelab.cli.main(cli_args)
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)    # let the dump finish
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
