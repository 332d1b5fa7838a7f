"""Set-up probe: import liemorph, load and validate a workload's configs, say "ready".

    python3 benchmarks/setup_probe.py SEED KIND=CONFIG [KIND=CONFIG ...]

``run.py`` starts this as a fresh process several times and times each start
up to the "ready" line, which is the benchmark's ``setup_s``.
"""

import sys


def main(argv):
    seed = int(argv[0])
    import liemorph.cli as cli

    for spec in argv[1:]:
        kind, _, path = spec.partition("=")
        cli.load_config(kind, path, seed_override=seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
