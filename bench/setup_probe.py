"""Fresh-process set-up probe: import tailbound from the given source
directory, parse the instance documents read from stdin (a JSON list of
document strings) and expand their tasks, then print ``ready``.

Usage: python3 bench/setup_probe.py <src-dir> < documents.json
"""

import json
import sys


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import tailbound

    tasks = sum(len(tailbound.parse_instance(text).tasks()) for text in json.load(sys.stdin))
    print(f"ready {tasks}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
