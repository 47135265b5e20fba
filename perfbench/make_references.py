"""Write perfbench/references.json: the digest of every workload output.

Usage, from the repository root:

    python3 perfbench/make_references.py

Each invocation of every workload runs once; its --json output, normalized
as run.normalize describes, is stored as a SHA-256 digest.  Every benchmark
run checks its outputs against these digests, so regenerate them only when a
change is meant to alter the output, and say so.
"""

import sys

from run import REFERENCES, WORKLOADS, BenchError, write_references

if __name__ == "__main__":
    try:
        write_references(WORKLOADS, REFERENCES)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    print(f"wrote {REFERENCES}")
