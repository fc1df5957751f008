#!/usr/bin/env sh
# CI gate on the committed bench artifacts:
#
#  1. every BENCH_*.json CHANGES.md cites must be committed - CHANGES.md
#     records perf claims against named documents, and a claim whose
#     artifact was never committed (or was renamed away) is
#     unverifiable;
#  2. every committed artifact means what its field names say: in any
#     object carrying `edges_total`, no `edges_covered*` field exceeds
#     it, and no `streams_identical` field anywhere is false.
#
# Run from anywhere inside the repository. Needs python3 for check 2.
set -eu

cd "$(git rev-parse --show-toplevel)"

REFS=$(grep -o 'BENCH_[A-Za-z0-9_]*\.json' CHANGES.md | sort -u || true)

if [ -z "$REFS" ]; then
  echo "ok: CHANGES.md references no bench artifacts"
  exit 0
fi

MISSING=""
for REF in $REFS; do
  if ! git ls-files --error-unmatch "bench/$REF" >/dev/null 2>&1; then
    MISSING="$MISSING $REF"
  fi
done

if [ -n "$MISSING" ]; then
  echo "error: CHANGES.md references bench artifacts not tracked in bench/:" >&2
  for REF in $MISSING; do
    echo "  $REF" >&2
  done
  echo "hint: run the bench in a release build, un-ignore the file in .gitignore, and commit bench/<name>" >&2
  exit 1
fi

echo "ok: every bench artifact referenced in CHANGES.md is committed"

git ls-files 'bench/BENCH_*.json' | python3 -c '
import json, sys
bad = []
def walk(path, node):
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else [])
    total = node.get("edges_total") if isinstance(node, dict) else None
    for key, val in items:
        where = "%s.%s" % (path, key)
        if key == "streams_identical" and val is False:
            bad.append(where + " is false")
        if str(key).startswith("edges_covered") and total is not None \
                and val > total:
            bad.append("%s = %s > edges_total = %s" % (where, val, total))
        walk(where, val)
for name in sys.stdin.read().split():
    walk(name, json.load(open(name)))
for line in bad:
    sys.stderr.write("error: " + line + "\n")
sys.exit(1 if bad else 0)
'

echo "ok: committed bench artifacts keep covered <= total and identical streams"
