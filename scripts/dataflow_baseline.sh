#!/bin/sh
# Canonical summary of `tquad check --dataflow` over every example, both
# demo apps and the tiny wfs scenario, followed by the `tquad wcet` loop
# listing and bound of every example.  `dune runtest` regenerates this
# (test/dune) and diffs it against the committed test/dataflow_baseline.txt
# (accept an intended change with `dune promote`) — any change to trip
# counts, access-pattern classification, diagnostic totals, loop nests or
# WCET bounds must come with a baseline update in the same commit.
#
# Usage: scripts/dataflow_baseline.sh <path-to-tquad_cli.exe>
set -e
CLI="$1"
summarize() {
  # keep the stable lines: check totals, per-loop trips, summary counters
  grep -E '^(check:|  loop @|loops:)' || true
}
for f in examples/mc/*.mc; do
  echo "== $f"
  "$CLI" check --dataflow "$f" 2>/dev/null | summarize
done
for app in image-pipeline pointer-chase; do
  echo "== app:$app"
  "$CLI" check --dataflow --app "$app" 2>/dev/null | summarize
done
echo "== wfs:tiny"
"$CLI" check --dataflow --wfs tiny 2>/dev/null | summarize
for f in examples/mc/*.mc; do
  echo "== wcet $f"
  "$CLI" wcet "$f" 2>&1 | grep -v '^$' || true
done
