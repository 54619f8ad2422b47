#!/bin/sh
# SHA-256 of the stdout, with the exit status, of every live tool report:
# `tquad`, `quad`, `gprof`, `callgraph`, `mix`, `cache` and `footprint`,
# plus `tquad --track-all --slice 2000` and `quad --track-all`, over every
# example, the tiny wfs scenario and both demo apps.  `dune runtest`
# regenerates this (test/dune) and diffs it against the committed
# test/report_digests.txt (accept an intended change with `dune promote`):
# the live tools are deterministic, so any changed byte of a report is a
# behaviour change and must come with a digest update in the same commit.
# (CI's live-vs-replay smoke only compares two paths with each other, and
# `--track-all` has no replay path; this pins the bytes themselves.)
#
# Usage: scripts/report_digests.sh <path-to-tquad_cli.exe>
set -e
CLI="$1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for target in examples/mc/*.mc "--wfs tiny" "--app image-pipeline" \
  "--app pointer-chase"; do
  for tool in tquad quad gprof callgraph mix cache footprint \
    "tquad --track-all --slice 2000" "quad --track-all"; do
    status=0
    # $target and $tool are deliberately unquoted: each is one to four
    # words of the command line; the program's console goes to stderr
    "$CLI" $tool $target > "$tmp/out.txt" 2> /dev/null || status=$?
    out=$(sha256sum "$tmp/out.txt" | cut -d' ' -f1)
    echo "$out  $tool $target (exit $status)"
  done
done
