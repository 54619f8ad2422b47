#!/bin/sh
# SHA-256 of each example executable's stdout, with its exit status.
# `dune runtest` regenerates this (test/dune) and diffs it against the
# committed test/example_digests.txt (accept an intended change with
# `dune promote`): the examples are deterministic and reach the
# compiler, the engine, the profilers, phase detection and the report
# renderers, so any changed byte of their output is a behaviour change and
# must come with a digest update in the same commit.
#
# Usage: scripts/example_digests.sh <dir-holding-the-example-exes>
# (after `dune build`, that is _build/default/examples)
set -e
BIN=$(cd "$1" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for ex in quickstart wfs_phases matmul_bandwidth stream_triad \
  task_clustering image_pipeline pointer_chase; do
  # each runs in an empty directory, so a file an example writes can
  # neither leak into the tree nor feed the next run
  rm -rf "$tmp/run" && mkdir "$tmp/run"
  status=0
  (cd "$tmp/run" && "$BIN/$ex.exe" > "$tmp/out.txt" 2> /dev/null) || status=$?
  sum=$(sha256sum "$tmp/out.txt" | cut -d' ' -f1)
  echo "$sum  $ex (exit $status)"
done
