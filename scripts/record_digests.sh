#!/bin/sh
# SHA-256 of the `tquad record` output, plain (v3) and `--compress` (v4),
# for the quickstart example, the tiny wfs scenario and both demo apps.
# `dune runtest` regenerates this (test/dune) and diffs it against the
# committed test/record_digests.txt (accept an intended change with
# `dune promote`): the recorder and the container are
# deterministic, so any byte that changes in a recording is a format change
# and must come with a digest update (and a reader that still decodes the
# old files) in the same commit.
#
# Usage: scripts/record_digests.sh <path-to-tquad_cli.exe>
set -e
CLI="$1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for target in examples/mc/quickstart.mc "--wfs tiny" "--app pointer-chase" \
  "--app image-pipeline"; do
  for mode in plain compress; do
    flag=""
    [ "$mode" = compress ] && flag="--compress"
    # $target and $flag are deliberately unquoted: each is zero, one or two
    # words of the command line
    "$CLI" record $target $flag -o "$tmp/out.trc" > /dev/null 2>&1
    sum=$(sha256sum "$tmp/out.trc" | cut -d' ' -f1)
    echo "$sum  $mode $target"
  done
done
