#!/bin/sh
# SHA-256 of the stdout and of the stderr of `tquad check`, `tquad check
# --dataflow`, `tquad check --bandwidth` and `tquad check --dataflow
# --bandwidth`, with the exit status, for every example, both demo apps and
# the tiny wfs scenario.  `dune runtest` regenerates this
# (test/dune) and diffs it against the committed test/check_digests.txt
# (accept an intended change with `dune promote`): the static checker is
# deterministic, so any changed diagnostic, summary line or exit code is a
# behaviour change and must come with a digest update in the same commit.
# (test/dataflow_baseline.txt keeps only the summary lines of
# `check --dataflow`; this pins every byte of all four modes, including the
# static-vs-measured table that the --bandwidth modes print after a tQUAD
# run.)
#
# Usage: scripts/check_digests.sh <path-to-tquad_cli.exe>
set -e
CLI="$1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for target in examples/mc/*.mc "--app image-pipeline" "--app pointer-chase" \
  "--wfs tiny"; do
  for mode in plain dataflow bandwidth dataflow+bandwidth; do
    # plain: no flag; dataflow+bandwidth: --dataflow --bandwidth
    flag=$(echo "--$mode" | sed -e 's/^--plain$//' -e 's/+/ --/')
    status=0
    # $target and $flag are deliberately unquoted: each is zero, one or two
    # words of the command line
    "$CLI" check $target $flag > "$tmp/out.txt" 2> "$tmp/err.txt" || status=$?
    out=$(sha256sum "$tmp/out.txt" | cut -d' ' -f1)
    err=$(sha256sum "$tmp/err.txt" | cut -d' ' -f1)
    echo "$out $err  $mode $target (exit $status)"
  done
done
