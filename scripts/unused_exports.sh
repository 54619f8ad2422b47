#!/usr/bin/env bash
# No export without a caller.  Every `val` in lib/**/*.mli must be used
# outside its own module:
#
#   - by a caller: a file under lib/, bin/, bench/, perfbench/ or examples/
#     other than the value's own .ml/.mli; or
#   - only by test/, and then it must be listed in
#     scripts/unused_exports_allowlist.txt as `Module.name  # reason` (the
#     reason names the test and the code under test that needs the value as
#     an oracle or an input builder).
#
# The match is word-level: any occurrence of the name as an identifier
# counts, whatever module it belongs to.  A name collision can therefore only
# hide a dead export, never flag a live one.  Members of module types (the
# Tool.S signature) are implemented, not called, and are skipped.  An
# allowlist entry `Module.*` covers a whole module; an entry naming no
# export fails, so the list cannot go stale.
#
# Usage: scripts/unused_exports.sh   (from anywhere; exits 1 on a finding)
set -euo pipefail
cd "$(dirname "$0")/.."
allowlist=scripts/unused_exports_allowlist.txt

# every export: "<mli path> <Module[.Sub].name>"
exports=$(find lib -name '*.mli' | sort | while read -r mli; do
  base=$(basename "$mli" .mli)
  awk -v mli="$mli" -v mod="${base^}" '
    /^module type / { in_type = 1; next }
    in_type && /^end/ { in_type = 0; next }
    in_type { next }
    match($0, /^module [A-Z][A-Za-z0-9_]* : sig/) { split($0, w, " "); sub_ = w[2] "."; next }
    /^end/ { sub_ = ""; next }
    match($0, /^ *val [a-z_][A-Za-z0-9_'"'"']*/) {
      name = substr($0, RSTART, RLENGTH); sub(/^ *val /, "", name)
      print mli, mod "." sub_ name
    }' "$mli"
done)

# every identifier-like word of every source file: "<file> <word>"
words=$(grep -rowH --include='*.ml' --include='*.mli' "[A-Za-z_][A-Za-z0-9_']*" \
          lib bin bench perfbench examples test | sed 's/:/ /' | sort -u)

{ echo "$exports" | sed 's/^/E /'
  echo "$words" | sed 's/^/W /'
  sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$allowlist" | awk '{ print "A", $1 }'
} | awk '
  $1 == "A" { allow[$2] = 1; next }
  $1 == "E" { n++; mli[n] = $2; qual[n] = $3; next }
  $1 == "W" { files[$3] = files[$3] " " $2; next }
  END {
    status = 0
    for (i = 1; i <= n; i++) {
      own = mli[i]; sub(/\.mli$/, "", own)
      k = split(qual[i], parts, "."); name = parts[k]; mod = parts[1]
      caller = 0; tested = 0
      m = split(files[name], fs, " ")
      for (j = 1; j <= m; j++) {
        f = fs[j]; stem = f; sub(/\.mli?$/, "", stem)
        if (stem == own) continue
        if (f ~ /^test\//) tested = 1; else caller = 1
      }
      listed = (qual[i] in allow) || ((mod ".*") in allow)
      if (qual[i] in allow) used[qual[i]] = 1
      if ((mod ".*") in allow) used[mod ".*"] = 1
      if (caller) continue
      if (!tested) {
        printf "%s: %s has no reference outside its own module\n", mli[i], qual[i]
        status = 1
      } else if (!listed) {
        printf "%s: %s is used only by test/ and is not on the allowlist\n", mli[i], qual[i]
        status = 1
      }
    }
    for (a in allow) if (!(a in used)) {
      printf "scripts/unused_exports_allowlist.txt: %s names no export\n", a
      status = 1
    }
    exit status
  }'
