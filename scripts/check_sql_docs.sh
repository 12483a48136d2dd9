#!/bin/sh
# docs-check: every statement keyword the SQL parser accepts must be
# mentioned in docs/SQL.md, so new grammar cannot land undocumented. The
# keyword list is extracted from the parser's own dispatch tables:
#   - parseStatement  (top-level: SELECT, CREATE, BEGIN, ...)
#   - parseCreate / parseDrop introducers (TABLE, PROJECTION, PARTITION,
#     RESOURCE POOL)
#   - parsePoolOpts   (MEMORYSIZE, MAXMEMORYSIZE, QUEUETIMEOUT, ...)
# Every system-table column must be mentioned there too, as `name`: the
# columns are the vt:"name[,opts]" struct tags of non-test Go under internal/.
set -eu
doc="docs/SQL.md"
parser="internal/sql/parser.go"
[ -f "$doc" ] || { echo "docs-check: $doc is missing" >&2; exit 1; }

extract() { # extract <function-name>: keyword/ident tokens it dispatches on
  out=$(awk "/^func \\(p \\*parser\\) $1\\(/,/^}/" "$parser" |
    grep -oE 'tok(Keyword|Ident), "[A-Za-z_]+"' |
    sed -E 's/.*"([A-Za-z_]+)"/\1/')
  # Fail loudly per source: a renamed/refactored dispatch function must
  # break this script, not silently shrink the keyword set it guards.
  [ -n "$out" ] || { echo "docs-check: extracted no keywords from $1 in $parser (grammar moved?)" >&2; exit 1; }
  echo "$out"
}

poolopts=$(awk '/^func \(p \*parser\) parsePoolOpts\(/,/^}/' "$parser" |
  grep -oE 'case "[a-z]+"' | sed -E 's/case "([a-z]+)"/\1/')
[ -n "$poolopts" ] || { echo "docs-check: extracted no pool options from parsePoolOpts in $parser (grammar moved?)" >&2; exit 1; }

# Assignments, not a pipeline: each extract's failure must abort the script
# (set -e), not silently shrink the keyword set.
top=$(extract parseStatement)
create=$(extract parseCreate)
drop=$(extract parseDrop)

kws=$(printf '%s\n' "$top" "$create" "$drop" "$poolopts" |
  tr '[:lower:]' '[:upper:]' | sort -u)

fail=0
for kw in $kws; do
  # Whole-word match: "OFFSET" must not satisfy a check for "SET".
  if ! grep -qiE "(^|[^A-Za-z_])$kw([^A-Za-z_]|\$)" "$doc"; then
    echo "docs-check: parser accepts \"$kw\" but $doc never mentions it" >&2
    fail=1
  fi
done

cols=$(find internal -name '*.go' ! -name '*_test.go' -exec grep -ohE 'vt:"[A-Za-z0-9_-]+[",]' {} + |
  sed -E 's/vt:"([^",]*).*/\1/' | grep -vx -- '-' | sort -u)
[ -n "$cols" ] || { echo "docs-check: extracted no vt:\"...\" columns under internal/ (tags moved?)" >&2; exit 1; }
for col in $cols; do
  if ! grep -qF "\`$col\`" "$doc"; then
    echo "docs-check: system-table column \"$col\" is never mentioned as \`$col\` in $doc" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "docs-check: all $(echo "$kws" | wc -l | tr -d ' ') parser keywords and $(echo "$cols" | wc -l | tr -d ' ') system-table columns documented in $doc"
fi
exit "$fail"
