#!/bin/sh
# docs-check: every internal/... or cmd/... path that README.md or docs/*.md
# names must exist, so a deleted or renamed package cannot live on in the
# docs. Brace lists expand (internal/{sql,expr} names internal/sql and
# internal/expr), and a Go identifier after a package (internal/server.Client)
# names the package. CHANGES.md and ROADMAP.md record history and are not
# checked. Run from the repository root.
set -eu
docs="README.md $(ls docs/*.md)"

# Each mention, with the character before it dropped (a path inside
# another path, e.g. benchmark/internal/x, is not one of ours; the Go
# module prefix repro/ is).
paths=$(grep -ohE '(^|[^A-Za-z0-9_./-]|repro/)(internal|cmd)/([A-Za-z0-9_./-]|\{[A-Za-z0-9_,./-]*\})+' $docs |
  sed -E 's#^.*((internal|cmd)/)#\1#; s#[./]+$##' | sort -u)
[ -n "$paths" ] || { echo "docs-check: found no internal/ or cmd/ paths in $docs (pattern broken?)" >&2; exit 1; }

# expand <path>: the path with its first brace list expanded, recursively.
expand() {
  case "$1" in
  *'{'*'}'*)
    pre=${1%%\{*}
    rest=${1#*\{}
    list=${rest%%\}*}
    post=${rest#*\}}
    for alt in $(echo "$list" | tr ',' ' '); do
      expand "$pre$alt$post"
    done
    ;;
  *) echo "$1" ;;
  esac
}

fail=0
n=0
for p in $paths; do
  for q in $(expand "$p"); do
    n=$((n + 1))
    [ -e "$q" ] && continue
    # internal/server.Client: the package is the path before the last
    # component's first dot.
    dir=$(dirname "$q")
    base=$(basename "$q")
    [ -d "$dir/${base%%.*}" ] && continue
    echo "docs-check: $q is named in $(grep -lF "$p" $docs | tr '\n' ' ')but does not exist" >&2
    fail=1
  done
done

if [ "$fail" -eq 0 ]; then
  echo "docs-check: all $n internal/ and cmd/ paths named in README.md and docs/*.md exist"
fi
exit "$fail"
