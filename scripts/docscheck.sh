#!/usr/bin/env bash
# docscheck.sh — keep README.md honest about the command-line tools.
#
# For every directory under cmd/ this script:
#   1. requires README.md to mention the tool at all,
#   2. requires a "### `cmd/<tool>`" flag-reference table,
#   3. builds the tool, extracts its real flag set from -help, and
#      diffs it against the documented flag set in BOTH directions:
#      a flag the tool has but the table lacks fails, and so does a
#      flag the table lists but the tool no longer has.
#
# It also holds README's "go run ./examples/<name>" lines to the
# directories under examples/, in both directions, and requires each
# example to build and exit 0.
#
# Run from the repository root:  ./scripts/docscheck.sh
# Exit code: 0 when the docs match, 1 on any drift.
set -euo pipefail

cd "$(dirname "$0")/.."
readme=README.md
fail=0

say() { printf '%s\n' "$*"; }
err() {
  printf 'docscheck: %s\n' "$*" >&2
  fail=1
}

[ -f "$readme" ] || { err "$readme not found"; exit 1; }

bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT

for dir in cmd/*/; do
  tool=$(basename "$dir")

  if ! grep -q "cmd/$tool" "$readme"; then
    err "cmd/$tool is not mentioned anywhere in $readme"
    continue
  fi

  # The live flag set: build the tool, parse "  -name" lines of -help.
  if ! go build -o "$bindir/$tool" "./cmd/$tool"; then
    err "cmd/$tool does not build"
    continue
  fi
  actual=$("$bindir/$tool" -help 2>&1 | sed -n 's/^  -\([a-zA-Z][a-zA-Z0-9-]*\).*/\1/p' | sort -u)

  # The documented flag set: rows of the tool's flag-reference table,
  # i.e. lines like "| `-name` | ..." between this tool's "### `cmd/X`"
  # heading and the next heading.
  documented=$(awk -v tool="$tool" '
    /^### / { in_tool = ($0 == "### `cmd/" tool "`") ; next }
    in_tool && /^\| `-/ {
      line = $0
      sub(/^\| `-/, "", line)
      sub(/`.*/, "", line)
      print line
    }
  ' "$readme" | sort -u)

  if [ -z "$documented" ]; then
    err "cmd/$tool has no flag-reference table in $readme (expected a '### \`cmd/$tool\`' section)"
    continue
  fi

  missing=$(comm -23 <(printf '%s\n' "$actual") <(printf '%s\n' "$documented"))
  stale=$(comm -13 <(printf '%s\n' "$actual") <(printf '%s\n' "$documented"))

  if [ -n "$missing" ]; then
    err "cmd/$tool: flags present in -help but missing from $readme: $(echo "$missing" | tr '\n' ' ')"
  fi
  if [ -n "$stale" ]; then
    err "cmd/$tool: flags documented in $readme but absent from -help: $(echo "$stale" | tr '\n' ' ')"
  fi
  if [ -z "$missing" ] && [ -z "$stale" ]; then
    say "docscheck: cmd/$tool ok ($(printf '%s\n' "$actual" | wc -l) flags)"
  fi
done

# The codelint rule table: README's "Code lint" section must list
# exactly the rules the tool registers, as reported by `codelint -list`
# (first column of each row), in both directions.
if [ -x "$bindir/codelint" ]; then
  actual_rules=$("$bindir/codelint" -list | awk '{print $1}' | sort -u)
  documented_rules=$(sed -n 's/^| `\(G[0-9][0-9][0-9]\)`.*/\1/p' "$readme" | sort -u)
  if [ -z "$documented_rules" ]; then
    err "README.md has no codelint rule table (expected rows like '| \`G001\` ...')"
  else
    missing_rules=$(comm -23 <(printf '%s\n' "$actual_rules") <(printf '%s\n' "$documented_rules"))
    stale_rules=$(comm -13 <(printf '%s\n' "$actual_rules") <(printf '%s\n' "$documented_rules"))
    if [ -n "$missing_rules" ]; then
      err "codelint rules registered but missing from $readme: $(echo "$missing_rules" | tr '\n' ' ')"
    fi
    if [ -n "$stale_rules" ]; then
      err "codelint rules documented in $readme but not registered: $(echo "$stale_rules" | tr '\n' ' ')"
    fi
    if [ -z "$missing_rules" ] && [ -z "$stale_rules" ]; then
      say "docscheck: codelint rule table ok ($(printf '%s\n' "$actual_rules" | wc -l) rules)"
    fi
  fi
fi

# The examples list: README's "go run ./examples/<name>" lines must name
# exactly the directories under examples/, and every example must build
# and exit 0.
examples_ok=1
actual_examples=$(for d in examples/*/; do basename "$d"; done | sort -u)
documented_examples=$(sed -n 's|^go run \./examples/\([a-zA-Z0-9_-]*\).*|\1|p' "$readme" | sort -u)
missing_examples=$(comm -23 <(printf '%s\n' "$actual_examples") <(printf '%s\n' "$documented_examples"))
stale_examples=$(comm -13 <(printf '%s\n' "$actual_examples") <(printf '%s\n' "$documented_examples"))
if [ -n "$missing_examples" ]; then
  err "examples missing from $readme: $(echo "$missing_examples" | tr '\n' ' ')"
  examples_ok=0
fi
if [ -n "$stale_examples" ]; then
  err "examples listed in $readme but absent from examples/: $(echo "$stale_examples" | tr '\n' ' ')"
  examples_ok=0
fi
for ex in $actual_examples; do
  if ! go build -o "$bindir/example-$ex" "./examples/$ex"; then
    err "examples/$ex does not build"
    examples_ok=0
  elif ! "$bindir/example-$ex" >/dev/null; then
    err "examples/$ex exited non-zero"
    examples_ok=0
  fi
done
if [ "$examples_ok" -eq 1 ]; then
  say "docscheck: examples ok ($(printf '%s\n' "$actual_examples" | wc -l) built and ran)"
fi

if [ "$fail" -ne 0 ]; then
  say "docscheck: FAILED — README.md flag tables, rule table or examples list have drifted from the code"
  exit 1
fi
say "docscheck: all flag tables, the rule table and the examples list match"
