#!/bin/sh
# make loc — the table in DESIGN.md "Size". One row per package under
# internal/ and cmd/: non-test lines, test lines, and exported names in
# non-test files (package-level funcs, methods, types, consts and vars,
# plus the fields and methods of exported struct and interface types).
# A package named *test is test support (only _test.go files import
# it), so all of its lines are test lines. Then the flag count of each
# veriopt subcommand, read off its -h.
set -eu
cd "$(dirname "$0")/.."
files() { find "$1" -maxdepth 1 -name '*.go' ${2-} -name '*_test.go' -print0; }
exported='
/^(const|var) \($/ || /^type [A-Z][A-Za-z0-9_]* (struct|interface) \{$/ { blk = 1 }
/^[)}]/ { blk = 0 }
blk && /^\t[A-Z][A-Za-z0-9_]*([ ,(]|$)/ { n++ }
/^func ([A-Z]|\([^)]*\) [A-Z])/ || /^(type|const|var) [A-Z]/ { n++ }
END { print n + 0 }'
echo '| package | non-test lines | test lines | exported names |'
echo '|---|---:|---:|---:|'
N=0 T=0 E=0
for d in internal/* cmd/*; do
	n=$(files "$d" '!' | xargs -0 -r cat | wc -l)
	t=$(files "$d" | xargs -0 -r cat | wc -l)
	e=$(files "$d" '!' | xargs -0 -r cat | awk "$exported")
	case $d in *test) t=$((t + n)) n=0 ;; esac
	echo "| $d | $n | $t | $e |"
	N=$((N + n)) T=$((T + t)) E=$((E + e))
done
echo "| **total** | **$N** | **$T** | **$E** |"
echo
echo '| veriopt subcommand | flags |'
echo '|---|---:|'
for sub in experiments train optimize serve dataset 'cache migrate'; do
	echo "| $sub | $(go run ./cmd/veriopt $sub -h 2>&1 | grep -c '^  -') |"
done
