#!/bin/sh
# make loc — the table in DESIGN.md "Size". One row per package under
# internal/ and cmd/: non-test lines, test lines, and exported names in
# non-test files (package-level funcs, methods, types, consts and vars,
# plus the fields and methods of exported struct and interface types).
# A package named *test is test support (only _test.go files import
# it), so all of its lines are test lines and none of its names counts
# as exported surface. Then the flag count of each veriopt subcommand,
# read off its -h.
#
# Below the table, the options total: the field lines of exported
# *Config and *Options structs in non-test files under internal/ (a
# line declaring two fields counts once), with the number of such types.
#
# `loc.sh check` (make loc-check, in tier2) prints nothing but compares
# the three totals with the ceilings in scripts/loc.ceiling and fails
# when any is exceeded.
set -eu
mode=${1-table}
cd "$(dirname "$0")/.."
files() { find "$1" -maxdepth 1 -name '*.go' ${2-} -name '*_test.go' -print0; }
exported='
/^(const|var) \($/ || /^type [A-Z][A-Za-z0-9_]* (struct|interface) \{$/ { blk = 1 }
/^[)}]/ { blk = 0 }
blk && /^\t[A-Z][A-Za-z0-9_]*([ ,(]|$)/ { n++ }
/^func ([A-Z]|\([^)]*\) [A-Z])/ || /^(type|const|var) [A-Z]/ { n++ }
END { print n + 0 }'
row() { [ "$mode" = check ] || echo "$1"; }
row '| package | non-test lines | test lines | exported names |'
row '|---|---:|---:|---:|'
N=0 T=0 E=0
for d in internal/* cmd/*; do
	n=$(files "$d" '!' | xargs -0 -r cat | wc -l)
	t=$(files "$d" | xargs -0 -r cat | wc -l)
	e=$(files "$d" '!' | xargs -0 -r cat | awk "$exported")
	case $d in *test) t=$((t + n)) n=0 e=0 ;; esac
	row "| $d | $n | $t | $e |"
	N=$((N + n)) T=$((T + t)) E=$((E + e))
done
row "| **total** | **$N** | **$T** | **$E** |"
set -- $(find internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 awk '
/^type [A-Z][A-Za-z0-9_]* struct \{$/ && $2 ~ /(Config|Options)$/ { blk = 1; types++; next }
blk && /^}/ { blk = 0 }
blk && /^\t[A-Za-z_][A-Za-z0-9_]*([ ,]|$)/ { n++ }
END { print n + 0, types + 0 }')
O=$1
row ""
row "options: $O field lines in $2 exported *Config/*Options types"
if [ "$mode" = check ]; then
	maxN=$(awk '$1 == "non_test_lines" { print $2 }' scripts/loc.ceiling)
	maxE=$(awk '$1 == "exported_names" { print $2 }' scripts/loc.ceiling)
	maxO=$(awk '$1 == "options" { print $2 }' scripts/loc.ceiling)
	if [ "$N" -gt "$maxN" ] || [ "$E" -gt "$maxE" ] || [ "$O" -gt "$maxO" ]; then
		echo "loc-check: $N non-test lines (ceiling $maxN), $E exported names (ceiling $maxE), $O options (ceiling $maxO):" >&2
		echo "  shrink the change, or raise scripts/loc.ceiling in this diff and say why" >&2
		exit 1
	fi
	exit 0
fi
echo
echo '| veriopt subcommand | flags |'
echo '|---|---:|'
for sub in experiments train optimize check serve dataset 'cache stat'; do
	echo "| $sub | $(go run ./cmd/veriopt $sub -h 2>&1 | grep -c '^  -') |"
done
