#!/usr/bin/env bash
# Runs every test that calls testing.AllocsPerRun in the hot-path packages
# on its own (-run '^Name$' -count=1), so a test that reaches 0 allocs/op
# only because an earlier test warmed a cache it shares fails here.
#
# Usage: bash scripts/alloc_tests_alone.sh [package dir ...]
# Default packages: internal/sim internal/rf internal/antenna internal/geom.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
	pkgs=(internal/sim internal/rf internal/antenna internal/geom)
fi

fail=0
ran=0
for dir in "${pkgs[@]}"; do
	# Test functions whose bodies call AllocsPerRun. A top-level func that
	# is not a Test ends the previous test's body.
	alloc=$(awk '
		/^func / { name = "" }
		/^func Test[A-Za-z0-9_]*\(/ { name = $2; sub(/\(.*/, "", name) }
		/AllocsPerRun/ && name != "" { print name }
	' "$dir"/*_test.go | sort -u)
	# Keep only the names the suite itself lists (build tags, renames).
	listed=$(go test -list '.*' "./$dir" | grep '^Test' | sort -u)
	for name in $(comm -12 <(echo "$alloc") <(echo "$listed")); do
		ran=$((ran + 1))
		if ! out=$(go test -count=1 -run "^${name}\$" "./$dir" 2>&1); then
			echo "FAIL alone: $dir $name" >&2
			echo "$out" >&2
			fail=1
		fi
	done
done
echo "alloc tests run alone: $ran"
if [ "$ran" -eq 0 ]; then
	echo "no AllocsPerRun tests found" >&2
	exit 1
fi
exit $fail
