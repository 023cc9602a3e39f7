#!/usr/bin/env bash
# Fails when a name in a `go test ... -run '<pattern>'` line of a workflow
# matches no test in the packages that line names. go test runs nothing,
# and passes, when a -run pattern matches nothing, so a renamed or deleted
# test would otherwise turn its CI step into a silent no-op.
#
# usage: bash .github/check-run-patterns.sh   (run from the repo root)
set -euo pipefail
workflow=.github/workflows/ci.yml
status=0
checked=0
while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	# shellcheck disable=SC2207 # package paths hold no spaces
	pkgs=($(grep -oE '\./[A-Za-z0-9_./-]+' <<<"$line"))
	tests=$(go test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Fuzz|Example|Benchmark)' || true)
	IFS='|' read -ra names <<<"$pattern"
	for name in "${names[@]}"; do
		checked=$((checked + 1))
		if ! grep -qE -- "$name" <<<"$tests"; then
			echo "$workflow: -run name '$name' matches no test in ${pkgs[*]}"
			status=1
		fi
	done
done < <(grep -E "go test .*-run '" "$workflow")
if [ "$checked" -eq 0 ]; then
	echo "$workflow: no go test -run patterns found"
	exit 1
fi
[ "$status" -eq 0 ] && echo "$workflow: all $checked -run names match a test"
exit "$status"
