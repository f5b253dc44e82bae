#!/usr/bin/env bash
# Fails on a fused multiply-add in simulator code. The Go spec lets a
# compiler fuse x*y + z into one instruction that rounds once instead of
# twice. The arm64 backend does so and amd64's does not, so a fused op in
# repro code can make two hosts of one sharded sweep compute different
# floats. An explicit conversion, float64(x*y) + z, forbids the fusion.
#
#   bash .github/fma-check.sh
#
# Cross-compiles every command under cmd/ for arm64 (the standard library
# builds from GOROOT, so nothing is downloaded) and lists every repro
# function in which go tool objdump shows FMADDD, FMSUBD, FNMADDD or
# FNMSUBD, exiting 1 if there is one.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
cd "$root"
GOOS=linux GOARCH=arm64 go build -o "$bin/" ./cmd/...
found=$(for b in "$bin"/*; do go tool objdump -s '^repro/' "$b"; done | awk '
	/^TEXT / { fn = $2; next }
	/[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]/ { print fn " " $1 }' | sort -u)
if [ -n "$found" ]; then
	echo "fma-check: fused multiply-adds in repro functions; convert each product with float64(...):"
	echo "$found"
	exit 1
fi
echo "fma-check: no fused multiply-add in repro code ($(ls "$bin" | wc -l) arm64 commands)"
