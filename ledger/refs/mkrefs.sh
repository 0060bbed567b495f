#!/usr/bin/env bash
# Regenerates the peak workload's expected outputs with the system C
# compiler: each benchmark program is built at -O0 and run at its
# benchprog DefaultArg. Run from the repository root:
#
#   bash ledger/refs/mkrefs.sh
#
# The outputs are independent of every engine under test; the benchmark
# compares each peak cell's stdout against them byte for byte.
set -euo pipefail
progs=internal/benchprog/progs
out=ledger/refs/peak
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$out"
while read -r name arg; do
	gcc -O0 -w -o "$tmp/$name" "$progs/$name.c" -lm
	"$tmp/$name" "$arg" >"$out/$name.out"
	echo "$name $arg $(sha256sum <"$out/$name.out" | cut -c1-16)"
done <<'LIST'
nbody 5000
binarytrees 10
fannkuchredux 8
mandelbrot 96
LIST
gcc --version | head -1
