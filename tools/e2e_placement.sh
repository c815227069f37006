#!/usr/bin/env bash
# Where psched_e2e's host-speed kernel, reference_call(), sits, and what
# moved it. psched-e2e scales every timing by the speed of that kernel, and
# the speed follows the kernel's address mod 64 (CONTRIBUTING.md, "Claiming
# an end-to-end speed-up"; ROADMAP item 1(f)).
#
#   tools/e2e_placement.sh [PARENT_BIN] CHANGE_BIN
#
# For each binary it prints the kernel's address and its offset mod 64.
# Given two, it also lists every symbol placed below the kernel whose size
# differs between them (`nm -C -S -n`), in the second binary's address
# order: the size change in bytes, the name, and both sizes, "-" where a
# binary lacks the symbol. Exits 1 when a binary has no reference_call().
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 [PARENT_BIN] CHANGE_BIN" >&2
  exit 1
fi

for bin in "$@"; do
  addr=$(nm -C "$bin" | grep -m1 'reference_call()$' | cut -d' ' -f1 || true)
  if [[ -z "$addr" ]]; then
    echo "$bin: reference_call() not found" >&2
    exit 1
  fi
  printf '%s: reference_call() at 0x%x, %d mod 64\n' "$bin" "$((16#$addr))" "$((16#$addr % 64))"
done

[[ $# -eq 2 ]] || exit 0

# One "name<TAB>size in bytes" line per sized symbol below the kernel, in
# address order. Aliases (a second name at the same address, as complete
# and base-object constructors are) are skipped. A name's n-th repeat
# (file-local functions of the same name in different objects) is
# suffixed " #n" so the two lists pair up.
sizes_below_kernel() {
  local addr size type name last=
  local -A seen=()
  nm -C -S -n "$1" | while read -r addr size type name; do
    [[ $name == *'reference_call()' ]] && break
    # Unsized symbols print no size column, so `size` holds the type there.
    [[ ${#size} -eq ${#addr} && ${#type} -eq 1 && $addr != "$last" ]] || continue
    last=$addr
    seen[$name]=$((${seen[$name]:-0} + 1))
    [[ ${seen[$name]} -gt 1 ]] && name="$name #${seen[$name]}"
    printf '%s\t%d\n' "$name" "$((16#$size))"
  done
}

declare -A parent=() paired=()
while IFS=$'\t' read -r name size; do
  parent[$name]=$size
done < <(sizes_below_kernel "$1")

echo "symbols below reference_call() whose size differs (bytes: change, name, $1 -> $2):"
net=0
while IFS=$'\t' read -r name size; do
  old=${parent[$name]:--}
  paired[$name]=1
  [[ $old == "$size" ]] && continue
  delta=$((size - ${old/-/0}))
  net=$((net + delta))
  printf '%+7d  %s  (%s -> %s)\n' "$delta" "$name" "$old" "$size"
done < <(sizes_below_kernel "$2")
for name in "${!parent[@]}"; do
  [[ -n ${paired[$name]:-} ]] && continue
  old=${parent[$name]}
  net=$((net - old))
  printf '%+7d  %s  (%s -> -)\n' "$((-old))" "$name" "$old"
done
echo "net size change below the kernel: $net bytes (alignment padding not counted)"
