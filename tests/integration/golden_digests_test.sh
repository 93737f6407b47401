#!/bin/sh
# Golden-digest gate: every builtin sweep grid, and every spec file
# tests/golden/<name>.spec, must reproduce the committed per-run digests
# in tests/golden/<name>.digests byte for byte, on one worker thread and
# on four. A digest covers a run's full event timeline, so any change to
# event order, timing or RNG draws shows up here.
#
# Re-golden on purpose only (and state why in CHANGES.md):
#   tools/sweep --grid <grid> --out tests/golden/<grid> --quiet
#   tools/sweep --spec tests/golden/<name>.spec --out tests/golden/<name> --quiet
# then delete the .jsonl that run writes next to the .digests.
#
# Usage: golden_digests_test.sh <sweep> <golden-dir>
set -u

SWEEP="$1"
GOLDEN="$2"
DIR="$(mktemp -d "${TMPDIR:-/tmp}/argus_golden.XXXXXX")"
trap 'rm -rf "$DIR"' EXIT INT TERM
rc=0

# check <name> <sweep grid args...>
check() {
  name="$1"
  shift
  for threads in 1 4; do
    out="$DIR/$name-t$threads"
    if ! "$SWEEP" "$@" --threads "$threads" --out "$out" --quiet \
        > "$DIR/sweep.log" 2>&1; then
      echo "FAIL: $name --threads $threads: sweep failed"
      cat "$DIR/sweep.log"
      rc=1
    elif cmp "$GOLDEN/$name.digests" "$out.digests"; then
      echo "ok: $name --threads $threads"
    else
      echo "FAIL: $name --threads $threads: digests differ from $GOLDEN/$name.digests"
      diff "$GOLDEN/$name.digests" "$out.digests" | head -n 10
      rc=1
    fi
  done
}

for grid in churn fig6e fig6f fig6g fig6h flood loss; do
  check "$grid" --grid "$grid"
done
for spec in "$GOLDEN"/*.spec; do
  [ -e "$spec" ] || continue
  check "$(basename "$spec" .spec)" --spec "$spec"
done

exit "$rc"
