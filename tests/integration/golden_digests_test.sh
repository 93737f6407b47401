#!/bin/sh
# Golden-digest gate: every builtin sweep grid must reproduce the
# committed per-run digests in tests/golden/<grid>.digests byte for byte,
# on one worker thread and on four. A digest covers a run's full event
# timeline, so any change to event order, timing or RNG draws shows up
# here.
#
# Re-golden on purpose only (and state why in CHANGES.md):
#   tools/sweep --grid <grid> --out tests/golden/<grid> --quiet
# then delete the .jsonl that run writes next to the .digests.
#
# Usage: golden_digests_test.sh <sweep> <golden-dir>
set -u

SWEEP="$1"
GOLDEN="$2"
DIR="$(mktemp -d "${TMPDIR:-/tmp}/argus_golden.XXXXXX")"
trap 'rm -rf "$DIR"' EXIT INT TERM
rc=0

for grid in churn fig6e fig6f fig6g fig6h flood loss; do
  for threads in 1 4; do
    out="$DIR/$grid-t$threads"
    if ! "$SWEEP" --grid "$grid" --threads "$threads" --out "$out" --quiet \
        > "$DIR/sweep.log" 2>&1; then
      echo "FAIL: $grid --threads $threads: sweep failed"
      cat "$DIR/sweep.log"
      rc=1
    elif cmp "$GOLDEN/$grid.digests" "$out.digests"; then
      echo "ok: $grid --threads $threads"
    else
      echo "FAIL: $grid --threads $threads: digests differ from $GOLDEN/$grid.digests"
      diff "$GOLDEN/$grid.digests" "$out.digests" | head -n 10
      rc=1
    fi
  done
done

exit "$rc"
