#!/bin/sh
# A chaos violation's printed replay line, pasted back, must print the
# verdict line the original flags give on the minimized plan, so the line
# has to carry the run's -O options and group commit.
# Usage: replay.sh TPC_SIM
sim=$1
flags="-p pa --seeds 1 --seed 42 --txns 100 --broken-recovery -O read-only --group 4,2.0"
if $sim chaos $flags 2> replay-first.err > /dev/null; then
  echo "replay.sh: the broken recovery went undetected" >&2; exit 1
fi
line=$(sed -n 's/^  tpc_sim chaos //p' replay-first.err)
plan=$(sed -n "s/.* --plan '\(.*\)'\$/\1/p" replay-first.err)
if [ -z "$line" ] || [ -z "$plan" ]; then
  echo "replay.sh: no replay line printed" >&2; exit 1
fi
eval "$sim chaos $line" 2> /dev/null > replay-pasted.out
$sim chaos $flags --plan "$plan" 2> /dev/null > replay-original.out
if ! cmp -s replay-original.out replay-pasted.out; then
  echo "replay.sh: tpc_sim chaos $line" >&2
  diff replay-original.out replay-pasted.out >&2; exit 1
fi
