#!/bin/sh
# The crash matrix: one line per cell of
#   tpc_sim crash -p P --node N --at POINT [--restart-after 30]
# for every protocol, member of the three-member chain and crash point,
# with a restart after 30 and with none (a permanent crash).  Each line
# gives the cell's exit status and its BAD RECOVERY lines, so a recovery
# fix shows as a reviewed diff of the golden and a regression as a failed
# one.  crash exits 0 on a good recovery and 1 on a bad one; any other
# status, or a status that disagrees with the BAD RECOVERY lines, fails
# the script.
# Usage: crash-matrix.sh TPC_SIM
sim=$1
for p in pa pn basic bft; do
  for node in coord c1 c2; do
    for at in on-prepare after-prepared after-vote before-decision-log \
      after-decision-log after-decision-received before-ack \
      after-commit-pending; do
      for restart in 30 none; do
        if [ "$restart" = none ]; then r=""; else r="--restart-after $restart"; fi
        bad=$($sim crash -p $p --node $node --at $at $r 2>&1 > /dev/null)
        status=$?
        bad=$(printf '%s\n' "$bad" |
          sed -n 's/^tpc_sim crash: BAD RECOVERY: //p' | sed 's/$/;/' |
          tr '\n' ' ')
        case "$status:$bad" in
          0:) ;;
          1:?*) ;;
          *) echo "crash-matrix.sh: -p $p --node $node --at $at $r exited $status" >&2
             exit 1 ;;
        esac
        printf '%-5s %-5s %-23s restart %-4s exit %d' "$p" "$node" "$at" \
          "$restart" "$status"
        if [ -n "$bad" ]; then printf '  %s' "${bad%; }"; fi
        printf '\n'
      done
    done
  done
done
