#!/bin/sh
# The chaos matrix: one line per (option set, protocol) cell with the
# seeds that pass the audit and the ones that fail it, from
#   tpc_sim chaos -p P [-O OPTS] --seeds 100 --txns 60 -c 6 -n 4 --no-shrink
# A fix then shows as a reviewed diff of the golden, and a regression as
# a failed one.  chaos exits 0 when every seed is clean and 1 when one is
# not; any other status, or a status that disagrees with the seed lines,
# fails the script.
# Usage: chaos-matrix.sh TPC_SIM
sim=$1
seeds=100
for opts in none read-only last-agent read-only,last-agent leave-out long-locks \
  early-ack wait-for-outcome vote-reliable unsolicited shared-log; do
  for p in pa basic pn bft; do
    if [ "$opts" = none ]; then o=""; else o="-O $opts"; fi
    out=$($sim chaos -p $p $o --seeds $seeds --txns 60 -c 6 -n 4 --no-shrink \
      --jobs 2 2> /dev/null)
    status=$?
    clean=$(printf '%s\n' "$out" | grep -c '"ok":true')
    failing=$(printf '%s\n' "$out" |
      sed -n 's/^{"seed":\([0-9]*\),.*"ok":false.*/\1/p' | tr '\n' ' ')
    case "$status:$failing" in
      0:) ;;
      1:?*) ;;
      *) echo "chaos-matrix.sh: -p $p $o exited $status" >&2; exit 1 ;;
    esac
    printf '%-20s %-5s %3d/%d clean' "$opts" "$p" "$clean" "$seeds"
    if [ -n "$failing" ]; then printf '  failing: %s' "${failing% }"; fi
    printf '\n'
  done
done
