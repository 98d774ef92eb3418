#!/bin/sh
# The adversarial damage accounting: for each cell of
#   tpc_sim chaos -p P --seeds 20 --txns 40 MODE
# under every protocol, with --adversary, with --adversary
# --broken-recovery --no-shrink and with --forced-heuristics 6, plus bft
# with more corrupted replicas than f, the exit status, the seeds-clean
# line and the adversary-damage line.  chaos exits 0 when every seed is
# clean and 1 when one is not; any other status, or a status that
# disagrees with the clean count, fails the script.
# Usage: chaos-damage.sh TPC_SIM
sim=$1
seeds=20
cell() {
  err=$($sim chaos "$@" --seeds $seeds --txns 40 2>&1 > /dev/null)
  status=$?
  code=$status
  clean=$(printf '%s\n' "$err" |
    sed -n 's/^tpc_sim chaos: \(.*seeds clean.*\)/\1/p')
  case "$status:$clean" in
    "0:$seeds/$seeds "*) ;;
    "1:$seeds/$seeds "*) status=bad ;;
    1:?*) ;;
    *) status=bad ;;
  esac
  if [ "$status" = bad ]; then
    echo "chaos-damage.sh: chaos $* exited $code ($clean)" >&2; exit 1
  fi
  printf '%s: exit %d\n  %s\n' "$*" "$status" "$clean"
  printf '%s\n' "$err" |
    sed -n 's/^tpc_sim chaos: \(adversary damage.*\)/  \1/p'
}
for p in basic pa pn bft; do
  cell -p $p --adversary
  cell -p $p --adversary --broken-recovery --no-shrink
  cell -p $p --forced-heuristics 6
done
cell -p bft -f 1 --equivocations 3 --corrupt-replicas 3 --no-shrink
