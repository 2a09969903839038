#!/bin/sh
# Pre-commit check: tier-1 build + test suites, a quick chaos soak
# (5 seeded within-budget schedules; every oracle must stay green), a
# field-fleet smoke, a reconfiguration soak, then a release-profile
# build with E2 + E3 + E4 + E5 + E6 + E6B + E7 + E11 + E13 bench smoke
# runs (exercises the wire layer, the byte-accounting tables, Prime's
# continuous ordering, PBFT and a delaying leader, proactive recovery
# and state transfer, site loss and restoration, flooding over lossy
# links and the epoch cutover path end to end) and the PERF=1
# wall-clock gates. It rewrites no tracked file. Each release smoke's
# stdout, and the E10 chaos soak's and E12 fleet smoke's, minus its
# wall-time lines, must match bench/expected/<ID>.txt byte for byte. A
# change meant to move those tables regenerates them with:
#   for id in E2 E3 E4 E5 E6 E6B E7 E11 E13; do
#     EXPERIMENT=$id dune exec --profile release bench/main.exe |
#       grep -v "wall time" > bench/expected/$id.txt
#   done
# the chaos soak's table (E10, sequential) with:
#   ONLY=E10 dune exec bench/main.exe |
#     grep -v "wall time" > bench/expected/E10.txt
# and the field-fleet smoke's table (E12 at 1k, 10k and 100k devices)
# with:
#   FLEET=1000,10000,100000 ONLY=E12 dune exec bench/main.exe |
#     grep -v "wall time" > bench/expected/E12.txt
set -e
cd "$(dirname "$0")/.."

dune build
dune runtest
dune exec dev/debug.exe -- chaos 5

# Chaos soak smoke: E10's sequential table (view changes, state
# transfer, every oracle) must match bench/expected/E10.txt, and its
# soak seeds farmed over 4 domains must print a byte-identical table
# (PAR only changes wall time, never results).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for par in 1 4; do
  PAR=$par ONLY=E10 dune exec bench/main.exe > "$tmp/e10.out"
  grep -v "wall time" "$tmp/e10.out" > "$tmp/e10_par$par.txt"
done
diff bench/expected/E10.txt "$tmp/e10_par1.txt"
diff "$tmp/e10_par1.txt" "$tmp/e10_par4.txt"

# Field-fleet smoke at 1k, 10k and 100k devices (the 100k point is the
# 40-concentrator fleet store at benchmark scale): E12 exits nonzero if
# any sweep point confirms zero events (aggregation or the write path
# broken), or if the 10k point confirms fewer than 9,090 events/s. Its
# table must match bench/expected/E12.txt and be byte-identical under
# PAR=4.
for par in 1 4; do
  FLEET=1000,10000,100000 PAR=$par ONLY=E12 dune exec bench/main.exe > "$tmp/e12.out"
  grep -v "wall time" "$tmp/e12.out" > "$tmp/e12_par$par.txt"
done
diff bench/expected/E12.txt "$tmp/e12_par1.txt"
diff "$tmp/e12_par1.txt" "$tmp/e12_par4.txt"

# Telemetry-enabled E2 smoke: zero orphan spans, bounded open spans,
# per-phase attribution reconciling with end-to-end latency. Then the
# same checks on the E6 flood shape, which traces every hop of every
# flooded copy under the WAN delay attack.
dune exec dev/telemetry_smoke.exe
dune exec dev/telemetry_smoke.exe -- flood

# Reconfiguration soak: seeded fault schedules injected during epoch
# cutover windows; agreement / epoch-safety / progress must stay green.
dune exec dev/reconfig_soak.exe -- 3 7100

# Dev probes and bench knobs reject garbage arguments: exit 2 with a
# usage line, never an uncaught exception or a silent fall-back to the
# default.
rc=0
dune exec dev/reconfig_soak.exe -- x 2> /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "reconfig_soak.exe -- x exited $rc, expected 2" && exit 1
fi
rc=0
dune exec dev/telemetry_smoke.exe -- flod 2> /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "telemetry_smoke.exe -- flod exited $rc, expected 2" && exit 1
fi
rc=0
SCALE=ful EXPERIMENT=E1 dune exec bench/main.exe > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "SCALE=ful EXPERIMENT=E1 exited $rc, expected 2" && exit 1
fi

# The scenario CLI refuses out-of-range integers with a command-line
# error (exit 124) instead of reporting a healthy run that disconnected
# or simulated nothing, or failing with an internal error (exit 125).
for args in "site-failure --site 9" "fault-free --duration=-3" \
  "leader-attack --delay-ms=-5" "fault-free --substations=-1" \
  "fault-free --poll-ms=0"; do
  rc=0
  dune exec bin/spire_run.exe -- $args > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 124 ]; then
    echo "spire_run.exe $args exited $rc, expected 124" && exit 1
  fi
done

# Release smokes: each must exit zero and print its committed table.
smoke() {
  EXPERIMENT=$1 dune exec --profile release bench/main.exe > "$tmp/$1.out"
  cat "$tmp/$1.out"
  grep -v "wall time" "$tmp/$1.out" | diff "bench/expected/$1.txt" -
}
dune build --profile release
smoke E2
# E3: Prime's continuous ordering over the quick-scale soak.
smoke E3
# E4: PBFT dispatch and a leader that delays its proposals.
smoke E4
# E5: the proactive-recovery scheduler and state transfer on return.
smoke E5
smoke E6
# E6B floods over lossy WAN links: the hop-by-hop ARQ leg under
# constrained flooding and redundant paths.
smoke E6B
# E7: a whole control center killed, then restored by state transfer.
smoke E7
# E11 exits nonzero on any epoch-safety violation, wrong final epoch, or
# a confirmation gap over 8s during the failover/rejoin/growth arc.
smoke E11
# E13 exits nonzero unless the adaptive controller converges within 25%
# of the best static configuration under each replayed attack, beats
# the worst static across attacks, and every knob-change journal
# reconciles with its counters (statics must issue zero requests).
smoke E13

# Repository benchmark, once on the flood path with per-layer tracing:
# exits nonzero unless the run passes its own checks — agreement,
# traced-vs-untraced reproduction and the flood wire-decode run.
python3 perfbench/run.py --workload flood_under_attack --seed 9001 \
  --seconds 10 --trace 1 > /dev/null

# Wall-clock gates (quick scale, telemetry disabled, as in production
# hot paths): fails if E3 simulates fewer than 409,321 events per wall
# second, if the E8+E10 domains mix gives different digests at 1/2/4/8
# domains, or, on hosts with >= 4 cores, if 4 domains are under 3x
# faster than 1. Writes no file.
PERF=1 dune exec --profile release bench/main.exe

echo "check.sh: all green"
