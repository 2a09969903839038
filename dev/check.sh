#!/bin/sh
# Pre-commit check: tier-1 build + test suites, a fixed-range chaos
# soak (1000 seeded within-budget schedules farmed across domains;
# every oracle must stay green on every seed: 0/1000 dirty),
# the telemetry and reconfiguration soaks, garbage-argument probes,
# then a release-profile run of every bench experiment (E1..E13), three
# repository benchmark runs (wan and flood traced, fleet untraced) and the
# PERF=1 wall-clock gates. It rewrites no tracked file. Each
# experiment must exit zero, and its stdout minus the wall-time line
# must match bench/expected/<ID>.txt byte for byte; E10 and E12 must
# also print the same table under PAR=4. A change meant to move those
# tables regenerates them with:
#   for id in E1 E2 E3 E4 E5 E6 E6B E7 E8 E9 E10 E11 E12 E13; do
#     EXPERIMENT=$id dune exec --profile release bench/main.exe |
#       grep -v "wall time" > bench/expected/$id.txt
#   done
set -e
cd "$(dirname "$0")/.."

dune build
dune runtest

# One fault writer: outside System's primitives, the epoch halt and the
# injector, no lib/ file writes a Bft.Faults field or degrades a link.
bad=$(grep -rnE 'Faults\.([a-z_]+ *<-|reset)|Overlay\.Net\.set_(latency|loss)' \
  lib --include='*.ml' | grep -vE '^lib/core/(injector|(system|epochs)\.ml:.*Faults)' || true)
[ -z "$bad" ] || { echo "fault injection outside Spire.Injector:"; echo "$bad"; exit 1; }

# One safety watch: outside Spire.Watch and System's agreement
# observation (which assert_agreement makes too), no lib/ or bench/
# file feeds an agreement, slot-finality or epoch-safety oracle.
bad=$(grep -rnE '(Agreement|Slot_finality)\.observe([^_a-z]|$)|Epoch_check\.observe_' \
  lib bench --include='*.ml' |
  grep -vE '^lib/core/(watch\.ml|system\.ml:.*Agreement\.observe)' || true)
[ -z "$bad" ] || { echo "safety oracle fed outside Spire.Watch:"; echo "$bad"; exit 1; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Fixed-range chaos sweep: exits nonzero on any dirty seed, whose
# report is then in the output file.
dune exec --profile release dev/debug.exe -- chaos 1000 > "$tmp/chaos.out" ||
  { grep -v "^seed .*: clean" "$tmp/chaos.out"; exit 1; }
tail -n 1 "$tmp/chaos.out"

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
for knobs in "SCALE=ful EXPERIMENT=E1" "EXPERIMENT=,"; do
  rc=0
  env $knobs dune exec bench/main.exe > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "$knobs bench/main.exe exited $rc, expected 2" && exit 1
  fi
done

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

# Every experiment in the release profile: each exits nonzero when one
# of its oracles fails (E9's defences, E10's soak and over-budget
# validator, E11's epoch safety and failover gap, E12's fleet floor,
# E13's controller convergence and knob journals), and its table must
# match the committed one. E10's soak seeds and E12's fleet points,
# farmed over 4 domains, must print the same table (PAR only changes
# wall time, never results).
dune build --profile release
check_table() {
  id=$1
  shift
  env EXPERIMENT="$id" "$@" dune exec --profile release bench/main.exe > "$tmp/$id.out"
  cat "$tmp/$id.out"
  grep -v "wall time" "$tmp/$id.out" | diff "bench/expected/$id.txt" -
}
for id in E1 E2 E3 E4 E5 E6 E6B E7 E8 E9 E10 E11 E12 E13; do
  check_table $id
done
check_table E10 PAR=4
check_table E12 PAR=4

# Repository benchmark, on the protocol hot path and the flood path
# with per-layer tracing, and once on the field path: each exits
# nonzero unless the run passes its own checks — agreement,
# traced-vs-untraced reproduction (wan, flood), confirmed field events
# (fleet), at least 1,000 confirmed updates and the wire-decode run.
python3 perfbench/run.py --workload wan_steady --seed 9001 \
  --seconds 5 --trace 1 > /dev/null
python3 perfbench/run.py --workload flood_under_attack --seed 9001 \
  --seconds 10 --trace 1 > /dev/null
python3 perfbench/run.py --workload fleet_100k --seed 9001 \
  --seconds 5 --trace 0 > /dev/null

# Wall-clock gates (quick scale, telemetry disabled, as in production
# hot paths): fails if E3 simulates fewer than 409,321 events per wall
# second, if the E8+E10 domains mix gives different digests at 1/2/4/8
# domains, or, on hosts with >= 4 cores, if 4 domains are under 3x
# faster than 1. Writes no file.
PERF=1 dune exec --profile release bench/main.exe

echo "check.sh: all green"
