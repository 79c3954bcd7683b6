#!/bin/sh
# Print the CLI and example transcript that cli.expected pins.
#
# Usage: cli.sh DEMI_EXE EXAMPLES_DIR
#
# Every command below is deterministic in virtual time, so its output
# is byte-identical run to run and across host machines. The two
# host.gc.* rows of `demi stats` count OCaml heap words, which move
# whenever host-side allocation changes, so they are filtered out. Each
# command is echoed first so a diff names the command that moved. To
# accept an intended change: dune build @runtest; dune promote.

set -u

demi=$1
examples=$2

# The sanitizer adds canary bytes to every allocation; pin it off.
unset DK_SANITIZE

run() {
  echo "\$ demi" "$@"
  "$demi" "$@" 2>&1
  echo "[exit $?]"
}

run_stats() {
  echo "\$ demi stats" "$@"
  "$demi" stats "$@" 2>&1 | grep -v 'host\.gc\.'
}

run rtt
run rtt --stack kernel
run rtt --stack mtcp
run kv
run kv --iface posix
run kv --offload
run loss
run wakeups
run rtt --shards 4 --xshard-frac 0.2
run kv --shards 2
for plan in loss-burst partition-heal partition corrupt-wire dup-storm \
  reorder nic-flaky slow-disk flaky-disk broken-disk torn-write rdma-break
do
  run faults --plan "$plan"
done
run_stats
run_stats --loss 0.05
run_stats --offload
run_stats --shards 4 --xshard-frac 0.2

for ex in quickstart kv_store pipeline storage_log rdma_pingpong \
  event_server steering sanitizer_demo
do
  echo "\$ examples/$ex"
  "$examples/$ex.exe" 2>&1
  echo "[exit $?]"
done
