#!/usr/bin/env bash
# wire_sweep.sh: end-to-end over-the-wire session sweep (DESIGN.md §10).
#
# Launches `osap_serve --listen 0` (ephemeral port, parsed from its
# stdout), drives it with `osap_client` in replay mode - the 100k-1M
# open-session configuration; REPLAY 0 selects the client's default mode,
# one real environment per viewer - then SIGTERMs the server and checks the
# graceful-shutdown accounting: the client saw zero protocol errors and
# the server drained to zero open sessions. The ctest `-L net` entry runs
# this in a fast smoke config (100k sessions, few rounds) so the sweep
# path cannot rot between the full EXPERIMENTS.md runs.
#
# Usage:
#   wire_sweep.sh SERVE CLIENT [sessions] [rounds] [rate] [edge_threads]
#                 [shards] [client_threads] [replay] [signal]
#
# Run from a directory whose ./osap_cache holds the trained bundle (the
# server exits on a cold cache; `osap_train ... --calibrate` fills it).
set -euo pipefail

SERVE=${1:?usage: wire_sweep.sh SERVE CLIENT [sessions] [rounds] ...}
CLIENT=${2:?usage: wire_sweep.sh SERVE CLIENT [sessions] [rounds] ...}
SESSIONS=${3:-100000}
ROUNDS=${4:-2}
RATE=${5:-2000000}
EDGES=${6:-2}
SHARDS=${7:-4}
THREADS=${8:-2}
REPLAY=${9:-96}
SIGNAL=${10:-us}

OUT=$(mktemp -d)
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$OUT"
}
trap cleanup EXIT

"$SERVE" "$SIGNAL" --listen 0 --shards "$SHARDS" --edge-threads "$EDGES" \
  >"$OUT/serve.log" 2>&1 &
SERVER_PID=$!

# The server prints "listening on port N" once bound, after the model
# loads.
port=
for _ in $(seq 1 1200); do
  port=$(sed -n 's/.*listening on port \([0-9][0-9]*\)$/\1/p' \
         "$OUT/serve.log")
  [ -n "$port" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    cat "$OUT/serve.log" >&2
    echo "wire_sweep: server exited before listening" >&2
    exit 1
  fi
  sleep 0.5
done
if [ -z "$port" ]; then
  echo "wire_sweep: server never printed its port" >&2
  exit 1
fi
echo "wire_sweep: $SESSIONS sessions x $ROUNDS rounds -> port $port" \
     "($EDGES edge(s), $SHARDS shard(s), $THREADS client thread(s))"

# Nonzero client exit (any protocol error) fails the sweep via pipefail.
"$CLIENT" 127.0.0.1 "$port" --threads "$THREADS" --sessions "$SESSIONS" \
  --rounds "$ROUNDS" --rate "$RATE" --replay "$REPLAY" \
  | tee "$OUT/client.log"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=
cat "$OUT/serve.log"

# Graceful shutdown drained everything: the counter lines printed and
# no session outlived its client. The io: line must keep the full shape
# the wire benchmark parses (perfbench/wire.cc), or its runs fail.
grep -q "shutdown:" "$OUT/serve.log"
grep -q " 0 sessions open" "$OUT/serve.log"
grep -Eq '^io: [a-z]+ backend, [0-9]+ syscalls \([0-9]+\.[0-9]+ per decision\), [0-9]+ voluntary \+ [0-9]+ involuntary context switches$' \
  "$OUT/serve.log"
echo "wire_sweep: OK"
