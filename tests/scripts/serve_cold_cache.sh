#!/bin/sh
# osap_serve on a cold cache: in an empty working directory it must exit
# non-zero, name the command that fills the cache, and write nothing
# under ./osap_cache (a server that trained there would do all three
# wrong, and slowly). It runs twice: as a user starts it, and with the
# exact command line perfbench/wire.cc spawns (`--listen 0 --shards 2`),
# so a flag the benchmark passes cannot turn into a usage error.
#
#   tests/scripts/serve_cold_cache.sh build/tools/osap_serve
if [ "$#" -ne 1 ]; then
  echo "usage: serve_cold_cache.sh OSAP_SERVE" >&2
  exit 2
fi
serve=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 2
fail() {
  echo "serve_cold_cache: $1"
  exit 1
}
for args in "us --listen 0" "us --listen 0 --shards 2"; do
  # shellcheck disable=SC2086 # $args is a word list
  out=$("$serve" $args 2>&1)
  rc=$?
  printf '%s\n' "$out"
  [ "$rc" -ne 0 ] || fail "osap_serve $args exited 0 without a cache"
  printf '%s\n' "$out" | grep -q 'osap_train gamma_2_2 .*--calibrate' ||
    fail "osap_serve $args did not name osap_train ... --calibrate"
  printf '%s\n' "$out" | grep -q 'perfbench_replay --prepare' ||
    fail "osap_serve $args did not name perfbench_replay --prepare"
  [ ! -e osap_cache ] || fail "osap_serve $args wrote under ./osap_cache"
  echo "serve_cold_cache: $args: exit $rc, prepare command named," \
       "nothing written"
done
