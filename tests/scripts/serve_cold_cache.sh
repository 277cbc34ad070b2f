#!/bin/sh
# osap_serve on a cold cache: in an empty working directory it must exit
# non-zero, name the command that fills the cache, and write nothing
# under ./osap_cache (a server that trained there would do all three
# wrong, and slowly).
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
out=$("$serve" us --sessions 6 --rounds 2 2>&1)
rc=$?
printf '%s\n' "$out"
fail() {
  echo "serve_cold_cache: $1"
  exit 1
}
[ "$rc" -ne 0 ] || fail "osap_serve exited 0 without a cache"
printf '%s\n' "$out" | grep -q 'osap_train gamma_2_2 .*--calibrate' ||
  fail "osap_serve did not name osap_train ... --calibrate"
printf '%s\n' "$out" | grep -q 'perfbench_replay --prepare' ||
  fail "osap_serve did not name perfbench_replay --prepare"
[ ! -e osap_cache ] || fail "osap_serve wrote under ./osap_cache"
echo "serve_cold_cache: exit $rc, prepare command named, nothing written"
