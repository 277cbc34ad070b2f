#!/bin/sh
# Fails when a serving binary defines a symbol of the training stack:
# anything in osap::rl, the Workbench, the Adam optimizer or the
# calibration replay. osap_serve serves trained artifacts from the cache
# and never trains, so none of these belongs in it (nor in osap_client).
#
#   tests/scripts/check_link_closure.sh build/tools/osap_serve build/tools/osap_client
#
# Exits 77 (ctest's skip code for the serving_link_closure test) when nm
# is not installed.
if ! command -v nm >/dev/null 2>&1; then
  echo "check_link_closure: nm not found; skipping the link-closure check"
  exit 77
fi
if [ "$#" -eq 0 ]; then
  echo "usage: check_link_closure.sh BINARY..." >&2
  exit 2
fi
# WorkbenchConfig is plain data the serving path reads; the Workbench
# class itself must stay out.
training='osap::rl::|osap::core::Workbench([^A-Za-z0-9_]|$)|osap::nn::Adam|CalibrationReplay'
status=0
for bin in "$@"; do
  if ! symbols=$(nm -C --defined-only "$bin"); then
    echo "check_link_closure: cannot read the symbols of $bin" >&2
    exit 2
  fi
  found=$(printf '%s\n' "$symbols" | grep -E "$training")
  if [ -n "$found" ]; then
    echo "check_link_closure: $bin defines $(printf '%s\n' "$found" | wc -l)" \
         "training-stack symbols:"
    printf '%s\n' "$found" | head -20
    status=1
  else
    echo "check_link_closure: $bin: no training-stack symbols"
  fi
done
exit "$status"
