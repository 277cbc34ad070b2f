#!/bin/sh
# Fails when any of the given object files or static libraries contains a
# fused multiply-add instruction (vfmadd*, vfmsub*, vfnmadd*, vfnmsub*,
# including the addsub/subadd forms and every width).
#
# The vector kernels promise results bit-identical to their scalar loops,
# and an FMA rounds once where the scalar multiply-then-add rounds twice.
# The build passes -ffp-contract=off so the compiler never fuses on its
# own; this check catches a flag that went missing or an FMA intrinsic.
#
#   tools/check_no_fma.sh build/src/nn/libosap_nn.a build/src/svm/libosap_svm.a
#
# Exits 77 (ctest's skip code for the fma_free_kernels test) when objdump
# is not installed.
if ! command -v objdump >/dev/null 2>&1; then
  echo "check_no_fma: objdump not found; skipping the FMA check"
  exit 77
fi
if [ "$#" -eq 0 ]; then
  echo "usage: check_no_fma.sh LIBRARY..." >&2
  exit 2
fi
status=0
for lib in "$@"; do
  if ! listing=$(objdump -d --no-show-raw-insn "$lib"); then
    echo "check_no_fma: cannot disassemble $lib" >&2
    exit 2
  fi
  fma=$(printf '%s\n' "$listing" | grep -E '[[:space:]]vf(n)?m(add|sub)')
  if [ -n "$fma" ]; then
    echo "check_no_fma: $lib contains FMA instructions:"
    printf '%s\n' "$fma" | head -20
    status=1
  else
    echo "check_no_fma: $lib: no FMA instructions"
  fi
done
exit "$status"
