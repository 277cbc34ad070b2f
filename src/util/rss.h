// Process memory probes for the serving path.
//
// CurrentRssBytes/PeakRssBytes read the kernel's view of the whole
// process from /proc: what actually limits how many sessions fit on a
// host, including allocator overhead that the service's exact
// ServiceMemoryStats walk cannot see.
#pragma once

#include <cstddef>

namespace osap::util {

/// Resident set size in bytes from /proc/self/statm; 0 when the proc
/// filesystem is unavailable (non-Linux hosts, minimal containers with no
/// /proc mount). Never asserts - callers treat 0 as "no RSS view".
std::size_t CurrentRssBytes();

/// Peak resident set size in bytes (VmHWM from /proc/self/status, falling
/// back to getrusage); 0 when neither source is available. Monotonic over
/// the process lifetime - report it alongside CurrentRssBytes, not
/// instead of it.
std::size_t PeakRssBytes();

/// The probes behind the two functions above, parameterized on the proc
/// path so the missing/malformed-file fallbacks are unit-testable. Both
/// return 0 (never assert) when the file is absent or does not parse;
/// neither consults getrusage (that fallback lives in PeakRssBytes only).
std::size_t RssBytesFromStatm(const char* statm_path);
std::size_t PeakRssBytesFromStatus(const char* status_path);

}  // namespace osap::util
