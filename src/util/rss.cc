#include "util/rss.h"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace osap::util {

std::size_t RssBytesFromStatm(const char* statm_path) {
  std::FILE* f = std::fopen(statm_path, "r");
  if (f == nullptr) return 0;
  long total_pages = 0;
  long resident_pages = 0;
  const int fields = std::fscanf(f, "%ld %ld", &total_pages, &resident_pages);
  std::fclose(f);
  if (fields != 2 || resident_pages < 0) return 0;
#if defined(_SC_PAGESIZE)
  const long page = sysconf(_SC_PAGESIZE);
#else
  const long page = 4096;
#endif
  return static_cast<std::size_t>(resident_pages) *
         static_cast<std::size_t>(page > 0 ? page : 4096);
}

std::size_t PeakRssBytesFromStatus(const char* status_path) {
  std::FILE* f = std::fopen(status_path, "r");
  if (f == nullptr) return 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) != 0) continue;
    long kib = 0;
    if (std::sscanf(line + 6, "%ld", &kib) == 1 && kib >= 0) {
      std::fclose(f);
      return static_cast<std::size_t>(kib) * 1024;
    }
    break;
  }
  std::fclose(f);
  return 0;
}

std::size_t CurrentRssBytes() { return RssBytesFromStatm("/proc/self/statm"); }

std::size_t PeakRssBytes() {
  const std::size_t from_status = PeakRssBytesFromStatus("/proc/self/status");
  if (from_status > 0) return from_status;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
    // Linux reports ru_maxrss in KiB (macOS in bytes, but macOS never
    // reaches here: /proc is absent and this branch reports bytes anyway,
    // an acceptable upper bound).
    return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
  }
#endif
  return 0;
}

}  // namespace osap::util
