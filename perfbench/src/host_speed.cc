// Reference kernel for the host's speed. It is the benchmark's own code,
// built with fixed flags (see CMakeLists.txt), so no change to the program
// or to its build can move it: it measures only the host.
//
// On small shared VMs the host runs this process in fast and slow spells
// of seconds, whose mix drifts over minutes as other tenants come and go;
// every stage of the pipeline slows by 1.4–1.7x in a slow spell. Of the
// candidates tried (L1 multiply-adds, gathers from a 256 KiB and a 4 MiB
// table, integer hashing, strided reads of 16 MiB and 64 MiB), the strided
// read of a buffer larger than the last-level cache tracked the stages
// best: in a turbulent run, scaling each stage's samples by it cut their
// spread within the run from 0.26–0.33 of the median to 0.10–0.15.

#include <algorithm>
#include <chrono>
#include <vector>

namespace perfbench {

namespace {

constexpr size_t kFloats = size_t{1} << 24;  // 64 MiB
constexpr size_t kStride = 4;                // 16 bytes
constexpr int kReps = 3;
/// Time of one pass on the nominal host — in a fast spell of a 4-vCPU KVM
/// guest on Intel Xeon — where HostSpeed() is 1.
constexpr double kNominalSeconds = 8.0e-3;

volatile float g_sink;
bool g_allocated = false;

const std::vector<float>& Buffer() {
  static const std::vector<float> buffer = [] {
    g_allocated = true;
    return std::vector<float>(kFloats, 1.0f);
  }();
  return buffer;
}

double OnePass(const std::vector<float>& buffer) {
  float acc = 0.0f;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < buffer.size(); i += kStride) acc += buffer[i];
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  g_sink = acc;
  return s;
}

}  // namespace

// Declared in bench.h; this file stays free of the program's headers.

double HostSpeed() {
  const std::vector<float>& buffer = Buffer();
  double reps[kReps];
  for (double& r : reps) r = OnePass(buffer);
  std::sort(reps, reps + kReps);
  return kNominalSeconds / reps[kReps / 2];
}

double HostSpeedBufferMb() {
  return g_allocated ? static_cast<double>(kFloats * sizeof(float)) / 1048576.0
                     : 0.0;
}

}  // namespace perfbench
