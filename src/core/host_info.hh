/**
 * @file
 * Host fingerprint for benchmark JSON.
 *
 * A wall-time number means little without the machine and build that
 * produced it, and two BENCH files compare only when both came from
 * the same kind of host. Benches stamp this fingerprint into their
 * JSON as a "host" object; scripts/bench_diff.py prints both sides'
 * hosts and warns when they differ.
 */

#ifndef LAER_CORE_HOST_INFO_HH
#define LAER_CORE_HOST_INFO_HH

#include <string>

namespace laer
{

/** The machine and build a benchmark ran on. */
struct HostInfo
{
    int nproc = 0;         //!< online logical CPUs
    std::string cpu;       //!< CPU brand string, or "unknown"
    std::string compiler;  //!< compiler name and version
    std::string buildType; //!< CMake build type, or "unknown"
};

/** Probe the running host (reads /proc/cpuinfo where it exists). */
HostInfo probeHost();

/**
 * `info` as a one-line JSON object with the keys "nproc", "cpu",
 * "compiler" and "build_type".
 */
std::string hostJson(const HostInfo &info);

} // namespace laer

#endif // LAER_CORE_HOST_INFO_HH
