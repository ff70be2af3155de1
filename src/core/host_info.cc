#include "core/host_info.hh"

#include <fstream>
#include <sstream>
#include <thread>

#ifndef LAER_BUILD_TYPE
#define LAER_BUILD_TYPE "unknown"
#endif

namespace laer
{

namespace
{

/** The "model name" of the first CPU in /proc/cpuinfo. */
std::string
cpuBrand()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, 10, "model name") != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const std::size_t start = line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos)
            return line.substr(start);
        break;
    }
    return "unknown";
}

/** `s` as a quoted JSON string; control characters are dropped. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

HostInfo
probeHost()
{
    HostInfo info;
    info.nproc = static_cast<int>(std::thread::hardware_concurrency());
    info.cpu = cpuBrand();
#if defined(__clang__)
    info.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    info.compiler = "gcc " __VERSION__;
#else
    info.compiler = "unknown";
#endif
    info.buildType = LAER_BUILD_TYPE;
    return info;
}

std::string
hostJson(const HostInfo &info)
{
    std::ostringstream os;
    os << "{\"nproc\": " << info.nproc << ", \"cpu\": " << quoted(info.cpu)
       << ", \"compiler\": " << quoted(info.compiler)
       << ", \"build_type\": " << quoted(info.buildType) << "}";
    return os.str();
}

} // namespace laer
