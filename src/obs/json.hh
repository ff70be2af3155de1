/**
 * @file
 * JSON encoding shared by the observability and difftest writers:
 * one string escaper and one number encoder, so every exported file
 * (trace, metrics JSONL, SLO report, difftest report) spells strings
 * and doubles the same way.
 */

#ifndef LAER_OBS_JSON_HH
#define LAER_OBS_JSON_HH

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

namespace laer
{

/** JSON-escape a string value: `"`, `\`, newline, tab and carriage
 * return get their short escapes, every other byte below 0x20 becomes
 * `\u00XX`, so the output never holds a raw control character. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Encode a double as a JSON number with 12 significant digits
 * (NaN/inf have no JSON spelling, so they degrade to 0). */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    std::ostringstream oss;
    oss.precision(12);
    oss << v;
    return oss.str();
}

} // namespace laer

#endif // LAER_OBS_JSON_HH
