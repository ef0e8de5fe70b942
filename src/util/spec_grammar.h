// Field helpers shared by the comma-separated key=value spec grammars
// (sim::parse_fault_spec behind --faults, core::parse_arrival_spec
// behind --arrivals). Each grammar keeps its own error type and entry
// prefix: a helper reports a bad field through the grammar's @p fail,
// which must throw.
#pragma once

#include <charconv>
#include <string>
#include <type_traits>
#include <vector>

namespace cellsweep::util {

/// Splits @p s on @p sep. Empty fields are preserved so "spe=3:" is
/// diagnosed rather than silently collapsing.
inline std::vector<std::string> split_fields(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t from = 0;
  while (true) {
    const std::size_t at = s.find(sep, from);
    if (at == std::string::npos) {
      out.push_back(s.substr(from));
      return out;
    }
    out.push_back(s.substr(from, at - from));
    from = at + 1;
  }
}

/// All of @p v read as a T by std::from_chars (no leading space or
/// '+', nothing left over). Otherwise fails with "'<v>' is not a
/// number" (floating T), "... an integer" (signed) or "... an unsigned
/// integer".
template <typename T, typename Fail>
T parse_field(const std::string& v, Fail&& fail) {
  T x{};
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, x);
  if (ec != std::errc{} || p != end)
    fail("'" + v + "' is not " +
         (std::is_floating_point_v<T> ? "a number"
          : std::is_signed_v<T>       ? "an integer"
                                      : "an unsigned integer"));
  return x;
}

/// parse_field, then fails with "'<v>' out of range" outside [lo, hi].
template <typename T, typename Fail>
T parse_field(const std::string& v, T lo, T hi, Fail&& fail) {
  const T x = parse_field<T>(v, fail);
  if (!(x >= lo && x <= hi)) fail("'" + v + "' out of range");
  return x;
}

}  // namespace cellsweep::util
