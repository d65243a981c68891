#ifndef GREEN_COMMON_STRINGUTIL_H_
#define GREEN_COMMON_STRINGUTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace green {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Fixed-precision human formatting, e.g. 1.2345e-05 -> "1.23e-05".
std::string FormatSci(double v, int digits = 3);

/// Thousands-separated integer formatting, e.g. 404649 -> "404,649".
std::string FormatWithCommas(int64_t v);

bool EndsWith(std::string_view s, std::string_view suffix);

}  // namespace green

#endif  // GREEN_COMMON_STRINGUTIL_H_
