//===- Str.h - Small string utilities --------------------------*- C++ -*-===//
///
/// \file
/// String helpers shared by the DSL front end, Matrix-Market IO, and the
/// experiment harness output code.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SUPPORT_STR_H
#define GRANII_SUPPORT_STR_H

#include <string>
#include <string_view>
#include <vector>

namespace granii {

/// Splits \p Text on \p Sep, keeping empty fields.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trimString(std::string_view Text);

/// \returns true if \p Text starts with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// Parses a base-10 signed integer occupying all of \p Text into \p Out.
/// \returns false (leaving \p Out untouched) on empty input, trailing
/// garbage, or overflow.
bool parseInt64(std::string_view Text, int64_t &Out);

/// Parses a floating-point number occupying all of \p Text into \p Out.
/// Accepts the strtod surface the repo's file formats use — fixed,
/// scientific, and C hex-float ("0x1.8p+3", the printf %a round-trip form
/// of the plan and cost-model caches) with an optional sign — but, unlike
/// strtod, rejects trailing garbage and never consults errno. \returns
/// false (leaving \p Out untouched) on empty input, trailing garbage, or a
/// value outside double range.
bool parseDouble(std::string_view Text, double &Out);

/// Splits \p Text at runs of ASCII whitespace, dropping empty fields. The
/// returned views alias \p Text. This is the checked replacement for the
/// sscanf-based field scanning the loaders used to do: split, then parse
/// each field with parseInt64/parseDouble.
std::vector<std::string_view> splitFields(std::string_view Text);

/// Removes the first field of \p Text (fields as in splitFields) and
/// returns it; \p Text keeps the rest. \returns an empty view when no field
/// is left. The allocation-free form of splitFields for per-line scanners.
std::string_view popField(std::string_view &Text);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// Formats \p Value with \p Digits digits after the decimal point.
std::string formatDouble(double Value, int Digits);

/// Renders a table: a header row plus data rows, columns padded to align.
/// Used by the experiment harnesses to print paper-style tables.
std::string renderTable(const std::vector<std::string> &Header,
                        const std::vector<std::vector<std::string>> &Rows);

} // namespace granii

#endif // GRANII_SUPPORT_STR_H
