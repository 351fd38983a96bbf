//===- Str.cpp - Small string utilities -----------------------------------===//

#include "support/Str.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

using namespace granii;

std::vector<std::string> granii::splitString(std::string_view Text, char Sep) {
  std::vector<std::string> Parts;
  size_t Begin = 0;
  while (true) {
    size_t End = Text.find(Sep, Begin);
    if (End == std::string_view::npos) {
      Parts.emplace_back(Text.substr(Begin));
      return Parts;
    }
    Parts.emplace_back(Text.substr(Begin, End - Begin));
    Begin = End + 1;
  }
}

std::string_view granii::trimString(std::string_view Text) {
  auto IsSpace = [](char C) {
    return C == ' ' || C == '\t' || C == '\r' || C == '\n';
  };
  while (!Text.empty() && IsSpace(Text.front()))
    Text.remove_prefix(1);
  while (!Text.empty() && IsSpace(Text.back()))
    Text.remove_suffix(1);
  return Text;
}

bool granii::startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.substr(0, Prefix.size()) == Prefix;
}

bool granii::parseInt64(std::string_view Text, int64_t &Out) {
  int64_t Value = 0;
  const char *First = Text.data(), *Last = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Value, 10);
  if (Ec != std::errc() || Ptr != Last)
    return false;
  Out = Value;
  return true;
}

bool granii::parseDouble(std::string_view Text, double &Out) {
  if (Text.empty())
    return false;
  const char *First = Text.data(), *Last = Text.data() + Text.size();
  bool Negative = false;
  if (*First == '+' || *First == '-') {
    Negative = *First == '-';
    ++First;
    // from_chars itself accepts a leading '-', so "--1" would otherwise
    // slip through as minus-minus-one.
    if (First != Last && (*First == '+' || *First == '-'))
      return false;
  }
  // from_chars's hex format omits the "0x" prefix strtod (and printf %a)
  // uses, so strip it here and select the format explicitly.
  std::chars_format Format = std::chars_format::general;
  if (Last - First > 2 && First[0] == '0' &&
      (First[1] == 'x' || First[1] == 'X')) {
    Format = std::chars_format::hex;
    First += 2;
  }
  double Value = 0.0;
  auto [Ptr, Ec] = std::from_chars(First, Last, Value, Format);
  if (Ec != std::errc() || Ptr != Last)
    return false;
  Out = Negative ? -Value : Value;
  return true;
}

std::vector<std::string_view> granii::splitFields(std::string_view Text) {
  std::vector<std::string_view> Fields;
  for (std::string_view F = popField(Text); !F.empty(); F = popField(Text))
    Fields.push_back(F);
  return Fields;
}

std::string_view granii::popField(std::string_view &Text) {
  auto IsSpace = [](char C) {
    return C == ' ' || C == '\t' || C == '\r' || C == '\n' || C == '\v' ||
           C == '\f';
  };
  size_t Begin = 0;
  while (Begin < Text.size() && IsSpace(Text[Begin]))
    ++Begin;
  size_t End = Begin;
  while (End < Text.size() && !IsSpace(Text[End]))
    ++End;
  std::string_view Field = Text.substr(Begin, End - Begin);
  Text.remove_prefix(End);
  return Field;
}

std::string granii::joinStrings(const std::vector<std::string> &Parts,
                                std::string_view Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string granii::formatDouble(double Value, int Digits) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Digits, Value);
  return Buffer;
}

std::string granii::renderTable(
    const std::vector<std::string> &Header,
    const std::vector<std::vector<std::string>> &Rows) {
  std::vector<size_t> Widths(Header.size(), 0);
  for (size_t C = 0; C < Header.size(); ++C)
    Widths[C] = Header[C].size();
  for (const auto &Row : Rows)
    for (size_t C = 0; C < Row.size() && C < Widths.size(); ++C)
      Widths[C] = std::max(Widths[C], Row[C].size());

  auto RenderRow = [&](const std::vector<std::string> &Row) {
    std::string Line = "|";
    for (size_t C = 0; C < Widths.size(); ++C) {
      std::string Cell = C < Row.size() ? Row[C] : "";
      Cell.resize(Widths[C], ' ');
      Line += " " + Cell + " |";
    }
    return Line + "\n";
  };

  std::string Result = RenderRow(Header);
  std::string Rule = "|";
  for (size_t Width : Widths)
    Rule += std::string(Width + 2, '-') + "|";
  Result += Rule + "\n";
  for (const auto &Row : Rows)
    Result += RenderRow(Row);
  return Result;
}
