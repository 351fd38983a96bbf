//===- Diag.cpp - Structured verifier diagnostics ---------------------------===//

#include "support/Diag.h"

using namespace granii;

static const char *severityName(DiagSeverity Severity) {
  switch (Severity) {
  case DiagSeverity::Error:
    return "error";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Note:
    return "note";
  }
  return "?";
}

std::string Diag::toString() const {
  std::string Out = severityName(Severity);
  Out += ": [" + Stage + "]";
  if (!Node.empty())
    Out += " " + Node + ":";
  Out += " " + Message;
  if (!Hint.empty())
    Out += " (hint: " + Hint + ")";
  return Out;
}

Diag &DiagEngine::report(DiagSeverity Severity, std::string Stage,
                         std::string Node, std::string Message,
                         std::string Hint) {
  if (Severity == DiagSeverity::Error)
    ++Errors;
  Diags.push_back({Severity, std::move(Stage), std::move(Node),
                   std::move(Message), std::move(Hint)});
  return Diags.back();
}

std::string DiagEngine::render() const {
  std::string Out;
  for (const Diag &D : Diags) {
    Out += D.toString();
    Out += "\n";
  }
  return Out;
}
