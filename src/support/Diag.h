//===- Diag.h - Structured verifier diagnostics -----------------*- C++ -*-===//
///
/// \file
/// Structured diagnostics for the GRANII verifier subsystem. Every pipeline
/// stage (parse, rewrite passes, enumeration, pruning, buffer planning, row
/// partitioning) reports invariant violations as Diag records carrying a
/// severity, the stage that found the problem, a path naming the offending
/// node/value, the violation message, and an optional fix hint. A
/// DiagEngine collects the records so one verification run can report every
/// violation instead of aborting at the first; callers that still want the
/// abort-on-violation contract render the engine's contents into
/// GRANII_FATAL.
///
/// Every compile runs every offline check (the IR after each rewrite pass,
/// each enumerated candidate, the promoted set), and the optimizer checks a
/// buffer schedule and CSR row partition whenever it plans an arena or
/// rebuilds a layout; there is no verification level (docs/VERIFICATION.md).
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SUPPORT_DIAG_H
#define GRANII_SUPPORT_DIAG_H

#include <string>
#include <vector>

namespace granii {

enum class DiagSeverity { Error, Warning, Note };

/// One structured verifier finding.
struct Diag {
  DiagSeverity Severity = DiagSeverity::Error;
  /// Pipeline stage that found the violation, e.g. "ir",
  /// "rewrite:broadcast-to-diag", "plan", "prune", "buffers", "partition".
  std::string Stage;
  /// Path naming the offending entity: an IR node path like
  /// "matmul/operand1:relu", a plan value like "plan#3/v5", a slot like
  /// "slot2", or a partition chunk like "chunk1".
  std::string Node;
  std::string Message;
  /// Optional actionable hint ("flatten the chain with ir::matMul", ...).
  std::string Hint;

  /// "error: [stage] node: message (hint: ...)".
  std::string toString() const;
};

/// Collects diagnostics across one verification run.
class DiagEngine {
public:
  /// Appends a diagnostic and returns it for further decoration.
  Diag &report(DiagSeverity Severity, std::string Stage, std::string Node,
               std::string Message, std::string Hint = "");

  /// Convenience for the common error case.
  Diag &error(std::string Stage, std::string Node, std::string Message,
              std::string Hint = "") {
    return report(DiagSeverity::Error, std::move(Stage), std::move(Node),
                  std::move(Message), std::move(Hint));
  }

  const std::vector<Diag> &diags() const { return Diags; }
  size_t errorCount() const { return Errors; }
  bool hasErrors() const { return Errors > 0; }

  /// All diagnostics, one per line (empty string when clean).
  std::string render() const;

  void clear() {
    Diags.clear();
    Errors = 0;
  }

private:
  std::vector<Diag> Diags;
  size_t Errors = 0;
};

} // namespace granii

#endif // GRANII_SUPPORT_DIAG_H
