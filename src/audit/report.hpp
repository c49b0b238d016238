// Finalize-time conservation audit.
//
// Every major component exposes `register_audits(AuditReport&)`, adding
// named checks over its internal bookkeeping: the registration cache's
// pinned-byte conservation, the fabrics' posted-equals-delivered message
// accounting and Fig. 13 memory formulas, the MPI layer's
// every-request-completed-exactly-once ledger, the engine's drained event
// queue. A harness (Cluster, a test, a bench driver) collects the checks
// and runs them after the simulation finishes.
//
// Unlike the MNS_AUDIT macros (audit.hpp), the report is compiled in every
// build: the checks are O(component state) and run once at finalize, so
// they cost nothing on the simulation hot path. Checks record violations
// through the Scope handed to them; run() aggregates instead of stopping
// at the first failure, so one report shows every broken invariant at once.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "audit/audit.hpp"

namespace mns::audit {

class AuditReport {
 public:
  struct Violation {
    std::string component;
    std::string message;
  };
  /// Informational line recorded by a check (never a failure): context
  /// that belongs in the audit output without failing the run.
  struct Note {
    std::string component;
    std::string message;
  };

  /// Handed to each check while it runs; failures are recorded against the
  /// registered component name.
  class Scope {
   public:
    void fail(std::string message);
    void note(std::string message);
    void require(bool cond, std::string message) {
      if (!cond) fail(std::move(message));
    }
    template <class A, class B>
    void require_eq(const A& a, const B& b, const std::string& what) {
      if (!(a == b)) {
        fail(what + ": " + detail::stringify(a) +
             " != " + detail::stringify(b));
      }
    }

   private:
    friend class AuditReport;
    Scope(AuditReport& report, std::string component)
        : report_(&report), component_(std::move(component)) {}
    AuditReport* report_;
    std::string component_;
  };

  using Check = std::function<void(Scope&)>;

  /// Register a named finalize check. Checks run in registration order.
  void add_check(std::string component, Check fn);

  std::size_t check_count() const { return checks_.size(); }

  /// Run every registered check, collecting violations. An AuditError or
  /// other std::exception escaping a check is recorded as a violation of
  /// that check.
  const std::vector<Violation>& run();

  const std::vector<Violation>& violations() const { return violations_; }
  const std::vector<Note>& notes() const { return notes_; }
  bool clean() const { return violations_.empty(); }

  /// run(), then throw AuditError summarizing every violation (if any).
  void require_clean();

  /// Human-readable multi-line summary of the violations.
  std::string summary() const;

 private:
  struct Entry {
    std::string component;
    Check fn;
  };

  std::vector<Entry> checks_;
  std::vector<Violation> violations_;
  std::vector<Note> notes_;
};

}  // namespace mns::audit
