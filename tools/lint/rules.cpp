// The PEM project rule set.  Each rule encodes one invariant the test
// wall checks dynamically (or cannot check at all) and makes it a
// compile-gate: determinism of the wire transcript, the layer DAG, the
// net abstraction boundary, fd hygiene across five fork-based
// transports, Table-I byte accounting, and plain header hygiene.
#include <array>
#include <initializer_list>
#include <map>

#include "lint.h"

namespace pem::lint {
namespace {

// Directory component after src/ ("net" for src/net/frame.h); empty
// for files not under src/ or sitting directly in src/ (pem.h — the
// umbrella API header, exempt from layering).
std::string SrcModule(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return "";
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

void Report(const SourceFile& f, int line, std::string_view rule,
            std::string message, std::vector<Finding>* out) {
  out->push_back(Finding{f.path, line, std::string(rule), std::move(message)});
}

// --- determinism ------------------------------------------------------
//
// The protocol transcript must be a pure function of seeds and inputs:
// the parity matrix (tests/net, tests/protocol) diffs transcripts
// byte-for-byte across five transports, and any wall-clock or ambient
// randomness in src/protocol/ or src/crypto/ would fork them.  All
// randomness flows through crypto/rng.h (seeded, deterministic).
class DeterminismRule final : public Rule {
 public:
  std::string_view id() const override { return "determinism"; }
  std::string_view description() const override {
    return "src/protocol/ and src/crypto/ must not use ambient randomness "
           "or wall-clock time (std::rand, random_device, time(), "
           "system_clock, sleep)";
  }
  void Check(const SourceFile& f, std::vector<Finding>* out) const override {
    if (!f.PathStartsWith("src/protocol/") && !f.PathStartsWith("src/crypto/"))
      return;
    static constexpr std::array<std::string_view, 8> kBanned = {
        "std::rand",    "random_device", "time(",
        "system_clock", "sleep(",        "usleep(",
        "nanosleep(",   "sleep_for",
    };
    for (const std::string_view token : kBanned) {
      for (size_t pos = FindToken(f.code, token);
           pos != std::string_view::npos;
           pos = FindToken(f.code, token, pos + 1)) {
        Report(f, LineOfOffset(f.code, pos), id(),
               "nondeterministic API '" + std::string(token) +
                   "' in transcript-bearing code; use crypto/rng.h",
               out);
      }
    }
  }
};

// --- layering-order ---------------------------------------------------
//
// The module DAG, derived from the tree and now frozen:
//   util -> {crypto, net, grid} -> market -> protocol -> ledger -> core
// Each module lists the modules it may include from.  src/pem.h is the
// public umbrella and may include anything.
class LayeringOrderRule final : public Rule {
 public:
  std::string_view id() const override { return "layering-order"; }
  std::string_view description() const override {
    return "src/ modules may only include downward in the layer DAG "
           "util -> crypto/net/grid -> market -> protocol -> ledger -> core";
  }
  void Check(const SourceFile& f, std::vector<Finding>* out) const override {
    static const std::map<std::string, std::set<std::string>> kAllowed = {
        {"util", {"util"}},
        {"net", {"net", "util"}},
        {"crypto", {"crypto", "net", "util"}},
        {"grid", {"grid", "util"}},
        {"market", {"market", "grid", "util"}},
        {"protocol", {"protocol", "crypto", "net", "market", "grid", "util"}},
        {"ledger",
         {"ledger", "protocol", "crypto", "net", "market", "grid", "util"}},
        {"core",
         {"core", "ledger", "protocol", "crypto", "net", "market", "grid",
          "util"}},
    };
    const std::string mod = SrcModule(f.path);
    if (mod.empty()) return;  // pem.h umbrella / non-src file
    const auto it = kAllowed.find(mod);
    if (it == kAllowed.end()) {
      Report(f, 1, id(), "module '" + mod + "' is not in the layer DAG", out);
      return;
    }
    for (size_t i = 0; i < f.includes.size(); ++i) {
      const std::string& inc = f.includes[i];
      const size_t slash = inc.find('/');
      if (slash == std::string::npos) continue;  // same-dir or system
      const std::string target = inc.substr(0, slash);
      if (kAllowed.count(target) == 0) continue;  // not a module path
      if (it->second.count(target) == 0) {
        Report(f, f.include_lines[i], id(),
               "layer '" + mod + "' must not include upward from '" + target +
                   "' (\"" + inc + "\")",
               out);
      }
    }
  }
};

// --- layering-backend-include -----------------------------------------
//
// Protocol and crypto code speak to the network only through the
// abstract surface; the moment they name a concrete backend header the
// five-backend parity guarantee stops being a property of the type
// system.
class BackendIncludeRule final : public Rule {
 public:
  std::string_view id() const override { return "layering-backend-include"; }
  std::string_view description() const override {
    return "src/protocol/ and src/crypto/ may include only net's abstract "
           "surface (transport/message/frame/serialize/agent_supervisor), "
           "never a concrete backend header";
  }
  void Check(const SourceFile& f, std::vector<Finding>* out) const override {
    if (!f.PathStartsWith("src/protocol/") && !f.PathStartsWith("src/crypto/"))
      return;
    static const std::set<std::string> kAbstract = {
        "net/transport.h", "net/message.h", "net/frame.h", "net/serialize.h",
        "net/agent_supervisor.h"};
    for (size_t i = 0; i < f.includes.size(); ++i) {
      const std::string& inc = f.includes[i];
      if (inc.rfind("net/", 0) != 0) continue;
      if (kAbstract.count(inc) != 0) continue;
      Report(f, f.include_lines[i], id(),
             "concrete net backend header \"" + inc +
                 "\" included from transcript-layer code; use the abstract "
                 "surface (net/transport.h et al.)",
             out);
    }
  }
};

// --- raw-syscall ------------------------------------------------------
//
// Every wire byte must cross a Transport (so the TrafficLedger's
// Table-I accounting sees it).  Raw send()/recv()/write() outside
// src/net/ bypasses the ledger.  Tests may drive sockets directly to
// provoke byte-level faults, so the rule scopes to src/.
class RawSyscallRule final : public Rule {
 public:
  std::string_view id() const override { return "raw-syscall"; }
  std::string_view description() const override {
    return "raw send()/recv()/write() calls are confined to src/net/ — "
           "everything else goes through a Transport";
  }
  void Check(const SourceFile& f, std::vector<Finding>* out) const override {
    if (!f.PathStartsWith("src/") || f.PathStartsWith("src/net/")) return;
    for (const std::string_view token : {"send(", "recv(", "write("}) {
      for (size_t pos = FindToken(f.code, token);
           pos != std::string_view::npos;
           pos = FindToken(f.code, token, pos + 1)) {
        // Method calls (bus.send(...), out->write(...)) are not the
        // syscall; FindToken already rejects tokens glued to an
        // identifier (ReadRecord( vs read(), so only check . and ->.
        if (pos > 0 && (f.code[pos - 1] == '.' ||
                        (pos > 1 && f.code[pos - 2] == '-' &&
                         f.code[pos - 1] == '>'))) {
          continue;
        }
        Report(f, LineOfOffset(f.code, pos), id(),
               "raw '" + std::string(token.substr(0, token.size() - 1)) +
                   "()' outside src/net/ bypasses TrafficLedger accounting",
               out);
      }
    }
  }
};

// --- fd-cloexec -------------------------------------------------------
//
// Three transports fork; a future launcher will exec.  Every descriptor
// created in src/net/ must request CLOEXEC at creation (no fcntl
// afterthoughts — those race with concurrent fork) or carry an explicit
// suppression.  accept() can never be fixed in place: accept4() is the
// only atomic form.
class FdCloexecRule final : public Rule {
 public:
  std::string_view id() const override { return "fd-cloexec"; }
  std::string_view description() const override {
    return "fd creation in src/net/ (socket/socketpair/accept/open/"
           "epoll_create*) must request CLOEXEC atomically";
  }
  void Check(const SourceFile& f, std::vector<Finding>* out) const override {
    if (!f.PathStartsWith("src/net/")) return;
    for (const std::string_view token :
         {"socket(", "socketpair(", "open(", "epoll_create(",
          "epoll_create1("}) {
      for (size_t pos = FindToken(f.code, token);
           pos != std::string_view::npos;
           pos = FindToken(f.code, token, pos + 1)) {
        if (pos > 0 && (f.code[pos - 1] == '.' ||
                        (pos > 1 && f.code[pos - 2] == '-' &&
                         f.code[pos - 1] == '>'))) {
          continue;  // method, not syscall
        }
        // Scan the statement (to the terminating ';') for a CLOEXEC
        // request.
        const size_t end = f.code.find(';', pos);
        const std::string_view stmt(
            f.code.data() + pos,
            (end == std::string::npos ? f.code.size() : end) - pos);
        if (stmt.find("CLOEXEC") != std::string_view::npos) continue;
        Report(f, LineOfOffset(f.code, pos), id(),
               "'" + std::string(token.substr(0, token.size() - 1)) +
                   "()' without SOCK_CLOEXEC/O_CLOEXEC/EPOLL_CLOEXEC leaks "
                   "the fd across a future exec()",
               out);
      }
    }
    // accept() never takes a CLOEXEC flag; accept4() does.
    for (size_t pos = FindToken(f.code, "accept(");
         pos != std::string_view::npos;
         pos = FindToken(f.code, "accept(", pos + 1)) {
      if (pos > 0 && (f.code[pos - 1] == '.' ||
                      (pos > 1 && f.code[pos - 2] == '-' &&
                       f.code[pos - 1] == '>'))) {
        continue;
      }
      Report(f, LineOfOffset(f.code, pos), id(),
             "accept() cannot set CLOEXEC atomically; use "
             "accept4(..., SOCK_CLOEXEC)",
             out);
    }
  }
};

// --- frame-accounting -------------------------------------------------
//
// Table-I message bytes are FramedSize(payload) — computed in ONE
// place.  A bare `kFrameHeaderBytes +` arithmetic expression elsewhere
// is a hand-rolled copy of that formula waiting to drift.
class FrameAccountingRule final : public Rule {
 public:
  std::string_view id() const override { return "frame-accounting"; }
  std::string_view description() const override {
    return "frame-size arithmetic (kFrameHeaderBytes + ...) lives in "
           "net/frame.* only; use FramedSize()";
  }
  void Check(const SourceFile& f, std::vector<Finding>* out) const override {
    if (f.path == "src/net/frame.h" || f.path == "src/net/frame.cpp") return;
    for (size_t pos = FindToken(f.code, "kFrameHeaderBytes");
         pos != std::string_view::npos;
         pos = FindToken(f.code, "kFrameHeaderBytes", pos + 1)) {
      // Only arithmetic re-derivations are findings; comparisons and
      // plain mentions (buffer sizing against the constant) are fine.
      size_t next = pos + std::string_view("kFrameHeaderBytes").size();
      while (next < f.code.size() &&
             (f.code[next] == ' ' || f.code[next] == '\t')) {
        ++next;
      }
      if (next >= f.code.size() || f.code[next] != '+') continue;
      Report(f, LineOfOffset(f.code, pos), id(),
             "hand-rolled framed-size arithmetic; call FramedSize() so "
             "Table-I accounting has one definition",
             out);
    }
  }
};

// --- pragma-once ------------------------------------------------------
class PragmaOnceRule final : public Rule {
 public:
  std::string_view id() const override { return "pragma-once"; }
  std::string_view description() const override {
    return "every header carries #pragma once";
  }
  void Check(const SourceFile& f, std::vector<Finding>* out) const override {
    if (!f.is_header) return;
    for (const std::string& line : f.code_lines) {
      size_t i = line.find_first_not_of(" \t");
      if (i != std::string::npos && line.compare(i, 1, "#") == 0 &&
          line.find("pragma", i) != std::string::npos &&
          line.find("once", i) != std::string::npos) {
        return;
      }
    }
    Report(f, 1, id(), "header is missing #pragma once", out);
  }
};

// --- using-namespace --------------------------------------------------
class UsingNamespaceRule final : public Rule {
 public:
  std::string_view id() const override { return "using-namespace"; }
  std::string_view description() const override {
    return "headers must not contain using-directives (using namespace)";
  }
  void Check(const SourceFile& f, std::vector<Finding>* out) const override {
    if (!f.is_header) return;
    for (size_t pos = FindToken(f.code, "using namespace");
         pos != std::string_view::npos;
         pos = FindToken(f.code, "using namespace", pos + 1)) {
      Report(f, LineOfOffset(f.code, pos), id(),
             "using-directive in a header leaks into every includer", out);
    }
  }
};

// --- no-cout ----------------------------------------------------------
//
// Library code reports through structured errors (util/error.h);
// stray std::cout in src/ or tests/ corrupts bench CSV output and
// interleaves across forked agents.
class NoCoutRule final : public Rule {
 public:
  std::string_view id() const override { return "no-cout"; }
  std::string_view description() const override {
    return "std::cout is reserved for bench/, examples/ and tools/; "
           "library code reports through structured errors";
  }
  void Check(const SourceFile& f, std::vector<Finding>* out) const override {
    if (f.PathStartsWith("bench/") || f.PathStartsWith("examples/") ||
        f.PathStartsWith("tools/")) {
      return;
    }
    for (size_t pos = FindToken(f.code, "std::cout");
         pos != std::string_view::npos;
         pos = FindToken(f.code, "std::cout", pos + 1)) {
      Report(f, LineOfOffset(f.code, pos), id(),
             "std::cout outside bench/examples/tools; throw a structured "
             "error instead",
             out);
    }
  }
};

}  // namespace

Registry MakeDefaultRegistry() {
  Registry r;
  r.Add(std::make_unique<DeterminismRule>());
  r.Add(std::make_unique<LayeringOrderRule>());
  r.Add(std::make_unique<BackendIncludeRule>());
  r.Add(std::make_unique<RawSyscallRule>());
  r.Add(std::make_unique<FdCloexecRule>());
  r.Add(std::make_unique<FrameAccountingRule>());
  r.Add(std::make_unique<PragmaOnceRule>());
  r.Add(std::make_unique<UsingNamespaceRule>());
  r.Add(std::make_unique<NoCoutRule>());
  return r;
}

}  // namespace pem::lint
