// Unread shell: perfbench still builds one (ROADMAP item 20).  Every
// day runs its sampled windows one at a time (core::RunSimulation).
#pragma once

namespace pem::protocol {

class WindowScheduler {
 public:
  struct Options {
    int in_flight = 1;
    unsigned threads = 1;
  };

  explicit WindowScheduler(Options) {}

  bool fused() const { return false; }
};

}  // namespace pem::protocol
