// TCP remote transport: the paper's distributed deployment over a real
// network stack.
//
// The frame codec and the AgentDriver protocol loop are already
// transport-agnostic — a child needs nothing but a wire fd and a
// control fd — so distributing agents is a rendezvous problem: the
// parent binds a TCP listener (loopback by default, host:port
// configurable, port 0 auto-assigns), every agent dials in with TWO
// connections (wire + control), and each connection introduces itself
// with a fixed 16-byte hello naming the protocol magic, version,
// connection kind, and agent id.  After the rendezvous the parent runs
// the exact relay router, TrafficLedger and watchdog-bounded control
// plane of the fork-over-socketpair backend (net/process_transport.h's
// AgentSupervisor), so Table-I per-agent bytes become literal NETWORK
// bytes with no new accounting code.
//
// Two launch modes:
//   * forked   — the convenience constructor forks one local child per
//     agent; each closes the inherited listener fd and connects back
//     over loopback.  This is what ExecutionPolicy::Tcp() runs.
//   * external — the rendezvous-only constructor binds the listener
//     and returns; the operator reads port(), launches agents anywhere
//     (another host via ssh/k8s, a test thread), and WaitForAgents()
//     blocks until every hello has arrived or the connect timeout
//     expires with a structured error naming the missing agents.
//     ConnectTcpAgent() is the client half an external agent calls.
//
// TCP vs. the socketpair backends is not a rename: the stream
// arbitrarily segments and coalesces frames (SO_SNDBUF-sized partial
// writes, Nagle coalescing — disabled via TCP_NODELAY, 1-byte reads
// under load), and a dead peer is an RST/FIN race instead of a tidy
// EOF.  The torture and fault-injection suites in
// tests/net/test_tcp_transport.cpp exist precisely because this
// backend is the first to exercise those paths.
//
// Children run the same ChildTransport over a SocketStream as the
// socketpair backend (net/child_transport.h), so every frame a child
// consumes is byte-matched against its deterministic shadow script here
// too, and a frame that differs fails the receive at once.
#pragma once

#include <cstdint>
#include <string>

#include "net/agent_supervisor.h"

namespace pem::net {

// --- hello handshake --------------------------------------------------

// [u32 magic | u32 version | u32 kind | i32 agent], little-endian.
inline constexpr uint32_t kTcpHelloMagic = 0x544d4550;  // "PEMT"
inline constexpr uint32_t kTcpHelloVersion = 1;
inline constexpr uint32_t kTcpHelloKindWire = 1;
inline constexpr uint32_t kTcpHelloKindControl = 2;
inline constexpr size_t kTcpHelloBytes = 16;

// --- rendezvous listener ----------------------------------------------

// A bound, listening TCP socket (nonblocking, so a deadline-bounded
// Accept can never hang on the handshake-then-RST race).  `port` 0
// lets the kernel pick; the chosen port is cached at bind time, so
// port() stays valid after Close().  Numeric IPv4 hosts only
// ("127.0.0.1" loopback default; "0.0.0.0" to accept agents from
// other hosts).  `socket_buffer_bytes` > 0 shrinks SO_SNDBUF/SO_RCVBUF
// on the listener so accepted connections inherit them (post-accept is
// too late for the receive window).
class TcpListener {
 public:
  TcpListener(const std::string& host, uint16_t port, int backlog,
              int socket_buffer_bytes = 0);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  // Blocking accept bounded by `timeout_ms`; throws TransportError on
  // expiry (`who` flavors the message with what was being waited for).
  int Accept(int timeout_ms, const std::string& who);

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

// --- client half ------------------------------------------------------

struct TcpAgentSockets {
  int wire_fd = -1;
  int ctl_fd = -1;
};

// Dials one connection to the rendezvous and sends its hello.  Retries
// a refused connect (listener backlog full, or not yet up) until the
// deadline, sets TCP_NODELAY, and optionally shrinks SO_SNDBUF/RCVBUF
// (tests use this to force partial writes).  Throws TransportError on
// timeout.
int TcpConnectAndHello(const std::string& host, uint16_t port, uint32_t kind,
                       AgentId agent, int timeout_ms,
                       int socket_buffer_bytes = 0);

// The two connections an agent needs, hellos included.
TcpAgentSockets ConnectTcpAgent(const std::string& host, uint16_t port,
                                AgentId agent, int timeout_ms,
                                int socket_buffer_bytes = 0);

// --- the transport ----------------------------------------------------

class TcpTransport : public AgentSupervisor {
 public:
  struct Options {
    // See AgentSupervisor::Options.
    int watchdog_ms = 120'000;
    // Where the rendezvous listens and children/external agents dial.
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0: kernel auto-assigns; read back via port()
    // Rendezvous deadline: every agent must complete both hellos
    // within this long or the constructor / WaitForAgents() throws a
    // structured error naming the missing agents.
    int connect_timeout_ms = 30'000;
    // Shrink SO_SNDBUF/SO_RCVBUF on every wire socket (0: kernel
    // default).  Tests set this smaller than one frame to prove short
    // writes are fully retried on both sides of the router.
    int socket_buffer_bytes = 0;
  };

  // Forked mode: one local child per agent, each connecting back over
  // TCP.  The rendezvous completes inside the constructor.
  TcpTransport(int num_agents, ChildMain child_main, Options opts);
  TcpTransport(int num_agents, ChildMain child_main)
      : TcpTransport(num_agents, std::move(child_main), Options{}) {}

  // External mode: binds the listener and returns immediately.  Read
  // port(), launch the agents (ConnectTcpAgent on their side), then
  // call WaitForAgents() to complete the rendezvous.
  TcpTransport(int num_agents, Options opts);

  uint16_t port() const { return listener_.port(); }
  const std::string& host() const { return opts_.host; }

  // Accepts connections until every agent has completed both hellos,
  // validates them (magic/version/kind, agent id in range, no
  // duplicates), then starts the relay router and closes the listener.
  // Throws TransportError on timeout, garbage, or a duplicate hello.
  // The forked constructor calls this itself; external mode calls it
  // once after launching the agents.  No-op if already rendezvoused.
  void WaitForAgents();

 private:
  TcpListener listener_;
  Options opts_;
  bool accepted_ = false;
};

}  // namespace pem::net
