// The differential oracle for the defaulting decision (paper Section 2.5:
// a session hands control to Buffer-Based once its signal has been
// uncertain l consecutive times).
//
// CheckSchedule runs one generated schedule (schedule.h) through a
// per-session SafeAgent (the reference, its scores recorded), a
// DecisionService with one shard per schedule group, each on its own
// thread, and a loopback NetServer with one edge per group. Every
// answered step must carry the same action and defaulted flag, and every
// path must default exactly where the tests' own trigger
// (reference_trigger.h, not core::SafetyObserve) puts it when it replays
// the recorded scores, and every session that scored a value whose square
// is not finite must be defaulted l - 1 steps later (the fail-closed
// contract, which does not trust the shared window routine). It also
// checks the invariants the schedule exercises (deferred duplicates, step
// counts, slots within the peak population, slabs trimmed after a mass
// close, exact STATS) and the coverage that gives the comparison meaning
// (sessions that default, mid-session and never; empty and busy rounds;
// >= 10k recycled ids under churn; a poisoned score in the extreme
// profile; every kTileEdgeRequests count on every shard in the
// tile-edges profile).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/safety_core.h"
#include "mdp/types.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/serving_model.h"
#include "testing/schedule.h"
#include "testing/serve_world.h"

namespace osap::testing {

/// One session's reference run through its own SafeAgent.
struct ReferenceSession {
  std::vector<mdp::State> states;  // the state each step was decided on
  std::vector<mdp::Action> actions;
  std::vector<char> defaulted;  // SafeAgent::Defaulted() after each step
  std::vector<double> scores;   // every score the estimator produced
  std::size_t default_step = 0;  // SafeAgent::DefaultStep() at the end
};

/// Runs each script's `steps` decisions closed-loop over its trace.
std::vector<ReferenceSession> RunReference(
    const ServeWorld& w, std::span<const SessionScript> scripts,
    serve::Signal signal, core::DefaultingMode mode);

/// Runs `schedule` through all three paths for (signal, mode) and records
/// a test failure for every divergence, broken invariant or missing
/// coverage.
void CheckSchedule(const ServeWorld& w, const Schedule& schedule,
                   serve::Signal signal, core::DefaultingMode mode);

/// Starts a NetServer on an ephemeral port and runs its event loop on a
/// dedicated thread until destruction.
class ServerRunner {
 public:
  explicit ServerRunner(std::shared_ptr<const serve::ServingModel> model,
                        net::NetServerConfig config = {}) {
    config.port = 0;
    server_ = std::make_unique<net::NetServer>(std::move(model), config);
    server_->Start();
    thread_ = std::thread([this] { server_->Run(); });
  }
  ~ServerRunner() {
    server_->Stop();
    thread_.join();
  }

  std::uint16_t Port() const { return server_->Port(); }
  /// Safe only after the loop has returned, or for the atomics it sums
  /// (IoSyscalls, EdgeCount).
  const net::NetServer& server() const { return *server_; }

 private:
  std::unique_ptr<net::NetServer> server_;
  std::thread thread_;
};

/// Bounds every blocking read on `client` to 10 s, so a reply the server
/// never sends fails the test instead of hanging it.
void BoundReplyWait(const net::Client& client);

/// A loopback connection to `port` with bounded reads. On a fresh server
/// the k-th connection lands on edge k % edge_threads.
std::unique_ptr<net::Client> Connect(std::uint16_t port);

}  // namespace osap::testing
