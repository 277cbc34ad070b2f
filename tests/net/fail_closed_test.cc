// Finite states that once broke a served session, replayed over loopback:
// one extreme STEP, then 60 STEPs of seeded uniform [0, 5) states. In the
// served gamma_2_2 model, 25 values alternating +-1.7e308 overflow the
// U_pi logits and +-1e154 the U_V score. The tests' small untrained nets
// need other states for the same effect: alternating signs cancel to NaN,
// which their ReLUs map to 0, so the U_pi probe sends 25 x -1.7e308; and
// their value nets scale a state by about 0.6, so the U_V probe sends
// +-1e155, whose score squares to +inf. Either way the server must stay
// up, every STEP must be answered, and the poisoned score must make the
// session default within the trigger's delay: the score stays in the
// window for k steps, each of them uncertain, so the trigger fires at
// step l - 1 (l <= k).
//
// The server runs in a forked child, so a server that dies is a test
// observation (EOF, then a refused connection), not the end of the test
// binary.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "testing/defaulting_oracle.h"
#include "util/rng.h"

namespace osap::testing {
namespace {

/// A NetServer on an ephemeral port in a child process.
class ChildServer {
 public:
  explicit ChildServer(std::shared_ptr<const serve::ServingModel> model) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The child never returns into the test framework: an exception
      // escaping Run ends it, as an uncaught one ends osap_serve.
      try {
        ::close(fds[0]);
        net::NetServer server(std::move(model), net::NetServerConfig{});
        server.Start();
        const std::uint16_t port = server.Port();
        if (::write(fds[1], &port, sizeof port) != sizeof port) ::_exit(2);
        ::close(fds[1]);
        server.Run();
      } catch (...) {
        ::_exit(3);
      }
      ::_exit(0);
    }
    ::close(fds[1]);
    if (::read(fds[0], &port_, sizeof port_) != sizeof port_) port_ = 0;
    ::close(fds[0]);
  }
  ~ChildServer() {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }

  std::uint16_t Port() const { return port_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Runs the probe with `extreme` as the first state against `signal`'s
/// kPermanent deployment and checks the fail-closed contract.
void Probe(serve::Signal signal, const std::vector<double>& extreme) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, signal, core::DefaultingMode::kPermanent);
  ChildServer server(model);
  ASSERT_NE(server.Port(), 0) << "the server did not start";
  net::Client client;
  client.Connect("127.0.0.1", server.Port());
  BoundReplyWait(client);
  const std::uint64_t session = client.OpenSession();

  constexpr std::size_t kSteps = 61;
  Rng rng(2020);
  std::vector<net::Status> status;
  std::size_t first_default = kSteps;
  for (std::size_t t = 0; t < kSteps; ++t) {
    std::vector<double> state = extreme;
    if (t > 0) {
      for (double& x : state) x = rng.Uniform(0.0, 5.0);
    }
    client.SendStep(t, session, state);
    client.Flush();
    net::Reply reply;
    if (!client.ReadReply(reply)) break;
    status.push_back(reply.status);
    if (reply.Defaulted() && first_default == kSteps) first_default = t;
  }
  EXPECT_NO_THROW({
    net::Client again;  // a server that is up answers a new connection
    again.Connect("127.0.0.1", server.Port());
    BoundReplyWait(again);
    again.Stats();
  }) << "the server exited";
  ASSERT_EQ(status.size(), kSteps) << "the server hung up after "
                                   << status.size() << " replies";
  EXPECT_EQ(status[0], net::Status::kOk) << "the extreme STEP was refused";
  for (std::size_t t = 1; t < kSteps; ++t) {
    EXPECT_EQ(status[t], net::Status::kOk) << "step " << t;
  }
  EXPECT_LE(first_default, kWorldTriggerL - 1)
      << "the session must default within the trigger's delay";
}

TEST(FailClosedProbe, OverflowingLogitsDefaultTheSessionAndKeepTheServerUp) {
  Probe(serve::Signal::kAgentEnsemble,
        ExtremeState(SharedServeWorld().layout.Size(), -1.7e308, false));
}

TEST(FailClosedProbe, OverflowingValueScoreDefaultsTheSession) {
  Probe(serve::Signal::kValueEnsemble,
        ExtremeState(SharedServeWorld().layout.Size(), 1e155, true));
}

TEST(FailClosedProbe, NonFiniteMemberOutputsScoreInfinity) {
  const ServeWorld& w = SharedServeWorld();
  const std::vector<double> state = ExtremeState(
      w.layout.Size(), -std::numeric_limits<double>::max(), false);
  for (const serve::Signal signal :
       {serve::Signal::kAgentEnsemble, serve::Signal::kValueEnsemble}) {
    EXPECT_EQ(MakeEstimator(w, signal)->Score(state),
              std::numeric_limits<double>::infinity());
  }
}

}  // namespace
}  // namespace osap::testing
