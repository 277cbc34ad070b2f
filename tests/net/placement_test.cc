// Connection placement: the server alone decides which edge owns a
// connection. Edge 0 accepts every connection on the one listener and
// places it on the edge with the fewest open connections, the lowest
// index on a tie; the owning edge uncounts it when it closes. Session ids
// are edge-affine, so a connection's edge is read from the id its OPEN is
// granted: id % edge_threads, the shard the edge owns.
//
// One listener also means one server per port: a second server on a
// bound port fails to start instead of sharing its connections.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "testing/defaulting_oracle.h"

namespace osap::net {
namespace {

using testing::Connect;
using testing::ModelFor;
using testing::ServerRunner;
using testing::SharedServeWorld;

std::shared_ptr<const serve::ServingModel> Model() {
  return ModelFor(SharedServeWorld(), serve::Signal::kNovelty,
                  core::DefaultingMode::kPermanent);
}

/// The edge that granted `client` a session: opens one, reads its shard,
/// and closes it again.
std::size_t EdgeOf(Client& client, const NetServerConfig& cfg) {
  const std::uint64_t id = client.OpenSession();
  client.CloseSession(id);
  return id % cfg.edge_threads;
}

/// Polls STATS on `observer` until the server counts `open` connections.
void AwaitConnections(Client& observer, std::size_t open) {
  for (int polls = 0; observer.Stats().connections != open; ++polls) {
    ASSERT_LT(polls, 100000) << "the server never got to " << open
                             << " connections";
  }
}

// Eight sequential connections to a fresh 4-edge server land two per
// edge, in order. Once both of edge 2's connections close, edge 2 alone
// has the fewest, so it takes the next two; then every edge is tied
// again and edge 0 takes the one after.
TEST(NetPlacement, FewestOpenConnectionsWinsLowestIndexOnATie) {
  NetServerConfig cfg;
  cfg.edge_threads = 4;
  ServerRunner server(Model(), cfg);

  std::vector<std::unique_ptr<Client>> conns;
  for (std::size_t k = 0; k < 8; ++k) {
    conns.push_back(Connect(server.Port()));
    EXPECT_EQ(EdgeOf(*conns.back(), cfg), k % 4) << "connection " << k;
  }

  conns[2]->Close();
  conns[6]->Close();
  AwaitConnections(*conns[0], 6);
  for (int k = 0; k < 2; ++k) {
    conns.push_back(Connect(server.Port()));
    EXPECT_EQ(EdgeOf(*conns.back(), cfg), 2u) << "refill " << k;
  }
  conns.push_back(Connect(server.Port()));
  EXPECT_EQ(EdgeOf(*conns.back(), cfg), 0u);
  EXPECT_EQ(conns[0]->Stats().connections, 9u);
}

// With one edge every connection is edge 0's, and session ids are handed
// out 0, 1, 2, ... across connections, as from the single-loop server.
TEST(NetPlacement, OneEdgeHandsOutIdsInOrder) {
  NetServerConfig cfg;
  ServerRunner server(Model(), cfg);
  std::vector<std::unique_ptr<Client>> conns;
  for (int k = 0; k < 3; ++k) conns.push_back(Connect(server.Port()));
  for (std::uint64_t id = 0; id < 9; ++id) {
    EXPECT_EQ(conns[id % 3]->OpenSession(), id);
  }
  EXPECT_EQ(conns[0]->Stats().connections, 3u);
}

// A second server on a port another one listens on fails to start
// (EADDRINUSE) rather than splitting the port's connections with it.
TEST(NetPlacement, SecondServerOnABoundPortFailsToStart) {
  NetServerConfig cfg;
  cfg.edge_threads = 2;
  ServerRunner first(Model(), cfg);
  cfg.port = first.Port();
  NetServer second(Model(), cfg);
  EXPECT_THROW(second.Start(), std::runtime_error);

  // Every connection still reaches the first server.
  const std::unique_ptr<Client> client = Connect(first.Port());
  EXPECT_EQ(client->Stats().connections, 1u);
}

}  // namespace
}  // namespace osap::net
