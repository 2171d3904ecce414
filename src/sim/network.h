// Network fabric: a set of named hosts joined by point-to-point links.
// A mobile host typically owns several links to its home server (Ethernet
// dock, WaveLAN, dial-up modem), each with its own connectivity schedule;
// the transport layer's network scheduler picks among them.
//
// Hosts keep a per-peer index over their links so the hot-path questions
// ("which links reach this peer?", "can I reach it right now?") cost
// O(links-to-that-peer) -- typically 1 -- instead of O(all attached
// links). A server fanning in 10k clients has 10k links; without the
// index every response send re-scanned all of them.

#ifndef ROVER_SRC_SIM_NETWORK_H_
#define ROVER_SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/link.h"
#include "src/util/status.h"

namespace rover {

// Process-wide count of link entries examined by Host peer lookups
// (LinksTo, CanReach). Tests assert this stays flat as unrelated links
// are attached -- the scan-work-per-send regression guard.
uint64_t HostLinkScanSteps();
void ResetHostLinkScanSteps();

class Network;

class Host {
 public:
  // By-value frame: the host forwards the link's storage to the transport
  // without copying.
  using Receiver = std::function<void(Bytes frame, const std::string& from_host)>;

  const std::string& name() const { return name_; }

  // All links attached to this host, in attachment order.
  const std::vector<Link*>& links() const { return links_; }

  // Links whose far end is `peer`, in attachment order. The reference is
  // into the host's peer index: valid until the next Attach, never a copy.
  const std::vector<Link*>& LinksTo(const std::string& peer) const;

  // True if any link to `peer` is currently up. O(1) when the peer has an
  // always-up link; otherwise scans just that peer's links.
  bool CanReach(const std::string& peer) const;

  // Registers the upcall for frames arriving on any attached link. `owner`
  // identifies the registrant so ClearReceiver can be a no-op when someone
  // else has re-registered since (a replacement transport may be built
  // before its predecessor is destroyed).
  void SetReceiver(Receiver receiver, const void* owner = nullptr);
  void ClearReceiver(const void* owner);

  // Per-peer link-state observers: fire when a link to `peer` is attached
  // or forced down. This is how N parked queues avoid N wakeup scans on
  // every unrelated link event. `owner` scopes removal.
  void AddPeerObserver(const std::string& peer, std::function<void()> observer,
                       const void* owner);
  void RemovePeerObservers(const void* owner);

 private:
  friend class Network;
  explicit Host(std::string name) : name_(std::move(name)) {}

  struct PeerEntry {
    std::vector<Link*> links;
    // Count of links that are up at every t (always-up schedule, not
    // forced down): the CanReach fast path.
    int always_up = 0;
    std::vector<std::pair<const void*, std::function<void()>>> observers;
  };

  void Attach(Link* link);
  void HandleFrame(Bytes frame, const std::string& from);
  void OnLinkForcedDown(const std::string& peer);
  void NotifyPeerChange(PeerEntry& entry);

  std::string name_;
  std::vector<Link*> links_;
  std::unordered_map<std::string, PeerEntry> peers_;
  Receiver receiver_;
  const void* receiver_owner_ = nullptr;
};

class Network {
 public:
  explicit Network(EventLoop* loop) : loop_(loop) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  EventLoop* loop() const { return loop_; }

  // Creates (or returns the existing) host with this name.
  Host* AddHost(const std::string& name);

  Host* FindHost(const std::string& name) const;

  // Connects two hosts with a new link. Both hosts are created on demand.
  // A null schedule means always-up.
  Link* Connect(const std::string& host_a, const std::string& host_b, LinkProfile profile,
                std::unique_ptr<ConnectivitySchedule> schedule = nullptr);

  const std::vector<std::unique_ptr<Link>>& all_links() const { return links_; }

 private:
  EventLoop* loop_;
  std::map<std::string, std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Link>> links_;
  uint64_t next_link_seed_ = 0x9e3779b9;
};

}  // namespace rover

#endif  // ROVER_SRC_SIM_NETWORK_H_
