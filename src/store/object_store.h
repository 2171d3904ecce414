// Server-side versioned object store (paper §3.1: "In Rover, every object
// has a home server... Update conflicts are detected at the server, where
// Rover attempts to reconcile them").
//
// Each object keeps its committed descriptor, a bounded version history
// (so resolvers can see the ancestor a client diverged from), and a type
// tag selecting its conflict resolver.

#ifndef ROVER_SRC_STORE_OBJECT_STORE_H_
#define ROVER_SRC_STORE_OBJECT_STORE_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/rdo/rdo.h"
#include "src/util/bytes.h"
#include "src/store/conflict.h"

namespace rover {

struct ObjectStoreStats {
  uint64_t creates = 0;
  uint64_t commits = 0;           // successful exports (incl. resolved)
  uint64_t fast_path_commits = 0; // base version matched, no resolver run
  uint64_t resolved_conflicts = 0;
  uint64_t unresolved_conflicts = 0;
};

struct ExportOutcome {
  uint64_t new_version = 0;
  bool was_conflict = false;   // resolver ran
  RdoDescriptor committed;     // the now-committed descriptor
};

class ObjectStore {
 public:
  explicit ObjectStore(size_t history_limit = 16) : history_limit_(history_limit) {}

  // Creates an object at version 1. Fails if it already exists.
  Status Create(const RdoDescriptor& descriptor);

  // Unconditional replace (server-local mutation, e.g. server-side method
  // execution). Bumps the version.
  Result<uint64_t> Put(const RdoDescriptor& descriptor);

  // Committed descriptor for `name`.
  Result<RdoDescriptor> Get(const std::string& name) const;

  // A specific journaled version of `name`: the committed descriptor or any
  // still-held history entry. kNotFound once the version has aged out of
  // the bounded history -- delta imports then fall back to the full object.
  Result<RdoDescriptor> GetVersion(const std::string& name, uint64_t version) const;

  bool Exists(const std::string& name) const;
  Result<uint64_t> VersionOf(const std::string& name) const;

  // Applies a client export based on `base_version`:
  //  - base == committed version: fast path, commit as version+1.
  //  - base < committed: conflict; run the type resolver with the ancestor
  //    (from history), committed, and proposed states. On success the
  //    merged state commits; on failure returns kConflict.
  Result<ExportOutcome> ApplyExport(const RdoDescriptor& proposed, uint64_t base_version,
                                    const ConflictResolverRegistry& resolvers);

  Status Remove(const std::string& name);

  // Names with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix = "") const;

  const ObjectStoreStats& stats() const { return stats_; }

  // Persistence: the paper's home servers keep objects on stable storage.
  // Serialize captures every object's committed descriptor and history;
  // Load rebuilds the store (e.g. after a simulated server restart).
  Bytes Serialize() const;
  Status Load(const Bytes& snapshot);

  // Journal hooks, fired after every committed mutation (Create/Put/
  // ApplyExport commit) and every removal. The server stable store uses
  // them to write-ahead-log mutations without each call site knowing about
  // durability. Replay via RestoreCommit/Remove does NOT fire them.
  using CommitHook = std::function<void(const RdoDescriptor& committed)>;
  using RemoveHook = std::function<void(const std::string& name)>;
  void SetJournalHooks(CommitHook on_commit, RemoveHook on_remove) {
    on_commit_ = std::move(on_commit);
    on_remove_ = std::move(on_remove);
  }

  // WAL replay: re-applies a logged committed descriptor at its recorded
  // version (creating the object if needed), pushing the previous committed
  // state into history. Bypasses resolvers, stats, and journal hooks.
  void RestoreCommit(const RdoDescriptor& committed);

 private:
  struct Entry {
    RdoDescriptor committed;
    std::deque<RdoDescriptor> history;  // older versions, oldest first
  };

  void PushHistory(Entry* entry);

  size_t history_limit_;
  std::map<std::string, Entry> objects_;
  ObjectStoreStats stats_;
  CommitHook on_commit_;
  RemoveHook on_remove_;
};

}  // namespace rover

#endif  // ROVER_SRC_STORE_OBJECT_STORE_H_
